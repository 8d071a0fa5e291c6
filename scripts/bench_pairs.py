"""Order-alternated A/B pairs of the benchmark on two checkouts.

For each workload and seed, runs `perfbench/run.py --trace 0` at the
benchmark's own run length once in a parent checkout and once in a change
checkout, alternating which side runs first, and writes one JSON file with
every run's metrics, each side's median and quartiles, and per metric the
number of pairs the change won and, to show the run-order effect, the
number won by whichever side ran second (`second_wins`). Pairs are
numbered per workload across all `--pairs` options, so a workload named
twice adds pairs. Ties count for neither side. A metric's direction
(`better`) comes from the change checkout's BENCHMARK.json.
`gain_rule_met` says whether the change won at least nine tenths of the
pairs run, its median beat the parent's by more than the distance between
the parent's quartiles, and no change run was incorrect or failed more
calls than its parent run. Each `--traced` seed adds one `--trace 1` run
per side, kept under `traced` with its per-layer metrics and left out of
the pairs and the gain rule.

Both sides run from copies of their trees made once per sweep in a
temporary directory, without `__pycache__`, so that neither side loads
byte-code left over from earlier runs while the other compiles its
modules: with PYTHONDONTWRITEBYTECODE set, a copy compiles fpf in every
process, and an old cache in a working tree would show up as set-up time.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs short-queries:1,2,3,90001 --pairs chain-oracle:1,2,3 \\
        --traced chain-oracle:1 --out BENCH.json

Runs are serial, and the output file is rewritten after every run, so an
interrupted sweep keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 900
SIDES = ("parent", "change")


def pair_spec(text: str) -> tuple[str, list[int]]:
    workload, sep, seeds = text.partition(":")
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is not WORKLOAD:SEED[,SEED...]")
    return workload, [int(s) for s in seeds.split(",")]


def fresh_copy(tree: Path, dest: Path) -> Path:
    """A copy of a checkout without byte-code caches, git data or benchmark scratch."""
    shutil.copytree(tree, dest, ignore=shutil.ignore_patterns("__pycache__", ".git", ".perfbench"))
    return dest


def bench_once(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # a run that printed nothing has no metrics: count it as failed
        return {"exit": proc.returncode or 1, "error": (proc.stderr.strip() or "no output")[-500:]}
    result = json.loads(lines[-1])
    return {
        "exit": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if all(p.get(s, {}).get("exit") == 0 for s in SIDES)]
        if not complete:
            continue
        # a change run that is wrong or fails more calls than its parent run voids any gain
        sound = all(p["change"]["correct"] and p["change"]["failed"] <= p["parent"]["failed"]
                    for p in complete)
        # (first, second) run of each pair, by the order they ran in
        ordered = [sorted(p.values(), key=lambda r: r["position"]) for p in complete]
        rows = {}
        for name in complete[0]["change"]["metrics"]:
            parent = [p["parent"]["metrics"][name] for p in complete]
            change = [p["change"]["metrics"][name] for p in complete]
            row = {"parent": spread(parent), "change": spread(change),
                   "pairs": len(pairs), "complete_pairs": len(complete)}
            direction = better.get(name)
            if direction in ("higher", "lower"):
                sign = 1 if direction == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
                gap = row["parent"]["q3"] - row["parent"]["q1"]
                gain = sign * (row["change"]["median"] - row["parent"]["median"])
                row.update(
                    better=direction,
                    change_wins=wins,
                    ties=sum(c == p for p, c in zip(parent, change)),
                    second_wins=sum(sign * (b["metrics"][name] - a["metrics"][name]) > 0
                                    for a, b in ordered),
                    median_ratio=row["change"]["median"] / row["parent"]["median"],
                    gain_rule_met=sound and wins >= 0.9 * len(pairs) and gain > gap,
                )
            rows[name] = row
        summary[workload] = rows
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--pairs", type=pair_spec, action="append", required=True,
                        metavar="WORKLOAD:SEEDS", help="one pair per seed (repeatable)")
    parser.add_argument("--traced", type=pair_spec, action="append", default=[],
                        metavar="WORKLOAD:SEEDS", help="one traced run per side and seed (repeatable)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {"command": "perfbench/run.py --trace 0", "runs": [], "summary": {}, "traced": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {side: fresh_copy(tree, Path(tmp) / side) for side, tree in trees.items()}
        next_pair: dict[str, int] = {}
        for workload, seeds in args.pairs:
            for seed in seeds:
                index = next_pair.get(workload, 0)
                next_pair[workload] = index + 1
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = bench_once(sides[side], workload, seed)
                    doc["runs"].append({"workload": workload, "seed": seed, "pair": index,
                                        "side": side, "position": position, **result})
                    qps = result.get("metrics", {}).get("queries_per_s")
                    print(f"{workload} seed {seed} {side}: exit {result['exit']}, queries_per_s {qps}",
                          flush=True)
                    doc["summary"] = summarize(doc["runs"], better)
                    args.out.write_text(json.dumps(doc, indent=2) + "\n")
        for workload, seeds in args.traced:
            for seed in seeds:
                for side in SIDES:
                    result = bench_once(sides[side], workload, seed, trace=True)
                    doc["traced"].append({"workload": workload, "seed": seed, "side": side, **result})
                    print(f"{workload} seed {seed} {side}: traced, exit {result['exit']}", flush=True)
                    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    bad = [r for r in doc["runs"] + doc["traced"] if r["exit"] != 0 or not r["correct"] or r["failed"]]
    for workload, rows in doc["summary"].items():
        for name, row in rows.items():
            if "change_wins" in row:
                print(f"{workload} {name}: parent {row['parent']['median']:.4g} -> change "
                      f"{row['change']['median']:.4g}, change won {row['change_wins']} of "
                      f"{row['pairs']} pairs, gain rule met: {row['gain_rule_met']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
