"""Interleaved in-process A/B of two checkouts on one workload's files.

A measuring process loads the `src/fpf` of a parent and of a change
checkout as two packages, `fpf_parent` and `fpf_change`, through
`importlib`, so that each tree's relative imports resolve within that
tree. The script writes one round of each workload's seeded scenario files
with the change checkout's `perfbench/workloads.py`, then measures them in
PROCESSES fresh processes, one after another, that load the two trees in
alternating order. Each process runs every file once per side untimed,
then times ROUNDS rounds: per round, every file once per side, its two
calls back to back, the side that goes first alternating from file to file
and from round to round, so that both sides see the machine at nearly the
same speed. ROUNDS is even, so that each side goes first on each file in
as many rounds as the other: with an odd file count (13 on `chain-wide`)
one side goes first on one file more in even rounds than in odd ones, and
15 rounds weighted the two kinds of round unequally (A/A medians of 0.967
and 1.034 on `chain-wide`). Each round starts with a full garbage
collection and runs with the collector off, so that no collection, which
the same sequence of allocations triggers on the same call in every
process, lands inside a timed call. Each call is `cli.main(["run", file])` with stdout and
stderr captured. The two sides must return the same exit code and print
the same stderr, and the same stdout or JSON objects that differ in some
top-level keys (`differing_keys`), as a change confined to a few report
fields does; each side must print the same on every call of a file. On
any other difference the script stops with exit 1.

Per workload it writes every process's per-round time ratios (change over
parent, so below 1 is faster), each process's median, the median of all
rounds and of the even and of the odd rounds (numbered from 0 in each
process: `chain-wide`'s ratios still alternate with round parity, so a
claim is read against that split), a bootstrap 95% interval of the median
of all rounds, each side's median round time and each file's median
ratio, and per file whose two sides differ the top-level keys they differ
in. Where a process places each tree's code
and data can favour one side by about half a percent for the whole
process, so the bootstrap resamples processes first and then the rounds of
each, and the interval holds that spread too. Both trees share one process
and one numpy, so import and start-up are out of reach: this shows
per-query gains smaller than one `bench_pairs.py` sweep's noise, and does
not replace it. An A/A run names the same checkout twice, and its interval
should contain 1.0. PROCESSES, ROUNDS and SEED, with the collector off in
timed rounds, are the setting whose A/A intervals were checked on every
workload (`BENCH_28.json`); the process count matters most,
as timing both sides in a single process gave A/A intervals that
excluded 1.0.

    python3 scripts/bench_ab.py --parent ../parent --change . \\
        --workload chain-wide --out BENCH.json --key bench_ab

The result goes under `--key` in the `--out` JSON file; other keys of an
existing file are kept, so one file can hold a pair sweep, an A/A and an
A/B run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # serial BLAS, set before numpy loads

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import multiprocessing
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

SIDES = ("parent", "change")
PROCESSES = 6  # measuring processes, one after another
ROUNDS = 16  # timed rounds per process; even, see above
SEED = 1  # the workload files' seed
RESAMPLES = 2000  # bootstrap resamples


def load_module(path: Path, name: str, package: bool = False):
    """The module or package at path, registered under its own name."""
    init = path / "__init__.py" if package else path
    locations = [str(path)] if package else None
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(checkout: Path, side: str):
    """`fpf.cli` of a checkout, loaded as the package `fpf_<side>`, afresh
    when a process loads a side twice."""
    package = f"fpf_{side}"
    for name in [name for name in sys.modules if name.partition(".")[0] == package]:
        del sys.modules[name]
    load_module(checkout / "src" / "fpf", package, package=True)
    return importlib.import_module(f"{package}.cli")


def call(cli, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `fpf` command, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def differing_keys(parent_out: str, change_out: str) -> list[str]:
    """The top-level keys whose values differ between two JSON reports, a
    key missing on one side included; none where either is not a JSON object."""
    try:
        parent, change = json.loads(parent_out), json.loads(change_out)
    except json.JSONDecodeError:
        return []
    if not (isinstance(parent, dict) and isinstance(change, dict)):
        return []
    return [key for key in sorted(parent.keys() | change.keys())
            if key not in parent or key not in change or json.dumps(parent[key]) != json.dumps(change[key])]


def measure(checkouts: dict, order: tuple, files: list[str], rounds: int) -> dict:
    """In a process of its own: the trees loaded in `order`, then per side
    and file the times of `rounds` calls and per file the report keys the
    sides differ in, or the first output difference that is not one."""
    clis = {side: load_cli(checkouts[side], side) for side in order}
    expected, keys = {}, {}
    for path in files:  # untimed warm-up, and the output each side must print
        outputs = [call(clis[side], "run", path) for side in SIDES]
        if outputs[0] != outputs[1]:
            (parent_code, parent_out, parent_err), (change_code, change_out, change_err) = outputs
            keys[path] = differing_keys(parent_out, change_out)
            if parent_code != change_code or parent_err != change_err or not keys[path]:
                same = ", ".join(f"{what} {'same' if a == b else 'differs'}"
                                 for what, a, b in zip(("exit code", "stdout", "stderr"), *outputs))
                return {"error": f"outputs differ on {path}: {same}"}
        expected[path] = dict(zip(SIDES, outputs))
    times = {side: {path: [] for path in files} for side in SIDES}
    for r in range(rounds):
        gc.collect()  # each round starts without garbage and collects none
        gc.disable()
        try:
            for i, path in enumerate(files):
                for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                    start = perf_counter()
                    got = call(clis[side], "run", path)
                    times[side][path].append(perf_counter() - start)
                    if got != expected[path][side]:
                        return {"error": f"{side} output changed on {path} in round {r}"}
        finally:
            gc.enable()
    return {"times": times, "differing_keys": keys}


def bootstrap_median(ratios: np.ndarray) -> list[float]:
    """2.5th and 97.5th percentiles of the median of a (processes, rounds)
    array, resampling processes and then each chosen process's rounds."""
    rng = np.random.default_rng(0)
    n_proc, n_rounds = ratios.shape
    procs = rng.integers(0, n_proc, size=(RESAMPLES, n_proc, 1))
    rounds = rng.integers(0, n_rounds, size=(RESAMPLES, n_proc, n_rounds))
    medians = np.median(ratios[procs, rounds].reshape(RESAMPLES, -1), axis=1)
    return [float(q) for q in np.percentile(medians, [2.5, 97.5])]


def run_workload(checkouts: dict, files: list[str]) -> dict:
    spawn = multiprocessing.get_context("spawn")
    runs, keys = [], {}
    for p in range(PROCESSES):
        with spawn.Pool(1) as pool:
            got = pool.apply(measure, (checkouts, SIDES if p % 2 == 0 else SIDES[::-1], files, ROUNDS))
        if "error" in got:
            raise SystemExit(got["error"])
        runs.append(got["times"])
        keys.update((Path(path).name, names) for path, names in got["differing_keys"].items())
    # per side, process and round: the time of one pass over every file
    round_s = {side: np.array([[sum(t) for t in zip(*run[side].values())] for run in runs]) for side in SIDES}
    ratios = round_s["change"] / round_s["parent"]
    file_ratios = {
        Path(path).name: [c / p for run in runs for p, c in zip(run["parent"][path], run["change"][path])]
        for path in files
    }
    return {
        "processes": PROCESSES,
        "rounds": ROUNDS,
        "files": len(files),
        "ratios": ratios.tolist(),
        "process_median_ratio": np.median(ratios, axis=1).tolist(),
        "median_ratio": float(np.median(ratios)),
        "even_round_median_ratio": float(np.median(ratios[:, 0::2])),
        "odd_round_median_ratio": float(np.median(ratios[:, 1::2])),
        "ci95": bootstrap_median(ratios),
        "round_s_median": {side: float(np.median(round_s[side])) for side in SIDES},
        "file_median_ratio": {name: statistics.median(r) for name, r in file_ratios.items()},
        "differing_keys": keys,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    ap.add_argument("--change", type=Path, required=True, help="change checkout root (the parent again for A/A)")
    ap.add_argument("--workload", action="append", required=True, help="workload name, repeatable")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--key", default="bench_ab", help="key of the --out JSON object to write")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = load_module(checkouts["change"] / "perfbench" / "workloads.py", "bench_ab_workloads")
    result = {
        "aa": checkouts["parent"] == checkouts["change"],  # one checkout on both sides
        "seed": SEED,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        for workload in args.workload:
            files = []
            for i, case in enumerate(workloads.generate(workload, SEED)):
                path = Path(tmp) / f"{workload}-{i:03d}-{case.kind}-d{case.dim}.json"
                path.write_text(case.document())
                files.append(str(path))
            row = run_workload(checkouts, files)
            result["workloads"][workload] = row
            lo, hi = row["ci95"]
            print(f"{workload}: change/parent round time {row['median_ratio']:.3f} [{lo:.3f}, {hi:.3f}] "
                  f"(even rounds {row['even_round_median_ratio']:.3f}, odd {row['odd_round_median_ratio']:.3f}) "
                  f"over {PROCESSES} processes x {ROUNDS} rounds of {len(files)} files")
            if row["differing_keys"]:
                names = sorted(set().union(*row["differing_keys"].values()))
                print(f"{workload}: {len(row['differing_keys'])} files' reports differ in {', '.join(names)}")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.key] = result
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
