"""Source line counts and Tier-1 results of two checkouts, side by side.

For a parent and a change checkout it counts the newlines of each module
in `src/fpf` and of the package as a whole, as `perfbench/run.py` counts
them, and runs the Tier-1 suite

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

in each checkout `--tier1-runs` times (default 1; 0 runs none), the
sides taking turns, parent first. Per run it keeps pytest's counts from
its summary line and the wall time of the run.

    python3 scripts/tree_facts.py --parent ../parent --change . \\
        --out BENCH.json --key tree_facts

The result goes under `--key` in the `--out` JSON file; other keys of an
existing file are kept. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)\b")


def src_lines(checkout: Path) -> dict[str, int]:
    """Newlines per module of checkout's src/fpf, and their sum under "src/fpf"."""
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted((checkout / "src" / "fpf").glob("*.py"))}
    return {"src/fpf": sum(lines.values()), **lines}


def summary_counts(line: str) -> dict[str, int]:
    """pytest's counts from its summary line, as in "2 failed, 5 passed in 1.2s"."""
    counts = {}
    for number, word in _COUNT.findall(line):
        counts["errors" if word == "error" else word] = int(number)
    return counts


def tier1(checkout: Path) -> dict:
    """One Tier-1 run in checkout: its exit code, counts and wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = summary_counts(lines[-1] if lines else "")
    return {"exit_code": proc.returncode, **counts, "seconds": round(seconds, 2)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    ap.add_argument("--change", type=Path, required=True, help="change checkout root")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--key", default="tree_facts", help="key of the --out JSON object to write")
    ap.add_argument("--tier1-runs", type=int, default=1, help="Tier-1 runs per checkout")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines = {side: src_lines(root) for side, root in checkouts.items()}
    result = {
        "src_lines": {
            name: {side: lines[side].get(name) for side in checkouts}
            for name in dict.fromkeys([*lines["parent"], *lines["change"]])
        },
        "tier1": {"command": " ".join(["PYTHONPATH=src python", *TIER1]), "parent": [], "change": []},
    }
    for _ in range(args.tier1_runs):
        for side, root in checkouts.items():
            run = tier1(root)
            result["tier1"][side].append(run)
            print(f"{side}: {run}")
    total = result["src_lines"]["src/fpf"]
    print(f"src/fpf lines: parent {total['parent']}, change {total['change']}")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.key] = result
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
