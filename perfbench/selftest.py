"""Self-test of the benchmark's generator and report checks.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that one seed gives byte-identical scenario files, that a real born
report and a real chain report pass the reference check and fail it with
one value moved by 1e-6, and that chain-wide's largest joint count is 1024.
Exits 1 on any failure, and 2 without an fpf source tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import reference
import workloads
from worker import call

SRC = Path(__file__).resolve().parent.parent / "src"


def fpf_report(text: str) -> str:
    """Run one scenario through `fpf run` in-process and return its stdout."""
    sys.path.insert(0, str(SRC))
    from fpf import cli

    path = Path(__file__).resolve().parent.parent / ".perfbench" / "selftest.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    try:
        code, out, err, _ = call(cli, str(path))
    finally:
        path.unlink()
    if code != 0:
        raise SystemExit(f"fpf run exited {code}: {err.strip()}")
    return out


def main() -> int:
    if not (SRC / "fpf" / "__init__.py").is_file():
        print(f"selftest: no fpf source tree at {SRC}", file=sys.stderr)
        return 2
    results = []

    same = all(
        [c.document() for c in workloads.generate(w, 7)]
        == [c.document() for c in workloads.generate(w, 7)]
        for w in workloads.WORKLOADS
    )
    differ = workloads.generate("short-queries", 7)[0].document() != workloads.generate(
        "short-queries", 8
    )[0].document()
    results.append(("one seed gives byte-identical files, another seed other files", same and differ))

    born = next(c for c in workloads.generate("short-queries", 7) if c.kind == "born")
    chain = workloads.generate("chain-oracle", 7)[0]
    for case, field in ((born, "measures"), (chain, "delta_psi")):
        report = fpf_report(case.document())
        results.append((f"a true {case.kind} report passes the reference check",
                        reference.check(case, report) == []))
        doc = json.loads(report)
        doc[field][0] += 1e-6
        results.append((f"a {case.kind} report with {field}[0] moved by 1e-6 is counted as failed",
                        reference.check(case, json.dumps(doc)) != []))

    joints = [c.joints for c in workloads.generate("chain-wide", 7)]
    results.append((f"chain-wide joints span {min(joints)}..{max(joints)}, largest 1024",
                    min(joints) >= 64 and max(joints) == 1024))

    for name, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
