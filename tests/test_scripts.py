"""Smoke tests: the scripts under scripts/ run and say what they should."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_convergence_study_is_fourth_order():
    out = run_script("convergence_study.py", "--max-steps", "64")
    # rows: steps, value, |error|, estimate, order ("-" on the first row)
    orders = [
        float(cols[4])
        for cols in (line.split() for line in out.splitlines())
        if len(cols) == 5 and cols[0].isdigit() and cols[4] != "-"
    ]
    assert len(orders) == 6, out
    assert min(orders) >= 3.5, out


def test_oracle_sweep_runs_chains():
    out = run_script("oracle_sweep.py", "--seeds", "20", "--kinds", "chain")
    assert "chain: worst deviation" in out, out
