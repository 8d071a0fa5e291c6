"""Pinned command-line bytes: stdout, stderr and exit code of `fpf run`
(json and table) on every file in scenarios/, and of `fpf random` for
seeds 0-2 x every query kind x (dim, pieces) in {(2, 1), (8, 4)}.

`golden/cli_bytes.json` holds the recorded results. `run` output is kept
whole; `random` output, about 500 KB in all, is kept as its SHA-256 digest
and length. A refactor that claims byte-identical output must leave this
file as it is. To record it again after an intended output change:

    PYTHONPATH=src python tests/test_output_bytes.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fpf.cli import main
from fpf.scenario import QUERY_KINDS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_bytes.json"


def _cases() -> list[list[str]]:
    cases = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        rel = path.relative_to(ROOT).as_posix()
        cases.append(["run", rel])
        cases.append(["run", rel, "--format", "table"])
    for seed in range(3):
        for kind in QUERY_KINDS:
            for dim, pieces in ((2, 1), (8, 4)):
                cases.append(
                    ["random", "--seed", str(seed), "--dim", str(dim),
                     "--pieces", str(pieces), "--query", kind]
                )
    return cases


def _call(argv: list[str]) -> dict:
    """One in-process CLI call, with scenario paths taken from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    resolved = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    stdout = out.getvalue()
    record = {"argv": argv, "exit": code, "stderr": err.getvalue()}
    if argv[0] == "random":
        record["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        record["stdout_len"] = len(stdout)
    else:
        record["stdout"] = stdout
    return record


def _golden() -> dict[str, dict]:
    return {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(a) for a in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_output_bytes(argv):
    assert _call(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_call(a) for a in _cases()], indent=1) + "\n")
