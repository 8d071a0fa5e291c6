"""Check that a pytest run executes every `raise` statement in `src/fpf`.

Runs pytest in this process under `sys.settrace`, tracing only code whose
file lies in `src/fpf`, then walks each module's AST for `raise`
statements and lists those whose first line never ran. Code run in a
child process (the scripts that tests start with `subprocess`) is not
seen. Standard library and pytest only; it needs no `coverage`.

    python3 scripts/unreached.py --out unreached.json [pytest arguments]

Without pytest arguments it runs `tests/`. It writes a JSON object: the
pytest exit code, the number of raise statements and each one that did
not run, as {"file", "line", "source"}, and prints one line per unreached
raise. It exits with pytest's exit code if that is not 0, else with 1 if
some raise did not run, else with 0. Tracing makes a run take about 1.8
times as long: 47 s for Tier-1, against 27 s untraced, on two cores.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fpf"


def raise_statements(package: Path) -> list[tuple[str, int, str]]:
    """(file relative to ROOT, first line, its source) of every raise
    statement in the package's modules, in file and line order."""
    found = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        name = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise):
                found.append((name, node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def traced_pytest(args: list[str], package: Path) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for args, and the (file relative to ROOT, line)
    pairs that ran in the package's modules."""
    inside: dict[str, str | None] = {}  # code file -> its name relative to ROOT, or None
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            path = Path(os.path.realpath(filename))
            inside[filename] = path.relative_to(ROOT).as_posix() if path.parent == package else None
        return on_line if inside[filename] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args, pytest_args = ap.parse_known_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))  # import the fpf that is traced
    code, ran = traced_pytest(pytest_args or [str(ROOT / "tests")], PACKAGE)
    raises = raise_statements(PACKAGE)
    unreached = [
        {"file": name, "line": line, "source": source}
        for name, line, source in raises
        if (name, line) not in ran
    ]
    doc = {"pytest_exit_code": code, "raises": len(raises), "unreached": unreached}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{len(unreached)} of {len(raises)} raise statements in {PACKAGE.relative_to(ROOT)} did not run")
    for row in unreached:
        print(f"  {row['file']}:{row['line']}: {row['source']}")
    return code or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main())
