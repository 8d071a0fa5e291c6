"""Byte-for-byte sweep of `fpf` output between two checkouts.

A process loads the `src/fpf` of a parent and of a change checkout as two
packages, `fpf_parent` and `fpf_change`, as `bench_ab.py` does, and runs
`fpf run`, `fpf run --format table` and `fpf validate` on every document
below on both sides. Every command must give the same exit code, stdout
and stderr on both. So must `fpf random` for seeds 0-19 (`--random-seeds`),
every query kind and (dim, pieces) of (2, 1), (5, 3) and (8, 4): the class
`random`.

Base documents:
- `scenarios/*.json` and `scenarios/gallery/*.json` of the change checkout;
- the parent's `fpf random` documents of the `random` class;
- the benchmark's workload files of seeds 1 and 90001 (`--bench-seeds`),
  written by the change checkout's `perfbench/workloads.py`, which is
  only read.

Fault copies of every base document, one class at a time (`fault_copies`,
then `query_copies`):
- `big-int`: 13 integer literals around and beyond [-2**63, 2**64) and
  beyond float range, at one of SITES (chosen by the base's index), the
  five fields where a reader could tell an int from a float among them;
- `non-finite`: NaN, Infinity and -Infinity at that site;
- `surrogate`: a lone surrogate escape, in an ignored key and as the
  query kind;
- `bom`, `invalid-utf8`, `trailing` (bytes after the document) and
  `duplicate-key` (both the earlier and the later key winning);
- `deep-ignored`: nesting of one of IGNORED_DEPTHS levels in an ignored
  key, around the orjson bound and json's recursion limit;
- `query`: each of QUERY_FAULTS that applies to the query's kind, each
  breaking one query check (`query:<fault>`), and every pair of them
  (`query:pairs`), which pins the check that is reported first.
Then `roots`: documents that are not scenario objects (ROOT_TEXTS), and
`root-deep`: root nesting of ROOT_DEPTHS levels, as lists and as objects.
A root-deep document's commands run in a child process per side, so that
a crash reads as a signal (a negative exit code) and does not end the
sweep.

    python3 scripts/byte_sweep.py --parent ../parent --change . \\
        --out BENCH.json --key byte_sweep

Under `--key` of the `--out` JSON file (other keys are kept) it writes
per class the commands run, the differences found, the change side's exit
codes and, for `fpf run` JSON reports that differ, how many differ in each
top-level key (so an A/B sweep shows whether a change stays within named
fields), and the first MAX_SHOWN differing commands. It exits 1 on any
difference. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import chain, combinations
from pathlib import Path
from typing import Iterator

sys.dont_write_bytecode = True  # leave no byte-code in either checkout

from bench_ab import SIDES, call, load_cli, load_module  # noqa: E402

COMMANDS = (("run",), ("run", "--format", "table"), ("validate",))
KINDS = ("born", "abl", "chain", "network", "validate")
RANDOM_SHAPES = ((2, 1), (5, 3), (8, 4))
WORKLOADS = ("short-queries", "chain-oracle", "chain-wide")
BIG_INTS = (
    2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, -(2**63), -(2**63) - 1, -(2**63) - 2,
    -(2**64), 10**20, -(10**20), 10**300, 10**400,
)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
IGNORED_DEPTHS = (500, 690, 699, 700, 900, 1_000, 5_000, 100_000)
ROOT_DEPTHS = (10, 500, 1_000, 100_000, 1_000_000, 3_000_000)
ROOT_TEXTS = (
    "", "null", "[]", "{}", "0", "1e400", "NaN", "-Infinity", '"\\ud800"', "18446744073709551616",
    "-9223372036854775809", "[1, 2", '{"schema": 1} x', "\ufeff{}",
)
MAX_SHOWN = 10
CHILD_TIMEOUT_S = 120


def _state_entry(doc: dict, value) -> None:
    points = doc.get("fixed_points") or [{"time": doc["hamiltonian"]["pieces"][0]["t_start"]}]
    points[0]["state"] = [[value, 0.0]] + [[0.0, 0.0]] * (doc["dim"] - 1)
    doc["fixed_points"] = points


def _selection_entry(doc: dict, value) -> None:
    selection = doc["query"].get("selection") or [0]
    doc["query"]["selection"] = [value, *selection[1:]]


def _basis_entry(doc: dict, value) -> None:
    bases = doc.get("bases") or {"m": [[[1.0, 0.0]]]}
    next(iter(bases.values()))[0][0][0] = value
    doc["bases"] = bases


# where a number goes: the five fields that print or type-check their
# value, nested forms of two of them, and numbers read as floats
SITES = {
    "schema": lambda doc, v: doc.update(schema=v),
    "dim": lambda doc, v: doc.update(dim=v),
    "query.kind": lambda doc, v: doc["query"].update(kind=v),
    "query.kind[0]": lambda doc, v: doc["query"].update(kind=[v]),
    "query.selection": _selection_entry,
    "tolerances.unitary": lambda doc, v: doc.update(tolerances={"unitary": v}),
    "tolerances.unitary[0]": lambda doc, v: doc.update(tolerances={"unitary": [v]}),
    "t_start": lambda doc, v: doc["hamiltonian"]["pieces"][0].update(t_start=v),
    "matrix": lambda doc, v: doc["hamiltonian"]["pieces"][0]["matrix"][0][0].__setitem__(0, v),
    "query.time": lambda doc, v: doc["query"].update(time=v),
    "state": _state_entry,
    "bases": _basis_entry,
}


def _with(text: str, site: str, value) -> bytes:
    doc = json.loads(text)
    SITES[site](doc, value)
    return json.dumps(doc, indent=1).encode()


def _slot(doc: dict, i: int) -> dict:
    """Outcome slot i: a born or abl query itself, else the chain's interior[i]."""
    query = doc["query"]
    return query if query["kind"] in ("born", "abl") else query["interior"][i]


def _past_the_end(doc: dict) -> float:
    return doc["hamiltonian"]["pieces"][-1]["t_end"] + 1.0


def _swap_times(slots: list) -> None:
    slots[0]["time"], slots[1]["time"] = slots[1]["time"], slots[0]["time"]


def _outcomes_of_another_dim(doc: dict) -> None:
    dim = doc["dim"] + 1
    wide = [[[float(i == j), 0.0] for j in range(dim)] for i in range(dim)]
    doc["bases"] = {**(doc.get("bases") or {}), "wide": wide}
    _slot(doc, 0)["outcomes"] = "wide"


def _set(items: list, i: int, value) -> None:
    items[i] = value


SLOTTED = ("born", "abl", "chain")
# fault: (the query kinds it applies to, how it breaks one query check); a
# chain without the slots or selection entries a fault needs raises IndexError
QUERY_FAULTS = {
    "points+1": (SLOTTED, lambda doc: doc["fixed_points"].append(doc["fixed_points"][-1])),
    "points-1": (SLOTTED, lambda doc: doc["fixed_points"].pop()),
    "uncovered": (SLOTTED, lambda doc: _slot(doc, -1).update(time=_past_the_end(doc))),
    "uncovered-layer": (("network",), lambda doc: _set(doc["query"]["times"], -1, _past_the_end(doc))),
    "at-preparation": (("born", "chain"), lambda doc: _slot(doc, 0).update(time=doc["fixed_points"][0]["time"])),
    "at-post-selection": (("abl",), lambda doc: _slot(doc, 0).update(time=doc["fixed_points"][1]["time"])),
    "unordered": (("chain",), lambda doc: _swap_times(doc["query"]["interior"])),
    "unordered-layers": (("network",), lambda doc: doc["query"]["times"].reverse()),
    "unknown-outcomes": (SLOTTED, lambda doc: _slot(doc, 0).update(outcomes="nope")),
    "outcomes-dim": (SLOTTED, _outcomes_of_another_dim),
    "selection-length": (("chain",), lambda doc: doc["query"]["selection"].append(0)),
    "selection-range": (("chain",), lambda doc: _set(doc["query"]["selection"], 0, doc["dim"])),
    "selection-negative": (("chain",), lambda doc: _set(doc["query"]["selection"], 0, -1)),
    "layer-count": (("network",), lambda doc: doc["query"]["bases"].pop()),
    "unknown-layer": (("network",), lambda doc: _set(doc["query"]["bases"], 0, "nope")),
}


def _query_fault(text: str, *faults: str) -> bytes | None:
    """The document with each of faults applied in turn, or None where one
    does not apply to it."""
    doc = json.loads(text)
    for fault in faults:
        kinds, change = QUERY_FAULTS[fault]
        if doc["query"]["kind"] not in kinds:
            return None
        try:
            change(doc)
        except IndexError:
            return None
    return json.dumps(doc, indent=1).encode()


def query_copies(text: str) -> Iterator[tuple[str, bytes]]:
    """Each fault of QUERY_FAULTS that applies to the document, then each
    pair of them, applied in the first order that applies both, that makes a
    document neither makes alone (nor undoes)."""
    singles = {fault: _query_fault(text, fault) for fault in QUERY_FAULTS}
    singles = {fault: data for fault, data in singles.items() if data is not None}
    for fault, data in singles.items():
        yield f"query:{fault}", data
    unchanged = _query_fault(text)
    for pair in combinations(singles, 2):
        data = _query_fault(text, *pair) or _query_fault(text, *pair[::-1])
        if data not in (None, singles[pair[0]], singles[pair[1]], unchanged):
            yield "query:pairs", data


def fault_copies(text: str, index: int) -> Iterator[tuple[str, bytes]]:
    """(class, document bytes) for every fault copy of the base document
    text; index picks the number site and the ignored key's depth."""
    site = list(SITES)[index % len(SITES)]
    for value in BIG_INTS:
        yield f"big-int:{site}", _with(text, site, value)
    for value in NON_FINITE:
        yield "non-finite", _with(text, site, value)
    body = text.lstrip()[1:]  # after the root's opening brace
    yield "surrogate", ('{"note": "\\ud800", ' + body).encode()
    yield "surrogate", _with(text, "query.kind", "\ud800")
    yield "bom", b"\xef\xbb\xbf" + text.encode()
    yield "invalid-utf8", b'{"note": "\xff", ' + body.encode()
    yield "trailing", text.encode() + b" x"
    yield "trailing", text.encode() + b"\x00"
    yield "duplicate-key", ('{"dim": 99, "schema": 7, ' + body).encode()
    yield "duplicate-key", (text.rstrip()[:-1] + ', "dim": 1, "schema": 1.0}').encode()
    depth = IGNORED_DEPTHS[index % len(IGNORED_DEPTHS)]
    yield "deep-ignored", ('{"ignored": ' + "[" * depth + "]" * depth + ", " + body).encode()


def root_deep(depth: int, kind: str) -> bytes:
    if kind == "list":
        return b"[" * depth + b"]" * depth
    return b'{"a":' * depth + b"1" + b"}" * depth


def base_documents(checkouts: dict, random_docs: list, bench_seeds: list[int]) -> list:
    """(name, text) of every base document."""
    root = checkouts["change"]
    bases = [(p.name, p.read_text()) for p in sorted((root / "scenarios").glob("*.json"))]
    bases += [(p.name, p.read_text()) for p in sorted((root / "scenarios" / "gallery").glob("*.json"))]
    bases += random_docs
    workloads = load_module(root / "perfbench" / "workloads.py", "byte_sweep_workloads")
    for workload in WORKLOADS:
        for seed in bench_seeds:
            for i, case in enumerate(workloads.generate(workload, seed)):
                bases.append((f"{workload}-{seed}-{i:03d}", case.document()))
    return bases


# runs each command of argv[1] (JSON) with fpf.cli.main and prints their results as JSON
CHILD = """
import contextlib, io, json, sys
from fpf.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def child_calls(checkout: Path, commands: list[list[str]]) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of each `fpf` command, run one after
    another in a child process that loads the checkout's fpf; if the child
    dies, every command reads its exit code (negative for a signal) and
    stderr."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return [(proc.returncode, "", proc.stderr[-300:])] * len(commands)
    return [tuple(result) for result in json.loads(proc.stdout)]


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


class Tally:
    """Per class: commands, differences, the change side's exit codes and the
    top-level keys in which differing `run` JSON reports differ; the first
    MAX_SHOWN differing commands."""

    def __init__(self):
        self.classes: dict[str, dict] = {}
        self.shown: list[dict] = []

    def add(self, cls: str, source: str, argv: tuple, results: list) -> None:
        row = self.classes.setdefault(
            cls, {"commands": 0, "differences": 0, "exit_codes": Counter(), "differing_keys": Counter()}
        )
        row["commands"] += 1
        row["exit_codes"][str(results[1][0])] += 1
        if results[0] != results[1]:
            row["differences"] += 1
            if argv[0] == "run" and "--format" not in argv:
                row["differing_keys"].update(differing_keys(results[0][1], results[1][1]))
            if len(self.shown) < MAX_SHOWN:
                sides = {side: [r[0], r[1][:300], r[2][:300]] for side, r in zip(SIDES, results)}
                self.shown.append({"class": cls, "source": source, "argv": list(argv), **sides})

    def summary(self) -> dict:
        return {
            "commands": sum(row["commands"] for row in self.classes.values()),
            "differences": sum(row["differences"] for row in self.classes.values()),
            "classes": {
                cls: {**row, "exit_codes": dict(row["exit_codes"]), "differing_keys": dict(row["differing_keys"])}
                for cls, row in sorted(self.classes.items())
            },
            "first_differences": self.shown,
        }


def random_documents(clis: dict, random_seeds: int, tally: Tally) -> list:
    """(name, text) of the parent's `fpf random` document for each seed, query
    kind and (dim, pieces) of RANDOM_SHAPES; each command runs on both sides
    and is tallied as class `random`."""
    docs = []
    for seed in range(random_seeds):
        for kind in KINDS:
            for dim, pieces in RANDOM_SHAPES:
                argv = ("random", "--seed", str(seed), "--dim", str(dim), "--pieces", str(pieces),
                        "--query", kind)
                results = [call(clis[side], *argv) for side in SIDES]
                tally.add("random", "fpf random", argv, results)
                code, out, err = results[0]
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}: {err.strip()}")
                docs.append((f"random-{seed}-{kind}-d{dim}-p{pieces}", out))
    return docs


def sweep(checkouts: dict, random_seeds: int, bench_seeds: list[int], root_depths: tuple) -> dict:
    clis = {side: load_cli(checkouts[side], side) for side in SIDES}
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="byte-sweep-") as tmp:
        path = Path(tmp) / "doc.json"

        def each_command(cls: str, source: str, data: bytes, in_child: bool = False) -> None:
            path.write_bytes(data)
            commands = [[command[0], str(path), *command[1:]] for command in COMMANDS]
            if in_child:
                per_side = [child_calls(checkouts[side], commands) for side in SIDES]
            else:
                per_side = [[call(clis[side], *argv) for argv in commands] for side in SIDES]
            for argv, *results in zip(commands, *per_side):
                tally.add(cls, source, argv, results)

        bases = base_documents(checkouts, random_documents(clis, random_seeds, tally), bench_seeds)
        for index, (name, text) in enumerate(bases):
            each_command("base", name, text.encode())
            for cls, data in chain(fault_copies(text, index), query_copies(text)):
                each_command(cls, name, data)
        for text in ROOT_TEXTS:
            each_command("roots", repr(text), text.encode())
        for depth in root_depths:
            for kind in ("list", "object"):
                each_command("root-deep", f"{kind} of {depth} levels", root_deep(depth, kind), in_child=True)
    return {"bases": len(bases), **tally.summary()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    ap.add_argument("--change", type=Path, required=True,
                    help="change checkout root (the parent again for A/A)")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--key", default="byte_sweep", help="key of the --out JSON object to write")
    ap.add_argument("--random-seeds", type=int, default=20, help="fpf random seeds 0..N-1")
    ap.add_argument("--bench-seeds", type=int, nargs="*", default=[1, 90001], help="workload file seeds")
    ap.add_argument("--root-depths", type=int, nargs="*", default=list(ROOT_DEPTHS))
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {
        "aa": checkouts["parent"] == checkouts["change"],
        **sweep(checkouts, args.random_seeds, args.bench_seeds, tuple(args.root_depths)),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.key] = result
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{result['commands']} commands over {result['bases']} base documents: "
          f"{result['differences']} differences")
    for cls, row in result["classes"].items():
        keys = ", ".join(f"{key} ({n})" for key, n in row["differing_keys"].items())
        print(f"  {cls}: {row['commands']} commands, {row['differences']} differences"
              + (f"; run reports differ in {keys}" if keys else ""))
    return 1 if result["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
