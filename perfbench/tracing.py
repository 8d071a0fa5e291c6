"""Outside-in tracing of fpf: wraps public functions from outside the program.

Each target is replaced by a wrapper wherever an `fpf.*` module binds it,
including names bound by `from .x import y` (such as `fpf.cli.parse_scenario`
or `fpf.measure.propagate`); method targets are patched on their class. A
wrapper records one span (name, start, end, parent) in memory. Self time is
a span's duration minus the durations of its child spans. A target that no
longer exists, or whose module is gone, is skipped, so its metrics are left
out instead of failing.
"""

from __future__ import annotations

import enum
import functools
import gzip
import importlib
import sys
from time import perf_counter

# (span name, module, attribute path, count distinct argument keys per call)
TARGETS = (
    ("cli.main", "cli", "main", False),
    ("scenario.parse_scenario", "scenario", "parse_scenario", False),
    ("scenario.run", "scenario", "run", False),
    ("scenario.to_json", "scenario", "ResultReport.to_json", False),
    ("measure.born_measure", "measure", "born_measure", False),
    ("measure.abl_measure", "measure", "abl_measure", False),
    ("measure.chain_measure", "measure", "chain_measure", False),
    ("measure.chain_delta_psi", "measure", "chain_delta_psi", False),
    ("dynamics.propagate", "dynamics", "propagate", True),
    ("statespace.expm_hermitian", "statespace", "expm_hermitian", True),
    ("statespace.unitary_checks", "statespace", "UnitaryMatrix.__post_init__", False),
    ("oracle.propagator", "oracle", "propagator", False),
    ("oracle.standard_born", "oracle", "standard_born", False),
    ("oracle.abl_rule", "oracle", "abl_rule", False),
    ("oracle.contour_line_integral", "oracle", "contour_line_integral", False),
    ("histories.build_network", "histories", "build_network", False),
    ("histories.make_history", "histories", "make_history", False),
    ("contour.build_path", "contour", "build_path", False),
)


def _key(args: tuple, kwargs: dict) -> tuple:
    """Arguments by value where they are plain values, by identity otherwise."""
    plain = (int, float, str, enum.Enum)
    return tuple(a if isinstance(a, plain) else id(a) for a in (*args, *kwargs.values()))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self._seen: dict[int, set] = {}  # keys seen in the current top-level call
        self.distinct: dict[str, int] = {}

    def install(self) -> None:
        """Patch every target that exists."""
        for name, module, attr, keyed in TARGETS:
            try:
                mod = importlib.import_module(f"fpf.{module}")
            except ModuleNotFoundError:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, len(self.names), keyed)
            self.names.append(name)
            if keyed:
                self.distinct[name] = 0
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for loaded, namespace in list(sys.modules.items()):
                if loaded == "fpf" or loaded.startswith("fpf."):
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, bound, wrapper)

    def _wrap(self, fn, index: int, keyed: bool):
        names, name_of, parent, start, end = self.names, self.name_of, self.parent, self.start, self.end
        stack, seen = self._stack, self._seen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            if keyed:
                seen.setdefault(index, set()).add(_key(args, kwargs))
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                if not stack:
                    for i, keys in seen.items():
                        self.distinct[names[i]] += len(keys)
                    seen.clear()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self time."""
        child = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for sid, index in enumerate(self.name_of):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += self.end[sid] - self.start[sid] - child[sid]
        for name, count in self.distinct.items():
            out[name]["distinct"] = count
        return out

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, parent, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=3) as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (p, i, a, b) in enumerate(zip(self.parent, self.name_of, self.start, self.end)):
                f.write(f"{sid}\t{p}\t{self.names[i]}\t{a:.9f}\t{b:.9f}\n")
