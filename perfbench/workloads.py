"""Seeded scenario generator for the benchmark workloads.

Inputs are made here from the workload seed, not with `fpf random`, so the
engine under test only ever sees the generated files. Each case keeps the
matrices it was written from; `reference.py` recomputes every answer from
them without fpf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("short-queries", "chain-oracle", "chain-wide")

SHORT_KINDS = ("born", "abl", "validate", "network")
DIMS = tuple(range(2, 9))
PIECES = tuple(range(1, 5))

# chain-wide: (dim, interior slots, pieces) with d**k joint outcomes from 64
# to 1024. Per-joint re-propagation outweighs the RK4 oracle only on chains
# with several hundred joints, and the oracle alone costs about 45 ms per
# slot. So each round pairs three large chains with ten 64-joint ones of one
# shape: the large ones keep measure, dynamics and statespace ahead of the
# oracle over a round, the small ones let 100 calls (8 rounds) fit in about
# 40 s, and the median call falls inside the small group, not at its edge.
CHAIN_WIDE_SHAPES = (
    (4, 5, 1),  # 1024 joints, the largest
    (8, 3, 2),  # 512, two pieces
    (2, 8, 1),  # 256, eight slots
    *[(8, 2, 1)] * 10,  # 64
)

# Set-up time must not depend on --seed, so the warm-up scenario is one
# small shape per workload made from a fixed seed.
WARMUP_SEED = 0
WARMUP_SHAPES = {
    "short-queries": ("born", 4, 2, 0),
    "chain-oracle": ("chain", 2, 1, 2),
    "chain-wide": ("chain", 8, 1, 2),
}


@dataclass
class Case:
    """One generated scenario plus the data its answer is checked against."""

    kind: str
    dim: int
    pieces: list  # (t_start, t_end, hermitian ndarray)
    points: list = field(default_factory=list)  # (time, state ndarray)
    bases: dict = field(default_factory=dict)  # name -> ndarray, one row per element
    query: dict = field(default_factory=dict)

    @property
    def joints(self) -> int:
        """Weights the report returns: outcomes for born/abl, joints for chains."""
        if self.kind in ("born", "abl"):
            return self.dim
        if self.kind == "chain":
            return math.prod(len(self.bases[s["outcomes"]]) for s in self.query["interior"])
        return 0

    def document(self) -> str:
        """The scenario file (schema 1); one seed gives the same bytes."""
        doc = {
            "schema": 1,
            "dim": self.dim,
            "hamiltonian": {
                "pieces": [
                    {"t_start": a, "t_end": b, "matrix": _pairs(h)} for a, b, h in self.pieces
                ],
                "branch_override": None,
            },
            "fixed_points": [{"time": t, "state": _pairs(v)} for t, v in self.points],
            "bases": {name: _pairs(rows) for name, rows in sorted(self.bases.items())},
            "query": self.query,
            "tolerances": {},
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def _pairs(a: np.ndarray):
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(row) for row in a]


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def _basis(rng: np.random.Generator, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return np.ascontiguousarray(q.T)


def _state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _pieces(rng: np.random.Generator, d: int, n: int) -> list:
    bounds = [0.0]
    for length in rng.uniform(0.3, 0.9, n):
        bounds.append(bounds[-1] + float(length))
    return [(bounds[i], bounds[i + 1], _hermitian(rng, d)) for i in range(n)]


def make_case(rng: np.random.Generator, kind: str, d: int, n_pieces: int, slots: int = 0) -> Case:
    pieces = _pieces(rng, d, n_pieces)
    t0, t1 = pieces[0][0], pieces[-1][1]
    case = Case(kind=kind, dim=d, pieces=pieces)
    if kind == "born":
        case.points = [(t0, _state(rng, d))]
        case.bases = {"m": _basis(rng, d)}
        case.query = {"kind": "born", "time": t1, "outcomes": "m"}
    elif kind == "abl":
        case.points = [(t0, _state(rng, d)), (t1, _state(rng, d))]
        case.bases = {"a": _basis(rng, d)}
        t_mid = t0 + (t1 - t0) * float(rng.uniform(0.25, 0.75))
        case.query = {"kind": "abl", "time": t_mid, "outcomes": "a"}
    elif kind == "chain":
        case.points = [(t0, _state(rng, d)), (t1, _state(rng, d))]
        interior = []
        for i in range(slots):
            # jittered even spacing keeps the slot times strictly increasing
            frac = (i + 1 + float(rng.uniform(-0.3, 0.3))) / (slots + 1)
            case.bases[f"a{i}"] = _basis(rng, d)
            interior.append({"time": t0 + (t1 - t0) * frac, "outcomes": f"a{i}"})
        selection = [int(k) for k in rng.integers(0, d, size=slots)]
        case.query = {"kind": "chain", "interior": interior, "selection": selection}
    elif kind == "network":
        sizes = [int(n) for n in rng.integers(1, d + 1, size=n_pieces + 1)]
        names = []
        for i, size in enumerate(sizes):
            case.bases[f"n{i}"] = _basis(rng, size)
            names.append(f"n{i}")
        times = [float(t) for t in np.linspace(t0, t1, len(sizes))]
        case.query = {"kind": "network", "times": times, "bases": names}
    elif kind == "validate":
        case.points = [(t0, _state(rng, d))]
        case.query = {"kind": "validate"}
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return case


def _shapes(workload: str) -> list[tuple[str, int, int, int]]:
    if workload == "short-queries":
        return [(kind, d, p, 0) for kind in SHORT_KINDS for d in DIMS for p in PIECES]
    if workload == "chain-oracle":
        return [("chain", d, p, 2) for d in DIMS for p in PIECES]
    if workload == "chain-wide":
        return [("chain", d, p, k) for d, k, p in CHAIN_WIDE_SHAPES]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def generate(workload: str, seed: int) -> list[Case]:
    """One round of the workload: every shape once, in a seeded order."""
    shapes = _shapes(workload)
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    cases = [make_case(rng, kind, d, p, k) for kind, d, p, k in shapes]
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def warmup_case(workload: str) -> Case:
    """The untimed warm-up scenario, the same for every --seed."""
    kind, d, p, k = WARMUP_SHAPES[workload]
    rng = np.random.default_rng([WARMUP_SEED, WORKLOADS.index(workload), 1])
    return make_case(rng, kind, d, p, k)
