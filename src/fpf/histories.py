"""Fixed points, quantum histories, and fixed-point networks.

A fixed point pins equal forward and backward temporal parts to one state
at one time; a history is a strictly increasing sequence of at least two
of them. The network view expands each time layer into a complete basis
of candidate fixed points and connects adjacent layers with one forward
and one backward line per node pair; those lines are counted from the
layer sizes, never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NonMonotoneTimes,
    NotNormalized,
    TooFewPoints,
    ValidationError,
)
from .statespace import Basis, _flat_norm, _frozen_array, is_unit

# branch lines one network may count, as many as a chain's joints: it keeps
# over-cap files refused and bounds any later per-line work on a network
MAX_EDGES = 1 << 16


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """A state at a time. The state is a read-only copy: a nonempty, finite
    complex128 vector; unit norm is checked where it matters (histories,
    scenario files), not here."""

    t: float
    state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", _frozen_array(self.state, ndim=1, what="state vector"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FixedPoint):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.state, other.state)


@dataclass(frozen=True)
class QuantumHistory:
    points: tuple[FixedPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if len(pts) < 2:
            raise TooFewPoints("a history needs at least two fixed points")
        if any(not a.t < b.t for a, b in zip(pts, pts[1:])):
            raise NonMonotoneTimes("history times must be strictly increasing")
        dim = len(pts[0].state)
        if any(len(p.state) != dim for p in pts):
            raise DimensionMismatch("history states have differing dimensions")
        for p in pts:
            if not is_unit(p.state):
                raise NotNormalized(f"fixed point at t={p.t} has norm {float(_flat_norm(p.state))}")
        object.__setattr__(self, "points", pts)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(p.t for p in self.points)


def make_history(points: Sequence[FixedPoint]) -> QuantumHistory:
    return QuantumHistory(tuple(points))


def build_network(times: Sequence[float], bases: Sequence[Basis]) -> tuple[int, ...]:
    """Each layer's node count, once the layers are checked: strictly
    increasing times and one forward and one backward line per node pair
    of adjacent layers, 2*N1*N2 lines per pair, more than MAX_EDGES in all
    raise InstanceTooLarge."""
    ts = [float(t) for t in times]
    if len(ts) != len(bases):
        raise ValidationError(f"{len(ts)} times but {len(bases)} layer bases")
    if len(ts) < 2:
        raise TooFewPoints("a network needs at least two layers")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise NonMonotoneTimes("layer times must be strictly increasing")
    sizes = tuple(len(b) for b in bases)
    count = sum(2 * a * b for a, b in zip(sizes, sizes[1:]))
    if count > MAX_EDGES:
        raise InstanceTooLarge(f"{count} network branch lines exceed the limit of {MAX_EDGES}")
    return sizes
