"""Fixed points, quantum histories, and fixed-point networks.

A fixed point pins equal forward and backward temporal parts to one state
at one time; a history is a strictly increasing sequence of at least two
of them. The network view expands each time layer into a complete basis
of candidate fixed points and connects adjacent layers with one forward
and one backward line per node pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .contour import Branch
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NonMonotoneTimes,
    NotNormalized,
    TooFewPoints,
    ValidationError,
)
from .statespace import Basis, _flat_norm, _frozen_array, is_unit

MAX_EDGES = 1 << 16  # branch lines one network may build, as many as a chain's joints


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


@dataclass(frozen=True)
class NetworkLayer:
    t: float
    nodes: Basis

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class NetworkEdge:
    """Directed branch line; source and target are (layer, node) index pairs."""

    branch: Branch
    source: tuple[int, int]
    target: tuple[int, int]


@dataclass(frozen=True)
class FixedPointNetwork:
    layers: tuple[NetworkLayer, ...]
    edges: tuple[NetworkEdge, ...]

    @cached_property
    def _pairs(self) -> dict[int, list[NetworkEdge]]:
        """Edges between adjacent layers, grouped once by the earlier layer."""
        pairs: dict[int, list[NetworkEdge]] = {}
        for e in self.edges:
            if abs(e.source[0] - e.target[0]) == 1:
                pairs.setdefault(min(e.source[0], e.target[0]), []).append(e)
        return pairs

    def edges_between(self, i: int) -> tuple[NetworkEdge, ...]:
        """All branch lines between layers i and i+1."""
        return tuple(self._pairs.get(i, ()))

    def channels_between(self, i: int) -> tuple[tuple[int, int], ...]:
        """Two-way channels (node pairs) between layers i and i+1."""
        seen: dict[tuple[int, int], None] = {}
        for e in self.edges_between(i):
            a, b = sorted((e.source, e.target))
            seen[(a[1], b[1])] = None
        return tuple(seen)


def build_network(times: Sequence[float], bases: Sequence[Basis]) -> FixedPointNetwork:
    """Full bipartite forward/backward line sets between adjacent layers:
    one forward line earlier-to-later and one backward line later-to-earlier
    per node pair, 2*N1*N2 lines in total per adjacent pair, counted before
    any is built: more than MAX_EDGES raise InstanceTooLarge."""
    ts = [float(t) for t in times]
    if len(ts) != len(bases):
        raise ValidationError(f"{len(ts)} times but {len(bases)} layer bases")
    if len(ts) < 2:
        raise TooFewPoints("a network needs at least two layers")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise NonMonotoneTimes("layer times must be strictly increasing")
    count = sum(2 * len(a) * len(b) for a, b in zip(bases, bases[1:]))
    if count > MAX_EDGES:
        raise InstanceTooLarge(f"{count} network branch lines exceed the limit of {MAX_EDGES}")
    layers = tuple(NetworkLayer(t, basis) for t, basis in zip(ts, bases))
    edges: list[NetworkEdge] = []
    for i in range(len(layers) - 1):
        for a in range(layers[i].size):
            for b in range(layers[i + 1].size):
                edges.append(NetworkEdge(Branch.FORWARD, (i, a), (i + 1, b)))
                edges.append(NetworkEdge(Branch.BACKWARD, (i + 1, b), (i, a)))
    return FixedPointNetwork(layers, tuple(edges))
