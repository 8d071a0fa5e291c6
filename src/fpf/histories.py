"""Fixed points, quantum histories, and fixed-point networks.

A fixed point pins equal forward and backward temporal parts to one state
at one time; a history is the tuple of at least two of them at strictly
increasing times. The scenario parser holds every state it reads to a
norm tolerance (`state_norm` for a vector, `basis_orthonormal` for a
basis row), so a history does not check norms again. The network view
expands each time layer into a complete basis of candidate fixed points
and connects adjacent layers with one forward and one backward line per
node pair; those lines are counted from the layer sizes, never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceTooLarge, ValidationError
from .statespace import Basis, _frozen_array

# branch lines one network may count, as many as a chain's joints: it keeps
# over-cap files refused and bounds any later per-line work on a network
MAX_EDGES = 1 << 16


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """A state at a time. The state is a read-only copy: a nonempty, finite
    complex128 vector; unit norm is checked where states enter (the
    scenario parser), not here."""

    t: float
    state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", _frozen_array(self.state, ndim=1, what="state vector"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FixedPoint):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.state, other.state)


def make_history(points: Sequence[FixedPoint]) -> tuple[FixedPoint, ...]:
    """The points as a history: at least two, at strictly increasing times, of one dim."""
    pts = tuple(points)
    if len(pts) < 2:
        raise ValidationError("a history needs at least two fixed points")
    if any(not a.t < b.t for a, b in zip(pts, pts[1:])):
        raise ValidationError("history times must be strictly increasing")
    if any(len(p.state) != len(pts[0].state) for p in pts):
        raise ValidationError("history states have differing dimensions")
    return pts


def build_network(times: Sequence[float], bases: Sequence[Basis]) -> tuple[int, ...]:
    """Each layer's node count, once the layers are checked: strictly
    increasing times and one forward and one backward line per node pair
    of adjacent layers, 2*N1*N2 lines per pair, more than MAX_EDGES in all
    raise InstanceTooLarge."""
    ts = [float(t) for t in times]
    if len(ts) != len(bases):
        raise ValidationError(f"{len(ts)} times but {len(bases)} layer bases")
    if len(ts) < 2:
        raise ValidationError("a network needs at least two layers")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValidationError("layer times must be strictly increasing")
    sizes = tuple(len(b) for b in bases)
    count = sum(2 * a * b for a, b in zip(sizes, sizes[1:]))
    if count > MAX_EDGES:
        raise InstanceTooLarge(f"{count} network branch lines exceed the limit of {MAX_EDGES}")
    return sizes
