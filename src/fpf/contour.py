"""Two-branch contour integration paths.

The contour runs along the forward branch in increasing real time, then
along the backward branch in decreasing real time. A path over a set of
times covers every interval between consecutive times once per branch,
each step a `(branch, t_from, t_to)` triple. Only the tests walk it (the
RK4 oracle steps forward legs alone); the benchmark's tracer targets it.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .errors import ValidationError


class Branch(enum.Enum):
    FORWARD = "f"
    BACKWARD = "b"


def build_path(times: Sequence[float]) -> tuple[tuple[Branch, float, float], ...]:
    """Contour path covering every interval between consecutive times once
    per branch: all forward segments in time order, then all backward
    segments in reverse order."""
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise ValidationError("a path needs at least two times")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValidationError("path times must be strictly increasing")
    forward = [(Branch.FORWARD, a, b) for a, b in zip(ts, ts[1:])]
    backward = [(Branch.BACKWARD, b, a) for a, b in zip(ts[-2::-1], ts[:0:-1])]
    return tuple(forward + backward)
