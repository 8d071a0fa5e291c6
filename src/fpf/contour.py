"""Two-branch contour integration paths.

The contour runs along the forward branch in increasing real time, then
along the backward branch in decreasing real time. A path over a set of
times covers every interval between consecutive times once per branch,
which realizes contour order for the engine and the oracles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import NonMonotoneTimes, TooFewPoints


class Branch(enum.Enum):
    FORWARD = "f"
    BACKWARD = "b"


@dataclass(frozen=True)
class PathSegment:
    branch: Branch
    t_from: float
    t_to: float

    @property
    def interval(self) -> tuple[float, float]:
        return (min(self.t_from, self.t_to), max(self.t_from, self.t_to))


def build_path(times: Sequence[float]) -> tuple[PathSegment, ...]:
    """Contour path covering every interval between consecutive times once
    per branch: all forward segments in time order, then all backward
    segments in reverse order."""
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise TooFewPoints("a path needs at least two times")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise NonMonotoneTimes("path times must be strictly increasing")
    forward = [PathSegment(Branch.FORWARD, a, b) for a, b in zip(ts, ts[1:])]
    backward = [PathSegment(Branch.BACKWARD, b, a) for a, b in zip(ts[-2::-1], ts[:0:-1])]
    return tuple(forward + backward)
