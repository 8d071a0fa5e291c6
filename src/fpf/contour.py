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

from .errors import NonMonotoneTimes, TooFewPoints, ValidationError


class Branch(enum.Enum):
    FORWARD = "f"
    BACKWARD = "b"


@dataclass(frozen=True)
class PathSegment:
    branch: Branch
    t_from: float
    t_to: float

    def __post_init__(self):
        if self.branch is Branch.FORWARD and not self.t_from < self.t_to:
            raise ValidationError("forward segments must run toward larger times")
        if self.branch is Branch.BACKWARD and not self.t_from > self.t_to:
            raise ValidationError("backward segments must run toward smaller times")

    @property
    def interval(self) -> tuple[float, float]:
        return (min(self.t_from, self.t_to), max(self.t_from, self.t_to))


@dataclass(frozen=True)
class ContourPath:
    segments: tuple[PathSegment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValidationError("a contour path needs at least one segment")
        # forward block strictly precedes backward block
        branches = [s.branch for s in segs]
        if any(
            a is Branch.BACKWARD and b is Branch.FORWARD
            for a, b in zip(branches, branches[1:])
        ):
            raise ValidationError("forward segments must precede backward segments")
        for prev, nxt in zip(segs, segs[1:]):
            if prev.branch is nxt.branch and prev.t_to != nxt.t_from:
                raise ValidationError("consecutive segments must connect")
        if branches[0] is Branch.FORWARD and branches[-1] is Branch.BACKWARD:
            last_f = max(i for i, b in enumerate(branches) if b is Branch.FORWARD)
            if segs[last_f].t_to != segs[last_f + 1].t_from:
                raise ValidationError("branch turnaround must happen at the latest time")
        object.__setattr__(self, "segments", segs)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


def build_path(times: Sequence[float]) -> ContourPath:
    """Contour path covering every interval between consecutive times once
    per branch: all forward segments in time order, then all backward
    segments in reverse order."""
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise TooFewPoints("a path needs at least two times")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise NonMonotoneTimes("path times must be strictly increasing")
    forward = [PathSegment(Branch.FORWARD, a, b) for a, b in zip(ts, ts[1:])]
    backward = [PathSegment(Branch.BACKWARD, b, a) for a, b in zip(ts[-2::-1], ts[:0:-1])]
    return ContourPath(tuple(forward + backward))
