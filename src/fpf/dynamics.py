"""Branch propagators from piecewise-constant Hamiltonian schedules.

Time dependence is modeled as contiguous constant pieces, so the
time-ordered exponential collapses to an exact finite product of spectral
exponentials: latest factor leftmost when evolving toward larger times,
and the adjoint of that product when evolving toward smaller times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import Branch
from .errors import CoverageError, DimensionMismatch, ValidationError
from .statespace import HermitianOperator, UnitaryMatrix, expm_hermitian
from .tolerances import active_tolerances


@dataclass(frozen=True)
class SchedulePiece:
    t_start: float
    t_end: float
    hamiltonian: HermitianOperator

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError(
                f"piece must have t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )


def _validate_pieces(pieces: Sequence[SchedulePiece], gap_tol: float) -> None:
    if not pieces:
        raise ValidationError("schedule needs at least one piece")
    dim = pieces[0].hamiltonian.dim
    for p in pieces:
        if p.hamiltonian.dim != dim:
            raise DimensionMismatch("schedule pieces have differing dimensions")
    for prev, nxt in zip(pieces, pieces[1:]):
        if abs(nxt.t_start - prev.t_end) > gap_tol:
            raise ValidationError(
                f"schedule pieces must be contiguous: piece ending at {prev.t_end} "
                f"is followed by one starting at {nxt.t_start}"
            )


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Per-branch generator schedule. With branch_override absent the
    backward branch uses the forward pieces."""

    pieces: tuple[SchedulePiece, ...]
    branch_override: tuple[SchedulePiece, ...] | None = None

    def __post_init__(self):
        tols = active_tolerances()
        pieces = tuple(self.pieces)
        _validate_pieces(pieces, tols.schedule_gap)
        object.__setattr__(self, "pieces", pieces)
        if self.branch_override is not None:
            override = tuple(self.branch_override)
            _validate_pieces(override, tols.schedule_gap)
            if override[0].hamiltonian.dim != pieces[0].hamiltonian.dim:
                raise DimensionMismatch("branch override has a different dimension")
            same_cover = (
                abs(override[0].t_start - pieces[0].t_start) <= tols.schedule_gap
                and abs(override[-1].t_end - pieces[-1].t_end) <= tols.schedule_gap
            )
            if not same_cover:
                raise ValidationError("branch override must cover the same interval")
            object.__setattr__(self, "branch_override", override)

    @property
    def dim(self) -> int:
        return self.pieces[0].hamiltonian.dim

    @property
    def t_start(self) -> float:
        return self.pieces[0].t_start

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_end

    def pieces_for(self, branch: Branch) -> tuple[SchedulePiece, ...]:
        if branch is Branch.BACKWARD and self.branch_override is not None:
            return self.branch_override
        return self.pieces

    def covers(self, t: float) -> bool:
        slack = active_tolerances().schedule_gap
        return self.t_start - slack <= t <= self.t_end + slack

    def require_coverage(self, *times: float) -> None:
        for t in times:
            if not self.covers(t):
                raise CoverageError(
                    f"time {t} outside schedule coverage [{self.t_start}, {self.t_end}]"
                )


def propagate(
    sched: HamiltonianSchedule, branch: Branch, t_from: float, t_to: float
) -> UnitaryMatrix:
    """Unitary mapping states at t_from to states at t_to on the given branch."""
    sched.require_coverage(t_from, t_to)
    if t_from == t_to:
        return UnitaryMatrix(np.eye(sched.dim, dtype=np.complex128))
    lo, hi = min(t_from, t_to), max(t_from, t_to)
    u = np.eye(sched.dim, dtype=np.complex128)
    for piece in sched.pieces_for(branch):
        a, b = max(lo, piece.t_start), min(hi, piece.t_end)
        if b > a:
            u = expm_hermitian(piece.hamiltonian, b - a).mat @ u
    if t_to < t_from:
        u = u.conj().T
    return UnitaryMatrix(u)


def compose_check(
    sched: HamiltonianSchedule, branch: Branch, t1: float, t2: float, t3: float
) -> float:
    """Residual of the group property: ||U(t3,t1) - U(t3,t2) U(t2,t1)||_F."""
    if not t1 <= t2 <= t3:
        raise ValidationError("compose_check requires t1 <= t2 <= t3")
    whole = propagate(sched, branch, t1, t3).mat
    split = propagate(sched, branch, t2, t3).mat @ propagate(sched, branch, t1, t2).mat
    return float(np.linalg.norm(whole - split))
