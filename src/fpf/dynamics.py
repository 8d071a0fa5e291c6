"""Branch propagators from piecewise-constant Hamiltonian schedules.

Time dependence is modeled as contiguous constant pieces, so the
time-ordered exponential collapses to an exact finite product of spectral
exponentials: latest factor leftmost when evolving toward larger times,
and the adjoint of that product when evolving toward smaller times.
`propagators` diagonalizes a branch's generators in one stacked eigh per
call, and builds all the propagators of a query from it in one pass, as
`propagator_laws` builds the law residuals: a schedule caches no spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .contour import Branch
from .errors import ValidationError
from .statespace import HermitianOperator, UnitaryMatrix, _flat_norm, expm_hermitian, unitaries, unitarity_defect
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
            raise ValidationError("schedule pieces have differing dimensions")
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
                raise ValidationError("branch override has a different dimension")
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
                raise ValidationError(
                    f"time {t} outside schedule coverage [{self.t_start}, {self.t_end}]"
                )


def _spectrum(pieces: Sequence[SchedulePiece]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (P, d) and eigenvectors (P, d, d) of P pieces' generators: one stacked eigh."""
    return np.linalg.eigh(np.array([p.hamiltonian.mat for p in pieces]))


def _products(
    pieces: Sequence[SchedulePiece], w: np.ndarray, v: np.ndarray, times: Sequence[float]
) -> list[np.ndarray]:
    """U(t_k -> t_k+1) for consecutive times from the pieces' spectrum (w, v):
    all span exponentials at once, each segment the product of its factors,
    latest leftmost (adjoint going back in time). Plain arrays."""
    which, durations, ends = [], [], []
    for lo, hi in map(sorted, zip(times, times[1:])):
        for k, piece in enumerate(pieces):
            a, b = max(lo, piece.t_start), min(hi, piece.t_end)
            if b > a:
                which.append(k)
                durations.append(b - a)
        ends.append(len(which))
    factors = expm_hermitian(w[which], v[which], np.array(durations))
    out = []
    for t_a, t_b, start, end in zip(times, times[1:], [0, *ends], ends):
        u = factors[start] if end > start else np.eye(v.shape[-1], dtype=np.complex128)
        for factor in factors[start + 1 : end]:
            u = factor @ u
        out.append(u.conj().T if t_b < t_a else u)
    return out


def propagators(
    sched: HamiltonianSchedule, branch: Branch, times: Sequence[float]
) -> tuple[UnitaryMatrix, ...]:
    """U(t_k -> t_k+1) on the branch for consecutive times in one pass: one
    stacked eigh of its generators, `_products`, one unitarity check."""
    sched.require_coverage(*times)
    pieces = sched.pieces_for(branch)
    return unitaries(_products(pieces, *_spectrum(pieces), times))


def propagator_laws(sched: HamiltonianSchedule) -> dict[str, float]:
    """The forward propagator's law residuals over the covered [t0, t1], from
    one eigh: unitarity of U(t0 -> t1), composition through the midpoint,
    and reversal, U(t1 -> t0) against the pieces undone one by one."""
    pieces, t0, t1 = sched.pieces, sched.t_start, sched.t_end
    w, v = _spectrum(pieces)
    u, back, early, late = unitaries(_products(pieces, w, v, (t0, t1, t0, 0.5 * (t0 + t1), t1)))
    # U(t1 -> t0) built apart from `_products`, which forms it as the adjoint
    # of u: exp(+i d_k h_k) per piece, earliest leftmost, so the latest is undone first
    undo = reduce(np.matmul, expm_hermitian(w, v, np.array([p.t_start - p.t_end for p in pieces])))
    return {
        "unitarity": unitarity_defect(u.mat),
        "composition": float(_flat_norm(u.mat - late.mat @ early.mat)),
        "reversal": float(_flat_norm(back.mat - undo)),
    }


def propagate(
    sched: HamiltonianSchedule, branch: Branch, t_from: float, t_to: float
) -> UnitaryMatrix:
    """U(t_from -> t_to) on the given branch: the one-segment case of `propagators`."""
    return propagators(sched, branch, (t_from, t_to))[0]

