"""Independent textbook checks for the measure engine.

Everything here re-derives its own propagation: exponentials come from a
scaled power series instead of the eigendecomposition, the line integral
integrates the branch Schrodinger equation with classical RK4, and the
tensor/sink evaluator builds the full multi-time product state with
explicit time labels. None of it shares propagator code with the
dynamics module.

On a constant-generator span the line integral applies RK4's one-step
map R^n, with R = I + E and E = R - I kept separate through the binary
powering; that is n classical RK4 steps, to rounding, at the cost of
O(log n) matrix products. It uses sums and products of the generator
only, never an exact exponential, so its Richardson error estimate still
measures RK4's truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Branch, build_path
from .dynamics import HamiltonianSchedule
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NumericalCheckFailure,
    ValidationError,
    ZeroDenominator,
)
from .histories import QuantumHistory
from .statespace import Basis, HermitianOperator, StateVector, UnitaryMatrix
from .tolerances import active_tolerances


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    mat: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mat, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("density matrix must be square")
        tols = active_tolerances()
        if np.linalg.norm(arr - arr.conj().T) > tols.density_hermitian:
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(arr).real - 1.0) > tols.density_trace:
            raise ValidationError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(arr)) < -tols.density_eigen_floor:
            raise ValidationError("density matrix has a negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_state(cls, v: StateVector) -> "DensityMatrix":
        return cls(np.outer(v.amps, v.amps.conj()))


def _expm_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling, truncated power series, and repeated
    squaring. Slow and boring on purpose. A generator too large for the
    scaling factor 2**squarings, or a result that overflows, is beyond the
    oracle's reach."""
    scale = float(np.linalg.norm(a, 1))
    if not scale <= 2.0**1022:  # also catches inf and NaN
        raise InstanceTooLarge(f"series exponential of a matrix with norm {scale:.3e}")
    squarings = 0
    if scale > 0.5:
        squarings = int(np.ceil(np.log2(scale / 0.5)))
    b = a / (2.0**squarings)
    term = np.eye(a.shape[0], dtype=np.complex128)
    total = term.copy()
    for k in range(1, 60):
        term = term @ b / k
        total = total + term
        if np.linalg.norm(term, 1) < 1e-20 * max(1.0, np.linalg.norm(total, 1)):
            break
    for _ in range(squarings):
        total = total @ total
    if not np.isfinite(total).all():
        raise InstanceTooLarge(f"series exponential overflows in {squarings} squarings")
    return total


def _constant_spans(
    sched: HamiltonianSchedule, branch: Branch, lo: float, hi: float
) -> list[tuple[np.ndarray, float, float]]:
    """Constant-generator spans of [lo, hi] in increasing time order."""
    sched.require_coverage(lo, hi)
    spans = []
    for piece in sched.pieces_for(branch):
        a, b = max(lo, piece.t_start), min(hi, piece.t_end)
        if b > a:
            spans.append((piece.hamiltonian.mat, a, b))
    return spans


def propagator(
    sched: HamiltonianSchedule, branch: Branch, t_from: float, t_to: float
) -> UnitaryMatrix:
    """Branch propagator assembled from series exponentials only."""
    if t_from == t_to:
        sched.require_coverage(t_from)
        return UnitaryMatrix(np.eye(sched.dim, dtype=np.complex128))
    u = np.eye(sched.dim, dtype=np.complex128)
    for h, a, b in _constant_spans(sched, branch, min(t_from, t_to), max(t_from, t_to)):
        u = _expm_series(-1j * (b - a) * h) @ u
    if t_to < t_from:
        u = u.conj().T
    return UnitaryMatrix(u)


def standard_born(u: UnitaryMatrix, psi: StateVector, phi: StateVector) -> float:
    """Textbook transition probability |<phi| u |psi>|^2."""
    if not u.dim == psi.dim == phi.dim:
        raise DimensionMismatch("standard_born arguments disagree in dimension")
    return float(abs(np.vdot(phi.amps, u.mat @ psi.amps)) ** 2)


def abl_rule(
    u1: UnitaryMatrix,
    u2: UnitaryMatrix,
    psi: StateVector,
    outcomes: Basis,
    phi: StateVector,
) -> list[float]:
    """Textbook pre/post-selected outcome probabilities:
    |<phi|u2|a_i><a_i|u1|psi>|^2, normalized over the basis."""
    if not u1.dim == u2.dim == psi.dim == phi.dim == outcomes.dim:
        raise DimensionMismatch("abl_rule arguments disagree in dimension")
    fwd = u1.mat @ psi.amps
    back = u2.mat.conj().T @ phi.amps
    numerators = [float(abs(np.vdot(back, a.amps) * np.vdot(a.amps, fwd)) ** 2) for a in outcomes]
    denominator = sum(numerators)
    if denominator <= active_tolerances().degenerate_normalizer:
        raise ZeroDenominator("all pre/post-selection numerators vanish")
    return [n / denominator for n in numerators]


def expectation(
    rho: DensityMatrix,
    sched: HamiltonianSchedule,
    t1: float,
    t2: float,
    obs: HermitianOperator,
) -> float:
    """Tr[rho U(t1,t2) obs U(t2,t1)] with the series propagator."""
    if not rho.dim == sched.dim == obs.dim:
        raise DimensionMismatch("expectation arguments disagree in dimension")
    u = propagator(sched, Branch.FORWARD, t1, t2).mat
    value = complex(np.trace(rho.mat @ u.conj().T @ obs.mat @ u))
    if abs(value.imag) > active_tolerances().expectation_imag:
        raise NumericalCheckFailure(
            f"expectation value has imaginary part {value.imag:.3e}"
        )
    return value.real


def _rk4_segment(h: np.ndarray, psi: np.ndarray, t_from: float, t_to: float, steps: int) -> np.ndarray:
    """Fixed-step classical RK4 for d psi / dt = -i h psi over one
    constant-generator span; t_to < t_from integrates backward.

    With h constant, one RK4 step is exactly psi -> R psi with
    R = I + E, E = A + A^2/2 + A^3/6 + A^4/24 and A = -i h dt (the
    method's stability polynomial), so the whole span is R^steps psi.
    The power is taken by binary powering on E alone, never on R:
    (I+E1)(I+E2) = I + (E1 + E2 + E1 E2). Keeping the identity out of the
    products stops its rounding from swamping the small terms.
    """
    a = -1j * ((t_to - t_from) / steps) * h
    a2 = a @ a
    step = a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
    total = np.zeros_like(step)  # E of R^0 = I
    n = steps
    while n:
        if n & 1:
            total = total + step + total @ step
        n >>= 1
        if n:
            step = 2.0 * step + step @ step
    return psi + total @ psi


def _path_weight(sched: HamiltonianSchedule, history: QuantumHistory, steps: int) -> complex:
    """History weight with every segment evolved by stepping instead of
    exponentiating: evolve the state at each segment's start to its end,
    project on the state waiting there, multiply the factors."""
    state_at = {p.t: p.state.amps for p in history.points}
    value = complex(1.0)
    for seg in build_path(history.times):
        psi = state_at[seg.t_from]
        spans = _constant_spans(sched, seg.branch, *seg.interval)
        if seg.t_to < seg.t_from:
            spans = [(h, b, a) for h, a, b in reversed(spans)]
        for h, a, b in spans:
            psi = _rk4_segment(h, psi, a, b, steps)
        value *= complex(np.vdot(state_at[seg.t_to], psi))
    return value


def contour_line_integral(
    sched: HamiltonianSchedule, history: QuantumHistory, steps_per_segment: int
) -> tuple[float, float]:
    """History weight from the stepped line integral, plus a Richardson
    error estimate obtained by comparing against a half-resolution run.

    Each constant-generator span of each segment receives the full step
    budget, so halving the budget exactly halves the resolution.
    """
    if steps_per_segment < 2:
        raise ValidationError("steps_per_segment must be at least 2")
    fine = _path_weight(sched, history, steps_per_segment)
    coarse = _path_weight(sched, history, max(1, steps_per_segment // 2))
    if not (np.isfinite(fine) and np.isfinite(coarse)):
        raise InstanceTooLarge(f"stepped line integral overflows at {steps_per_segment} steps")
    value = fine.real
    # |fine - coarse| bounds the half-resolution error; reporting it for the
    # returned fine value leaves a ~16x safety margin. Floored at rounding noise.
    estimate = abs(fine - coarse) + 64.0 * np.finfo(float).eps * (1.0 + abs(value))
    return value, float(estimate)


def tensor_sink_delta_psi(sched: HamiltonianSchedule, history: QuantumHistory) -> float:
    """Brute-force history weight: build the full stack of time-labeled
    temporal parts, propagate each part with per-slot series exponentials,
    subtract the unpropagated term, and project on the explicit sink state.

    Time labels are separate tensor factors, so parts carrying different
    labels are exactly orthogonal and the unpropagated term's overlap is
    exactly zero (asserted, not approximated). Guarded to tiny instances.
    """
    n, d = history.n_points, history.dim
    if n > 3 or d > 2:
        raise InstanceTooLarge("tensor/sink evaluation is limited to n<=3 fixed points, dim<=2")
    m = n * d  # each slot: time-label block index (x) state index
    states = [p.state.amps for p in history.points]
    times = history.times

    def labeled(idx: int, amp: np.ndarray) -> np.ndarray:
        vec = np.zeros(m, dtype=np.complex128)
        vec[idx * d : (idx + 1) * d] = amp
        return vec

    def shift_op(src: int, dst: int, u: np.ndarray) -> np.ndarray:
        op = np.zeros((m, m), dtype=np.complex128)
        op[dst * d : (dst + 1) * d, src * d : (src + 1) * d] = u
        return op

    sources: list[np.ndarray] = []
    sinks: list[np.ndarray] = []
    ops: list[np.ndarray] = []
    for i in range(n - 1, -1, -1):  # latest time outermost
        # backward part at time i: evolves down to time i-1, none at i=0
        sources.append(labeled(i, states[i]))
        if i > 0:
            u = propagator(sched, Branch.BACKWARD, times[i], times[i - 1]).mat
            ops.append(shift_op(i, i - 1, u))
            sinks.append(labeled(i - 1, states[i - 1]))
        else:
            ops.append(np.eye(m, dtype=np.complex128))
            sinks.append(labeled(0, states[0]))
        # forward part at time i: evolves up to time i+1, none at i=n-1
        sources.append(labeled(i, states[i]))
        if i < n - 1:
            u = propagator(sched, Branch.FORWARD, times[i], times[i + 1]).mat
            ops.append(shift_op(i, i + 1, u))
            sinks.append(labeled(i + 1, states[i + 1]))
        else:
            ops.append(np.eye(m, dtype=np.complex128))
            sinks.append(labeled(i, states[i]))

    def kron_all(vecs: list[np.ndarray]) -> np.ndarray:
        out = vecs[0]
        for v in vecs[1:]:
            out = np.kron(out, v)
        return out

    source = kron_all(sources)
    sink = kron_all(sinks)

    identity_overlap = complex(np.vdot(sink, source))
    if identity_overlap != 0:
        raise NumericalCheckFailure(
            "time-labeled source/sink overlap must vanish identically"
        )

    moved = source.reshape([m] * (2 * n))
    for axis, op in enumerate(ops):
        moved = np.moveaxis(np.tensordot(op, moved, axes=([1], [axis])), 0, axis)
    return complex(np.vdot(sink, moved.reshape(-1))).real
