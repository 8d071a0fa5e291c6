"""Textbook oracles that only the tests use.

The brute-force tensor/sink weight (acceptance criterion 5), the density
matrix and its expectation value (criterion 10), and the per-span RK4
reference that the stacked line integral is compared with. No command
runs them, so they live beside the tests instead of in `fpf.oracle`.
They derive their propagation as `fpf.oracle` does, through its series
`propagator` and its RK4 `_rk4_maps`, and share no propagator code with
the engine; `TestIndependence` walks this module as it walks `oracle.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fpf.contour import Branch
from fpf.dynamics import HamiltonianSchedule
from fpf.errors import InstanceTooLarge, NumericalCheckFailure, ValidationError
from fpf.oracle import _rk4_maps, propagator
from fpf.statespace import FixedPoint, HermitianOperator

# Fixed bounds of the density-matrix checks: no command builds a density
# matrix or an expectation value, so no invocation has one to override.
DENSITY_HERMITIAN = 1e-12
DENSITY_TRACE = 1e-12
DENSITY_EIGEN_FLOOR = 1e-10  # eigenvalues of a density matrix >= -this
EXPECTATION_IMAG = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    mat: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mat, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("density matrix must be square")
        if np.linalg.norm(arr - arr.conj().T) > DENSITY_HERMITIAN:
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(arr).real - 1.0) > DENSITY_TRACE:
            raise ValidationError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(arr)) < -DENSITY_EIGEN_FLOOR:
            raise ValidationError("density matrix has a negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_state(cls, v: np.ndarray) -> "DensityMatrix":
        return cls(np.outer(v, v.conj()))


def expectation(
    rho: DensityMatrix,
    sched: HamiltonianSchedule,
    t1: float,
    t2: float,
    obs: HermitianOperator,
) -> float:
    """Tr[rho U(t1,t2) obs U(t2,t1)] with the series propagator."""
    if not rho.dim == sched.dim == obs.dim:
        raise ValidationError("expectation arguments disagree in dimension")
    u = propagator(sched, Branch.FORWARD, t1, t2).mat
    value = complex(np.trace(rho.mat @ u.conj().T @ obs.mat @ u))
    if abs(value.imag) > EXPECTATION_IMAG:
        raise NumericalCheckFailure(
            f"expectation value has imaginary part {value.imag:.3e}"
        )
    return value.real


def _rk4_segment(h: np.ndarray, psi: np.ndarray, t_from: float, t_to: float, steps: int) -> np.ndarray:
    """Fixed-step classical RK4 for d psi / dt = -i h psi over one
    constant-generator span; t_to < t_from integrates backward. With h
    constant, one RK4 step is exactly psi -> R psi, so the whole span is
    R^steps psi: the one-span case of `_rk4_maps`."""
    a = -1j * ((t_to - t_from) / steps) * h
    return psi + _rk4_maps(a[np.newaxis], steps)[0] @ psi


def tensor_sink_delta_psi(sched: HamiltonianSchedule, history: tuple[FixedPoint, ...]) -> float:
    """Brute-force history weight: build the full stack of time-labeled
    temporal parts, propagate each part with per-slot series exponentials,
    subtract the unpropagated term, and project on the explicit sink state.

    Time labels are separate tensor factors, so parts carrying different
    labels are exactly orthogonal and the unpropagated term's overlap is
    exactly zero (asserted, not approximated). Guarded to tiny instances.
    """
    n, d = len(history), len(history[0].state)
    if n > 3 or d > 2:
        raise InstanceTooLarge("tensor/sink evaluation is limited to n<=3 fixed points, dim<=2")
    m = n * d  # each slot: time-label block index (x) state index
    states = [p.state for p in history]
    times = [p.t for p in history]

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
