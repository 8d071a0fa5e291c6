"""Dense complex linear algebra on small Hilbert spaces.

A state is a plain complex128 vector: a fixed point keeps a read-only
copy, and `is_unit` checks its norm where it must be 1. Orthonormal bases,
Hermitian generators, and unitaries are one checked-matrix type, a
read-only C-contiguous complex128 copy whose invariant is enforced at
construction; a basis is one matrix, one row per element. Matrix
exponentials of Hermitian generators go through the eigendecomposition,
which keeps the result unitary to rounding; `expm_hermitian` forms a stack
of them at once. Each invariant has one rule; it decides a whole stack
(`hermitians`, `unitaries`) at once, and one matrix as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tolerances import active_tolerances


def _frozen_array(data, *, ndim: int, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{what} must be a nonempty {ndim}-D complex array")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_hermitian(stack: np.ndarray) -> None:
    """HermitianOperator's rule, ||M - M^H||_F <= tol * max(1, ||M||_F), for
    each matrix of a finite square (K, d, d) stack, both norms from one
    stacked product; the first that fails names the error."""
    tol = active_tolerances().hermitian
    with np.errstate(over="ignore", invalid="ignore"):  # a huge norm is inf or NaN
        flat = np.concatenate((stack, stack - stack.conj().swapaxes(1, 2))).reshape(2, len(stack), 1, -1)
        norms, defects = np.sqrt((flat.conj() @ flat.swapaxes(2, 3)).real.reshape(2, -1))
        scales = np.maximum(1.0, norms)
        bad = ~np.isfinite(scales) | (defects > tol * scales)
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(scales[k]):
            raise ValidationError("Hermitian operator has a non-finite norm")
        raise ValidationError(
            f"operator is not Hermitian: defect {defects[k]:.3e} exceeds {tol:.1e} * {scales[k]:.3e}"
        )


def _check_unitary(stack: np.ndarray) -> None:
    """UnitaryMatrix's rule for each matrix of a finite square (K, d, d) stack;
    the first that fails names the error, its defect as `unitarity_defect` has it."""
    tol = active_tolerances().unitary
    with np.errstate(over="ignore", invalid="ignore"):  # a huge defect is inf or NaN
        gram = np.swapaxes(stack.conj(), 1, 2) @ stack
        gram -= np.eye(stack.shape[2])  # Frobenius norms, as numpy's norm forms them
        bad = ~(np.sqrt(np.add.reduce((gram.conj() * gram).real, axis=(1, 2))) <= tol)
        if not bad.any():
            return
        residual = unitarity_defect(stack[int(np.argmax(bad))])
    raise ValidationError(f"matrix is not unitary: ||U^H U - I||_F = {residual:.3e} > {tol:.1e}")


def _check_orthonormal(stack: np.ndarray) -> None:
    """Basis's rule for a finite square (K, d, d) stack of row matrices R:
    every entry of |R* R^T - I| over the stack is within basis_orthonormal."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge defect is inf or NaN
        defect = float(np.abs(stack.conj() @ stack.swapaxes(1, 2) - np.eye(stack.shape[2])).max())
    if not defect <= active_tolerances().basis_orthonormal:
        raise ValidationError("basis elements are not orthonormal within tolerance")


@dataclass(frozen=True, eq=False)
class _CheckedMatrix:
    """A read-only complex128 square matrix; a subclass names it (`_what`)
    and gives the rule (`_check`) that decides a stack of them at once.
    Subclasses are not decorated again, which would cost import time: they
    inherit the frozen field."""

    mat: np.ndarray

    @classmethod
    def _checked(cls, data, ndim: int) -> np.ndarray:
        arr = _frozen_array(data, ndim=ndim, what=cls._what)
        if arr.shape[-1] != arr.shape[-2]:
            raise ValidationError(f"{cls._what} must be square")
        cls._check(arr if ndim == 3 else arr[np.newaxis])
        return arr

    @classmethod
    def _stack(cls, stack) -> tuple:
        arr = cls._checked(stack, 3)
        out = tuple(object.__new__(cls) for _ in arr)
        for value, mat in zip(out, arr):
            object.__setattr__(value, "mat", mat)
        return out

    def __post_init__(self):
        object.__setattr__(self, "mat", self._checked(self.mat, 2))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)


class HermitianOperator(_CheckedMatrix):
    _what = "Hermitian operator"
    _check = staticmethod(_check_hermitian)


class UnitaryMatrix(_CheckedMatrix):
    _what = "unitary matrix"
    _check = staticmethod(_check_unitary)


class Basis(_CheckedMatrix):
    """Complete orthonormal basis: its rows are its elements."""

    _what = "basis"
    _check = staticmethod(_check_orthonormal)

    @property
    def rows(self) -> np.ndarray:
        return self.mat

    def __len__(self) -> int:
        return self.mat.shape[0]


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


def unitaries(stack) -> tuple[UnitaryMatrix, ...]:
    """A (K, d, d) stack as UnitaryMatrix values: one read-only copy,
    checked once for the whole stack instead of once per matrix."""
    return UnitaryMatrix._stack(stack)


def hermitians(stack) -> tuple[HermitianOperator, ...]:
    """A (P, d, d) stack as HermitianOperator values, as `unitaries` makes them."""
    return HermitianOperator._stack(stack)


def expm_hermitian(w: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(-i s_k h_k) for a stack of generators h_k = v_k diag(w_k) v_k^H
    given by eigenvalues w (S, d), eigenvectors v (S, d, d) and durations
    s (S,): one exp and one broadcast product, each slice the arithmetic of
    (v * exp(-i s w)) @ v^H alone. Plain arrays, unitary to rounding."""
    phases = np.exp(-1j * s[:, np.newaxis] * w)
    return (v * phases[:, np.newaxis, :]) @ np.swapaxes(v.conj(), 1, 2)


def _flat_norm(a: np.ndarray) -> np.float64:
    """numpy's norm of a float or complex array, by the reduction it ends in, bit for bit."""
    x = a.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def is_unit(v: np.ndarray) -> bool:
    """Whether a state has unit norm within the active state_norm tolerance."""
    return abs(float(_flat_norm(v)) - 1.0) <= active_tolerances().state_norm


def unitarity_defect(mat: np.ndarray) -> float:
    return float(_flat_norm(mat.conj().T @ mat - np.eye(mat.shape[0])))


def standard_basis(dim: int) -> Basis:
    return Basis(np.eye(dim))
