"""Dense complex linear algebra on small Hilbert spaces.

A state is a plain complex128 vector: a fixed point keeps a read-only
copy, and `is_unit` checks its norm where it must be 1. Orthonormal bases,
Hermitian generators, and unitaries are thin immutable wrappers around
complex128 ndarrays whose invariants are enforced at construction; a basis
is one matrix, one row per element. Matrix exponentials of Hermitian
generators go through the eigendecomposition, which keeps the result
unitary to rounding; `expm_hermitian` forms a stack of them at once. A
stack of propagators is checked for unitarity once (`unitaries`), and a
stack of generators for Hermiticity once (`hermitians`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tolerances import active_tolerances


def _frozen_array(data, *, ndim: int, what: str, order: str = "K") -> np.ndarray:
    arr = np.array(data, dtype=np.complex128, copy=True, order=order)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{what} must be a nonempty {ndim}-D complex array")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    mat: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.mat, ndim=2, what="Hermitian operator")
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError("Hermitian operator must be square")
        tols = active_tolerances()
        with np.errstate(over="ignore"):
            scale = max(1.0, float(np.linalg.norm(arr)))
            defect = float(np.linalg.norm(arr - arr.conj().T))
        if not np.isfinite(scale):
            raise ValidationError("Hermitian operator has a non-finite norm")
        if defect > tols.hermitian * scale:
            raise ValidationError(
                f"operator is not Hermitian: defect {defect:.3e} exceeds "
                f"{tols.hermitian:.1e} * {scale:.3e}"
            )
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    mat: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.mat, ndim=2, what="unitary matrix")
        _check_unitary(arr[np.newaxis])
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)


@dataclass(frozen=True, eq=False)
class Basis:
    """Complete orthonormal basis held as one read-only (d, d) matrix whose
    rows are its elements: Gram matrix rows* rows^T = I within the active
    basis_orthonormal tolerance."""

    rows: np.ndarray

    def __post_init__(self):
        rows = _frozen_array(self.rows, ndim=2, what="basis", order="C")
        dim = rows.shape[1]
        if rows.shape[0] != dim:
            raise ValidationError(
                f"basis of a {dim}-dimensional space needs {dim} elements, got {rows.shape[0]}"
            )
        gram = rows.conj() @ rows.T
        if float(np.max(np.abs(gram - np.eye(dim)))) > active_tolerances().basis_orthonormal:
            raise ValidationError("basis elements are not orthonormal within tolerance")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


def _check_unitary(stack: np.ndarray) -> None:
    """UnitaryMatrix's rule for each matrix of a finite (K, d, d) stack; the
    first that fails names the error, its defect as `unitarity_defect` has it."""
    if stack.shape[1] != stack.shape[2]:
        raise ValidationError("unitary matrix must be square")
    tol = active_tolerances().unitary
    with np.errstate(over="ignore", invalid="ignore"):  # a huge defect is inf or NaN
        gram = np.swapaxes(stack.conj(), 1, 2) @ stack
        bad = np.linalg.norm(gram - np.eye(stack.shape[2]), axis=(1, 2)) > tol
    if bad.any():
        residual = unitarity_defect(stack[int(np.argmax(bad))])
        raise ValidationError(f"matrix is not unitary: ||U^H U - I||_F = {residual:.3e} > {tol:.1e}")


def _wrap(cls, arr: np.ndarray) -> tuple:
    """Each matrix of a checked stack as a cls value, without re-checking it."""
    out = tuple(object.__new__(cls) for _ in arr)
    for value, mat in zip(out, arr):
        object.__setattr__(value, "mat", mat)
    return out


def unitaries(stack) -> tuple[UnitaryMatrix, ...]:
    """A (K, d, d) stack as UnitaryMatrix values: one read-only copy,
    checked once for the whole stack instead of once per matrix."""
    arr = _frozen_array(stack, ndim=3, what="unitary matrix")
    _check_unitary(arr)
    return _wrap(UnitaryMatrix, arr)


def hermitians(stack) -> tuple[HermitianOperator, ...]:
    """A finite (P, d, d) stack as HermitianOperator values: one read-only
    copy and one Hermiticity test for the whole stack. It sums squares in
    another order than HermitianOperator, so where the two could disagree
    (a defect past half the bound, a norm near overflow, a tolerance whose
    square is subnormal) each matrix is judged by HermitianOperator itself,
    and the first that fails names the error."""
    arr = _frozen_array(stack, ndim=3, what="Hermitian operator")
    if arr.shape[1] != arr.shape[2]:
        raise ValidationError("Hermitian operator must be square")
    tol = active_tolerances().hermitian
    with np.errstate(over="ignore", invalid="ignore"):
        flat = np.concatenate((arr, arr - arr.conj().swapaxes(1, 2))).reshape(2, len(arr), 1, -1)
        squares = (flat.conj() @ flat.swapaxes(2, 3)).real.reshape(2, -1)
        norms, defects = squares[0], squares[1]  # squared
        bounds = tol * tol / 4 * np.maximum(1.0, norms)
        clear = tol >= 2.0**-500 and (defects <= bounds).all() and norms.max() < 2.0**1000
    if not clear:
        for mat in arr:
            HermitianOperator(mat)
    return _wrap(HermitianOperator, arr)


def expm_hermitian(w: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(-i s_k h_k) for a stack of generators h_k = v_k diag(w_k) v_k^H
    given by eigenvalues w (S, d), eigenvectors v (S, d, d) and durations
    s (S,): one exp and one broadcast product, each slice the arithmetic of
    (v * exp(-i s w)) @ v^H alone. Plain arrays, unitary to rounding."""
    phases = np.exp(-1j * s[:, np.newaxis] * w)
    return (v * phases[:, np.newaxis, :]) @ np.swapaxes(v.conj(), 1, 2)


def is_unit(v: np.ndarray) -> bool:
    """Whether a state has unit norm within the active state_norm tolerance."""
    return abs(float(np.linalg.norm(v)) - 1.0) <= active_tolerances().state_norm


def unitarity_defect(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))


def standard_basis(dim: int) -> Basis:
    return Basis(np.eye(dim))
