"""Dense complex linear algebra on small Hilbert spaces.

A state is a plain complex128 vector: a fixed point keeps a read-only
copy, and `is_unit` checks its norm where it must be 1. Orthonormal bases,
Hermitian generators, and unitaries are thin immutable wrappers around
complex128 ndarrays whose invariants are enforced at construction; a basis
is one matrix, one row per element. Matrix exponentials of Hermitian
generators go through the eigendecomposition, which keeps the result
unitary to rounding. Each generator computes its eigendecomposition once,
and the engine's exponentials are plain arrays: `dynamics.propagate`
multiplies them and checks unitarity once, on the propagator it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .tolerances import active_tolerances


def _frozen_array(data, *, ndim: int, what: str, order: str = "K") -> np.ndarray:
    arr = np.array(data, dtype=np.complex128, copy=True, order=order)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{what} must be a nonempty {ndim}-D complex array")
    if not np.all(np.isfinite(arr)):
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

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors (read-only), computed on first use."""
        w, v = np.linalg.eigh(self.mat)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    mat: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.mat, ndim=2, what="unitary matrix")
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError("unitary matrix must be square")
        residual = unitarity_defect(arr)
        tol = active_tolerances().unitary
        if residual > tol:
            raise ValidationError(
                f"matrix is not unitary: ||U^H U - I||_F = {residual:.3e} > {tol:.1e}"
            )
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


def expm_hermitian(h: HermitianOperator, s: float) -> np.ndarray:
    """exp(-i*s*h) by spectral synthesis from the generator's cached
    spectrum. The result is a plain array, unitary to rounding; the
    propagator built from it is checked once, in `dynamics.propagate`."""
    w, v = h.spectrum
    phases = np.exp(-1j * s * w)
    return (v * phases) @ v.conj().T


def is_unit(v: np.ndarray) -> bool:
    """Whether a state has unit norm within the active state_norm tolerance."""
    return abs(float(np.linalg.norm(v)) - 1.0) <= active_tolerances().state_norm


def unitarity_defect(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))


def standard_basis(dim: int) -> Basis:
    return Basis(np.eye(dim))
