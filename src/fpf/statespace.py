"""Dense complex linear algebra on small Hilbert spaces.

States, orthonormal bases, Hermitian generators, and unitaries are thin
immutable wrappers around complex128 ndarrays; invariants are enforced at
construction. Matrix exponentials of Hermitian generators go through the
eigendecomposition, which keeps the result unitary to rounding. Each
generator computes its eigendecomposition once, and the engine's
exponentials are plain arrays: `dynamics.propagate` multiplies them and
checks unitarity once, on the propagator it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .tolerances import active_tolerances


def _frozen_array(data, *, ndim: int, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128, copy=True)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{what} must be a nonempty {ndim}-D complex array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A vector of complex amplitudes; unit norm is enforced where it matters
    (fixed points, basis elements), not here."""

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _frozen_array(self.amps, ndim=1, what="state vector"))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self) -> bool:
        return abs(self.norm - 1.0) <= active_tolerances().state_norm

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return np.array_equal(self.amps, other.amps)


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
    """Complete orthonormal basis: exactly dim elements, Gram matrix = I."""

    elements: tuple[StateVector, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValidationError("basis needs at least one element")
        dim = elems[0].dim
        if any(e.dim != dim for e in elems):
            raise DimensionMismatch("basis elements have differing dimensions")
        if len(elems) != dim:
            raise ValidationError(
                f"basis of a {dim}-dimensional space needs {dim} elements, got {len(elems)}"
            )
        if not check_basis(elems):
            raise ValidationError("basis elements are not orthonormal within tolerance")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> StateVector:
        return self.elements[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self.elements == other.elements


def check_basis(elements: Iterable[StateVector]) -> bool:
    """True iff the elements form a complete orthonormal basis within the
    active basis_orthonormal tolerance.

    Returns False on any failure (wrong count, non-orthonormal); validating
    wrappers such as Basis raise instead.
    """
    elems = list(elements)
    if not elems:
        return False
    dim = elems[0].dim
    if len(elems) != dim or any(e.dim != dim for e in elems):
        return False
    rows = np.vstack([e.amps for e in elems])
    gram = rows.conj() @ rows.T
    return float(np.max(np.abs(gram - np.eye(dim)))) <= active_tolerances().basis_orthonormal


def expm_hermitian(h: HermitianOperator, s: float) -> np.ndarray:
    """exp(-i*s*h) by spectral synthesis from the generator's cached
    spectrum. The result is a plain array, unitary to rounding; the
    propagator built from it is checked once, in `dynamics.propagate`."""
    w, v = h.spectrum
    phases = np.exp(-1j * s * w)
    return (v * phases) @ v.conj().T


def unitarity_defect(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))


def basis_state(dim: int, k: int) -> StateVector:
    if not 0 <= k < dim:
        raise ValidationError(f"basis index {k} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[k] = 1.0
    return StateVector(amps)


def standard_basis(dim: int) -> Basis:
    return Basis(tuple(basis_state(dim, k) for k in range(dim)))
