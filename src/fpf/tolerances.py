"""Central numerical tolerance record.

Every threshold used by constructors, checks, and the measure evaluation
lives in one frozen record so tests can tighten or loosen all of them
uniformly. Values are absolute unless noted, and every value must be a
finite number >= 0: a NaN threshold would silently switch off each check
written as `residual > tol`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    state_norm: float = 1e-12          # | ||v|| - 1 | for fixed points / basis elements
    basis_orthonormal: float = 1e-10   # max |Gram - I| entrywise
    hermitian: float = 1e-12           # ||M - M^H||_F relative to max(1, ||M||_F)
    unitary: float = 1e-10             # ||U^H U - I||_F
    schedule_gap: float = 1e-9         # piece contiguity / coverage slack
    realness_abort: float = 1e-9       # |Im dPsi| above this aborts the query
    negativity: float = 1e-12          # Re dPsi below -this aborts the query
    degenerate_normalizer: float = 1e-14
    measure_sum: float = 1e-10         # | sum(measures) - 1 |
    density_hermitian: float = 1e-12
    density_trace: float = 1e-12
    density_eigen_floor: float = 1e-10  # eigenvalues of a density matrix >= -this
    expectation_imag: float = 1e-12


_FIELD_NAMES = frozenset(f.name for f in fields(Tolerances))

_active = Tolerances()


def active_tolerances() -> Tolerances:
    return _active


def tolerance_value(name: str, value) -> float:
    """value as a threshold for the named field; anything but a finite
    number >= 0 (bools included) raises ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"tolerances.{name}: expected a finite number >= 0, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(
            f"tolerances.{name}: expected a finite number >= 0, got an integer beyond float range"
        ) from None
    if not 0 <= number < math.inf:
        raise ValueError(f"tolerances.{name}: expected a finite number >= 0, got {value!r}")
    return number


def checked_overrides(overrides: dict) -> dict[str, float]:
    """overrides with every value a threshold; an unknown field name or an
    out-of-range value raises ValueError."""
    unknown = set(overrides) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
    return {name: tolerance_value(name, v) for name, v in overrides.items()}


def tolerance_overrides(**overrides: float):
    """Context manager temporarily replacing selected tolerance fields.

    Unknown field names and out-of-range values raise ValueError eagerly,
    before entry.
    """
    return _override_context(checked_overrides(overrides))


@contextmanager
def _override_context(overrides: dict[str, float]):
    global _active
    previous = _active
    _active = replace(previous, **overrides)
    try:
        yield _active
    finally:
        _active = previous
