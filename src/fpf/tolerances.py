"""Central numerical tolerance record.

Every threshold used by the engine's constructors, checks and measure
evaluation lives in one frozen record so tests can tighten or loosen all
of them uniformly. Values are absolute unless noted, and every value must
be a finite number >= 0: a NaN threshold would silently switch off each
check written as `residual > tol`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace

from .errors import SchemaError, ValidationError


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
    oracle_agreement: float = 1e-12    # |engine - oracle|, x max(1, |weight|) for chains


_FIELD_NAMES = frozenset(f.name for f in fields(Tolerances))

# the tolerances in effect, per thread and per asyncio task
_active: ContextVar[Tolerances] = ContextVar("tolerances", default=Tolerances())
active_tolerances = _active.get


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


def block_overrides(block) -> dict[str, float]:
    """The checked overrides of a scenario file's `tolerances` block; {}
    when it is absent (None). A block that is not an object, an unknown
    field or a value that is not a JSON number is a SchemaError; a number
    or boolean that is not finite and >= 0 is a ValidationError."""
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise SchemaError("scenario.tolerances: expected an object")
    overrides = {}
    for key, value in block.items():
        if key not in _FIELD_NAMES:
            raise SchemaError(f"tolerances.{key}: unknown tolerance field")
        try:
            overrides[key] = tolerance_value(key, value)
        except ValueError as exc:
            # bools are ints in Python: they are out of range, not mistyped
            error = ValidationError if isinstance(value, (int, float)) else SchemaError
            raise error(str(exc)) from None
    return overrides


def tolerance_overrides(**overrides: float):
    """Context manager temporarily replacing selected tolerance fields;
    unknown field names and out-of-range values raise ValueError eagerly,
    before entry."""
    return _override_context(checked_overrides(overrides)) if overrides else nullcontext(_active.get())


@contextmanager
def _override_context(overrides: dict[str, float]):
    token = _active.set(replace(_active.get(), **overrides))
    try:
        yield _active.get()
    finally:
        _active.reset(token)
