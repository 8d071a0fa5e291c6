"""Measures of existence from products of conjugate branch amplitudes.

The weight of a history is the product, over consecutive fixed-point
pairs, of the forward amplitude and the matching backward amplitude. With
a branch-independent schedule the two are conjugate, so every weight is a
nonnegative real number; dividing by the sum over the open outcome slots
yields the measure.

One kernel computes every weight: a chain of time-ordered slots, each
holding one or more candidate states, from a source to an optional sink.
The Born rule is the chain with one outcome slot and no sink, the
pre/post-selection (ABL) rule the chain with one outcome slot and a sink,
and longer chains generalize both. Chains are enumerated in full, so the
number of joint outcomes is capped at MAX_JOINTS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import Branch
from .dynamics import HamiltonianSchedule, propagate
from .errors import (
    DegenerateNormalizer,
    DimensionMismatch,
    ImpossiblePostSelection,
    InstanceTooLarge,
    NumericalCheckFailure,
    RealnessViolation,
    ValidationError,
)
from .histories import FixedPoint
from .statespace import Basis, StateVector
from .tolerances import Tolerances, active_tolerances

MAX_JOINTS = 1 << 16  # joint outcomes one chain may enumerate


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Unnormalized weights and normalized measures over an outcome set.

    labels identifies each joint outcome by its tuple of basis indices,
    one per outcome slot; selected marks the queried outcome when the
    caller asked about a single one.
    """

    delta_psi: np.ndarray
    normalizer: float
    measures: np.ndarray
    labels: tuple
    selected: int | None = None

    def __post_init__(self):
        delta = np.asarray(self.delta_psi, dtype=float)
        measures = np.asarray(self.measures, dtype=float)
        delta.setflags(write=False)
        measures.setflags(write=False)
        object.__setattr__(self, "delta_psi", delta)
        object.__setattr__(self, "measures", measures)
        tols = active_tolerances()
        if delta.shape != measures.shape or len(self.labels) != delta.shape[0]:
            raise NumericalCheckFailure("result arrays and labels disagree in length")
        if abs(float(np.sum(delta)) - self.normalizer) > 1e-9 * max(1.0, abs(self.normalizer)):
            raise NumericalCheckFailure("normalizer is not the sum of the weights")
        if float(np.max(np.abs(measures * self.normalizer - delta))) > 1e-9 * max(
            1.0, abs(self.normalizer)
        ):
            raise NumericalCheckFailure("measures are not the weights over the normalizer")
        if abs(float(np.sum(measures)) - 1.0) > tols.measure_sum:
            raise NumericalCheckFailure(
                f"measures sum to {float(np.sum(measures))!r}, not 1"
            )


def _joint_weights(
    sched: HamiltonianSchedule, slots: Sequence[tuple[float, Sequence[StateVector]]]
) -> np.ndarray:
    """Raw complex weights of every joint assignment of the slots' states.

    Entry [i_0, ..., i_n] is the product over consecutive slots of the
    forward amplitude <a_k|U_F|a_{k-1}> and the backward amplitude
    <a_{k-1}|U_B|a_k>. Each segment costs one propagator, and a second
    only when a branch override gives the backward branch its own pieces.
    """
    if len(slots) < 2:
        raise ValidationError("a history weight needs at least two fixed points")
    joints = math.prod(len(states) for _, states in slots)
    if joints > MAX_JOINTS:
        raise InstanceTooLarge(f"{joints} joint outcomes exceed the limit of {MAX_JOINTS}")
    rows = [np.array([s.amps for s in states]) for _, states in slots]
    if any(r.shape[1] != sched.dim for r in rows):
        raise DimensionMismatch(f"slot states must have the schedule's dim {sched.dim}")
    weights = np.ones(len(rows[0]), dtype=np.complex128)
    for (t_a, _), (t_b, _), a, b in zip(slots, slots[1:], rows, rows[1:]):
        u_f = propagate(sched, Branch.FORWARD, t_a, t_b).mat
        if sched.branch_override is None:
            u_b = u_f.conj().T  # what propagate builds for the shared pieces
        else:
            u_b = propagate(sched, Branch.BACKWARD, t_b, t_a).mat
        forward = b.conj() @ (u_f @ a.T)
        backward = a.conj() @ (u_b @ b.T)
        weights = weights[..., None] * (forward.T * backward)
    return weights


def chain_delta_psi(sched: HamiltonianSchedule, points: Sequence[FixedPoint]) -> complex:
    """Raw, possibly complex history weight: the product over consecutive
    pairs of forward and backward amplitudes. Diagnostic entry point; no
    realness filtering, no normalization."""
    return complex(_joint_weights(sched, [(p.t, (p.state,)) for p in points]).item())


def _real_weight(values: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Real parts of the weights, flattened; the first complex or negative
    weight in joint order aborts."""
    bad = (np.abs(values.imag) > tols.realness_abort) | (values.real < -tols.negativity)
    if bad.any():
        value = values.flat[int(np.argmax(bad))]
        if abs(value.imag) > tols.realness_abort:
            raise RealnessViolation(
                f"history weight has imaginary part {value.imag:.3e}; "
                "schedule is branch-inconsistent or numerically broken"
            )
        raise RealnessViolation(f"history weight is negative: {value.real:.3e}")
    return values.real.ravel()


def born_measure(
    sched: HamiltonianSchedule, prep: FixedPoint, t2: float, outcomes: Basis
) -> MeasureResult:
    """Measure over a complete outcome basis at t2 given one preparation."""
    return chain_measure(sched, (prep, None), [(t2, outcomes)], None)


def abl_measure(
    sched: HamiltonianSchedule,
    pre_sel: FixedPoint,
    t: float,
    outcomes: Basis,
    post_sel: FixedPoint,
) -> MeasureResult:
    """Measure over intermediate outcomes between a pre- and a
    post-selection; reproduces the ABL conditional probabilities."""
    return chain_measure(sched, (pre_sel, post_sel), [(t, outcomes)], None)


def chain_measure(
    sched: HamiltonianSchedule,
    endpoints: tuple[FixedPoint, FixedPoint | None],
    interior: Sequence[tuple[float, Basis]],
    selection: Sequence[int] | None,
) -> MeasureResult:
    """General chain: a source, outcome slots, and an optional sink
    (None leaves the chain open after its last slot). Every joint
    assignment of the slots is enumerated, with the requested selection
    marked when one is given. No sink with one slot is the Born measure,
    a sink with one slot the ABL measure, a sink with none the pair
    weight."""
    src, snk = endpoints
    slots = [(src.t, (src.state,)), *((float(t), basis) for t, basis in interior)]
    if snk is not None:
        slots.append((snk.t, (snk.state,)))
    if any(a >= b for (a, _), (b, _) in zip(slots, slots[1:])):
        raise ValidationError("slot times must increase strictly from source to sink")
    if selection is not None:
        if len(selection) != len(interior):
            raise ValidationError(
                f"selection has {len(selection)} entries for {len(interior)} interior slots"
            )
        for k, (idx, (_, basis)) in enumerate(zip(selection, interior)):
            if not 0 <= idx < len(basis):
                raise ValidationError(f"selection[{k}]={idx} out of range for its basis")
    tols = active_tolerances()
    delta = _real_weight(_joint_weights(sched, slots), tols)
    normalizer = float(np.sum(delta))
    if normalizer <= tols.degenerate_normalizer:
        if snk is None:
            raise DegenerateNormalizer(
                "outcome weights sum to zero; the outcome set cannot be complete"
            )
        raise ImpossiblePostSelection(
            "post-selection is unreachable from the preparation through any outcome"
        )
    joints = list(itertools.product(*(range(len(basis)) for _, basis in interior)))
    return MeasureResult(
        delta_psi=delta,
        normalizer=normalizer,
        measures=delta / normalizer,
        labels=tuple(joints),
        selected=None if selection is None else joints.index(tuple(selection)),
    )
