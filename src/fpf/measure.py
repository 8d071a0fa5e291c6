"""Measures of existence from products of conjugate branch amplitudes.

A chain is a source, time-ordered outcome slots and an optional sink,
each slot holding its candidate states as the rows of a 2-D array. For
consecutive slots a at t_a and b at t_b > t_a, one kernel forms the
segment's amplitudes forward[j, i] = <b_j|U_F(t_a -> t_b)|a_i> on the
forward branch and backward[i, j] = <a_i|U_B(t_b -> t_a)|b_j> on the
backward branch, run back in time. M = forward.T * backward (elementwise)
holds the segment's weights: a history's weight is the product of
M_k[i_k-1, i_k] along it, and all joint weights sum to 1^T M_1 ... M_n 1.
With a branch-independent schedule the two amplitudes are conjugate, so
every weight is a nonnegative real number; dividing by the sum over the
open outcome slots yields the measure. Chains are enumerated in full, so
the number of joint outcomes is capped at MAX_JOINTS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import Branch
from .dynamics import HamiltonianSchedule, propagators
from .errors import (
    DegenerateNormalizer,
    ImpossiblePostSelection,
    InstanceTooLarge,
    NumericalCheckFailure,
    RealnessViolation,
    ValidationError,
)
from .histories import FixedPoint
from .statespace import Basis
from .tolerances import Tolerances, active_tolerances

MAX_JOINTS = 1 << 16  # joint outcomes one chain may enumerate


class JointLabels(tuple):
    """The joint outcomes of slots of the given sizes (each at least 1),
    as tuples of basis indices in row-major order: an immutable odometer."""

    __slots__ = ()

    def __new__(cls, sizes: Sequence[int]) -> JointLabels:
        return super().__new__(cls, itertools.product(*map(range, sizes)))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild it from its sizes
        return (self.sizes,)

    @property
    def sizes(self) -> tuple[int, ...]:  # the last row's indices, plus one
        return tuple(i + 1 for i in self[-1])


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Unnormalized weights and normalized measures over an outcome set.

    labels identifies each joint outcome by its tuple of basis indices,
    one per outcome slot (JointLabels from chain_measure); selected marks
    the queried outcome when the caller asked about a single one.
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
        bound = 1e-9 * max(1.0, abs(self.normalizer))  # each check is "not x <= bound": a NaN fails
        if not abs(float(delta.sum()) - self.normalizer) <= bound:
            raise NumericalCheckFailure("normalizer is not the sum of the weights")
        if not float(np.abs(measures * self.normalizer - delta).max()) <= bound:
            raise NumericalCheckFailure("measures are not the weights over the normalizer")
        total = float(measures.sum())
        if not abs(total - 1.0) <= tols.measure_sum:
            raise NumericalCheckFailure(f"measures sum to {total!r}, not 1")


def _segment_amplitudes(
    sched: HamiltonianSchedule, slots: Sequence[tuple[float, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per consecutive slot pair (a, b), forward = b* U_F(t_a -> t_b) a^T and
    backward = a* U_B(t_b -> t_a) b^T, indexed as in the module docstring:
    one stacked propagator pass, and a second under a branch override."""
    if any(states.shape[1] != sched.dim for _, states in slots):
        raise ValidationError(f"slot states must have the schedule's dim {sched.dim}")
    times = [t for t, _ in slots]
    forward_us = propagators(sched, Branch.FORWARD, times)
    backward_us = propagators(sched, Branch.BACKWARD, times) if sched.branch_override else forward_us
    return [
        (b.conj() @ (u_f.mat @ a.T), a.conj() @ (u_b.mat.conj().T @ b.T))
        for (_, a), (_, b), u_f, u_b in zip(slots, slots[1:], forward_us, backward_us)
    ]


def _joint_weights(
    sched: HamiltonianSchedule, slots: Sequence[tuple[float, np.ndarray]]
) -> np.ndarray:
    """Raw complex weights of every joint assignment of the slots' states,
    flat in joint order: the products of M_k = forward.T * backward."""
    if len(slots) < 2:
        raise ValidationError("a history weight needs at least two fixed points")
    joints = math.prod(len(states) for _, states in slots)
    if joints > MAX_JOINTS:
        raise InstanceTooLarge(f"{joints} joint outcomes exceed the limit of {MAX_JOINTS}")
    weights = np.ones((1, len(slots[0][1])), dtype=np.complex128)  # joints so far x states
    for forward, backward in _segment_amplitudes(sched, slots):
        weights = (weights[..., None] * (forward.T * backward)).reshape(-1, len(forward))
    return weights.ravel()


def chain_delta_psi(sched: HamiltonianSchedule, points: Sequence[FixedPoint]) -> complex:
    """Raw, possibly complex history weight: the product over consecutive
    pairs of forward and backward amplitudes. Diagnostic entry point; no
    realness filtering, no normalization."""
    return complex(_joint_weights(sched, [(p.t, p.state[None]) for p in points]).item())


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
    slots = [(src.t, src.state[None]), *((float(t), basis.rows) for t, basis in interior)]
    if snk is not None:
        slots.append((snk.t, snk.state[None]))
    if any(a >= b for (a, _), (b, _) in zip(slots, slots[1:])):
        raise ValidationError("slot times must increase strictly from source to sink")
    selected = None
    if selection is not None:
        if len(selection) != len(interior):
            raise ValidationError(
                f"selection has {len(selection)} entries for {len(interior)} interior slots"
            )
        selected = 0  # the joint's row-major position, by mixed radix
        for k, (idx, (_, basis)) in enumerate(zip(selection, interior)):
            if not 0 <= idx < len(basis):
                raise ValidationError(f"selection[{k}]={idx} out of range for its basis")
            selected = selected * len(basis) + int(idx)
    tols = active_tolerances()
    delta = _real_weight(_joint_weights(sched, slots), tols)
    normalizer = float(delta.sum())
    if normalizer <= tols.degenerate_normalizer:
        if snk is None:
            raise DegenerateNormalizer(
                "outcome weights sum to zero; the outcome set cannot be complete"
            )
        raise ImpossiblePostSelection(
            "post-selection is unreachable from the preparation through any outcome"
        )
    return MeasureResult(
        delta_psi=delta,
        normalizer=normalizer,
        measures=delta / normalizer,
        labels=JointLabels([len(basis) for _, basis in interior]),
        selected=selected,
    )
