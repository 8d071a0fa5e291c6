"""Independent textbook checks for the measure engine.

Everything here re-derives its own propagation: exponentials come from one
scaled power series over stacked spans instead of the eigendecomposition,
and the line integral integrates the branch Schrodinger equation with
classical RK4. None of it shares propagator code with the dynamics module.
Oracles that only the tests use (the tensor/sink weight, the density
matrix and its expectation value) live in tests/oracles.py.

On a constant-generator span the line integral applies RK4's one-step
map R^n, with R = I + E and E = R - I kept separate through the binary
powering; that is n classical RK4 steps, to rounding. Each interval
between history times is stepped forward once per distinct branch
Hamiltonian, a backward leg being the adjoint of a forward one, and all
those spans at both resolutions are powered together in O(log n) numpy
calls. It uses sums and products of the generator only, never an exact
exponential, so its Richardson error estimate still measures RK4's
truncation error; spans too long for that estimate to hold are refused.
"""

from __future__ import annotations

import math

import numpy as np

from .contour import Branch
from .dynamics import HamiltonianSchedule
from .errors import ImpossiblePostSelection, InstanceTooLarge, ValidationError
from .statespace import Basis, FixedPoint, UnitaryMatrix, unitaries


def _squarings(s: float) -> int:
    """The fewest n with s / 2**n <= 0.5, for s > 0.5, exactly: s = m * 2**e with 0.5 <= m < 1."""
    m, e = math.frexp(s)
    return e + (m != 0.5)


def _expm_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a (S, d, d) stack by scaling, one truncated
    power series, and repeated squaring, slow and boring on purpose; each
    span gets its own scale guard and squaring count, as if alone. A span
    too large for 2**squarings, or whose result overflows, is beyond the
    oracle's reach; the first such span names the error.

    After scaling, ||b||_1 <= 0.5 for each span. The 1-norm is
    submultiplicative, so the terms after the 17th sum to at most
    sum_{k>=18} 0.5^k / k!, and since each of those bounds is at most
    0.5/19 of the one before, that tail is below (19/18.5) * 0.5^18 / 18!
    < 1e-21 per span. That is far below rounding in a sum whose leading
    term is I, so a fixed 17 terms need no per-term stopping test."""
    scales = abs(a).sum(axis=1).max(axis=1).tolist()  # 1-norms, as numpy's norm forms them
    squarings = [_squarings(s) if 0.5 < s <= 2.0**1022 else 0 for s in scales]
    b = a / np.array([2.0**n for n in squarings])[:, np.newaxis, np.newaxis]
    b[[not s <= 2.0**1022 for s in scales]] = 0.0  # summed as zero, then refused below
    # summed and squared in place, in buffers made once
    total = np.repeat(np.eye(a.shape[1], dtype=np.complex128)[np.newaxis], len(a), axis=0)
    term, spare = total.copy(), np.empty_like(total)
    for k in range(1, 18):
        np.divide(np.matmul(term, b, out=spare), k, out=term)
        total += term
    for n in range(max(squarings, default=0)):
        if n < min(squarings):  # every span still squares: the whole stack at once
            total, spare = np.matmul(total, total, out=spare), total
        else:
            which = [i for i, count in enumerate(squarings) if count > n]
            total[which] = total[which] @ total[which]
    for s, n, finite in zip(scales, squarings, np.isfinite(total).all(axis=(1, 2))):
        if not s <= 2.0**1022:  # also catches inf and NaN
            raise InstanceTooLarge(f"series exponential of a matrix with norm {s:.3e}")
        if not finite:
            raise InstanceTooLarge(f"series exponential overflows in {n} squarings")
    return total


def _constant_spans(
    sched: HamiltonianSchedule, branch: Branch, lo: float, hi: float
) -> list[tuple[np.ndarray, float, float]]:
    """Constant-generator spans of [lo, hi] in increasing time order."""
    sched.require_coverage(lo, hi)
    return _spans_of(sched.pieces_for(branch), lo, hi)


def _spans_of(pieces, lo: float, hi: float) -> list[tuple[np.ndarray, float, float]]:
    """`_constant_spans` over a branch's pieces, its coverage already checked."""
    spans = []
    for piece in pieces:
        a, b = max(lo, piece.t_start), min(hi, piece.t_end)
        if b > a:
            spans.append((piece.hamiltonian.mat, a, b))
    return spans


def propagators(
    sched: HamiltonianSchedule, branch: Branch, times
) -> tuple[UnitaryMatrix, ...]:
    """Branch propagators U(t_k -> t_k+1) for consecutive times from one
    series over all their spans: each segment the product of its factors,
    latest leftmost (adjoint going back in time), one unitarity check."""
    pairs = list(zip(times, times[1:]))
    segments = [_constant_spans(sched, branch, min(a, b), max(a, b)) for a, b in pairs]
    a = [-1j * (t1 - t0) * h for seg in segments for h, t0, t1 in seg]
    try:
        factors = iter(_expm_series(np.array(a).reshape(len(a), sched.dim, sched.dim)))
    except InstanceTooLarge:
        if len(pairs) > 1:  # an earlier segment that fails its unitarity check comes first
            for pair in pairs:
                propagators(sched, branch, pair)
        raise
    out = []
    for (t_a, t_b), seg in zip(pairs, segments):
        u = next(factors) if seg else np.eye(sched.dim, dtype=np.complex128)
        for _ in seg[1:]:
            u = next(factors) @ u
        out.append(u.conj().T if t_b < t_a else u)
    return unitaries(out)


def propagator(
    sched: HamiltonianSchedule, branch: Branch, t_from: float, t_to: float
) -> UnitaryMatrix:
    """Series-exponential U(t_from -> t_to): the one-segment case of `propagators`."""
    return propagators(sched, branch, (t_from, t_to))[0]


def standard_born(u: UnitaryMatrix, psi: np.ndarray, phi: np.ndarray) -> float:
    """Textbook transition probability |<phi| u |psi>|^2."""
    if not u.dim == len(psi) == len(phi):
        raise ValidationError("standard_born arguments disagree in dimension")
    return float(abs(np.vdot(phi, u.mat @ psi)) ** 2)


def born_rule(u: UnitaryMatrix, psi: np.ndarray, outcomes: Basis) -> list[float]:
    """`standard_born` for every element of a basis, u psi formed once."""
    if not u.dim == len(psi) == outcomes.dim:
        raise ValidationError("born_rule arguments disagree in dimension")
    fwd = u.mat @ psi
    return [float(abs(np.vdot(a, fwd)) ** 2) for a in outcomes.rows]


def abl_rule(
    u1: UnitaryMatrix,
    u2: UnitaryMatrix,
    psi: np.ndarray,
    outcomes: Basis,
    phi: np.ndarray,
) -> list[float]:
    """Textbook pre/post-selected outcome probabilities:
    |<phi|u2|a_i><a_i|u1|psi>|^2, normalized over the basis."""
    if not u1.dim == u2.dim == len(psi) == len(phi) == outcomes.dim:
        raise ValidationError("abl_rule arguments disagree in dimension")
    fwd = u1.mat @ psi
    back = u2.mat.conj().T @ phi
    numerators = [float(abs(np.vdot(back, a) * np.vdot(a, fwd)) ** 2) for a in outcomes.rows]
    denominator = sum(numerators)
    if denominator == 0.0:
        raise ImpossiblePostSelection("all pre/post-selection numerators vanish")
    return [n / denominator for n in numerators]


def _rk4_maps(a: np.ndarray, steps: int, paired: bool = False) -> np.ndarray:
    """E_n with R^n = I + E_n for every step generator A = -i h dt in the
    stack a of shape (S, d, d): RK4's one-step map R = I + E with
    E = A + A^2/2 + A^3/6 + A^4/24 (the method's stability polynomial),
    raised to the power `steps` >= 1. With `paired`, a holds the
    generators of `steps` (fine) and then of steps // 2 (coarse): the fine
    half takes its exponent's lowest bit alone, and the halves then share
    the powering by steps // 2, each slice the arithmetic of its own call.

    The power is taken by binary powering on E alone, never on R:
    (I+E1)(I+E2) = I + (E1 + E2 + E1 E2). Keeping the identity out of the
    products stops its rounding from swamping the small terms. matmul
    broadcasts over the stack, so the whole stack costs O(log steps)
    numpy calls, each span's slice the same arithmetic as on its own.
    """
    a2 = a @ a
    step = a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
    total = None  # E_0 = 0: the first set bit takes the step as it is
    n = steps
    if paired:  # the fine half's lowest bit, as the loop below takes it
        fine = step[: len(a) // 2]
        if n & 1:
            total = np.zeros_like(step)
            total[: len(a) // 2] = fine
        fine[...] = 2.0 * fine + fine @ fine
        n >>= 1
    while n:
        if n & 1:
            total = step.copy() if total is None else total + step + total @ step
        n >>= 1
        if n:
            step = 2.0 * step + step @ step
    return total


# Largest ||h||_1 * |dt| of a span at the coarse resolution that the line
# integral accepts; see contour_line_integral.
RK4_STEP_NORM_BOUND = 1.0


def _contour_plan(
    sched: HamiltonianSchedule, history: tuple[FixedPoint, ...]
) -> tuple[np.ndarray, np.ndarray, list[list[tuple[np.ndarray, np.ndarray, range]]]]:
    """The line integral's work, independent of the resolution: the
    generators (S, d, d) and durations (S,) of the constant-generator spans
    of every interval [t_k-1, t_k], stepped forward once per distinct branch
    Hamiltonian (the forward pieces, then the override's if there is one),
    and per such branch and interval a_k-1, a_k and the indices of its spans."""
    sched.require_coverage(*(p.t for p in history))
    branches = (sched.pieces,) if sched.branch_override is None else (sched.pieces, sched.branch_override)
    spans, legs = [], []
    for pieces in branches:
        intervals = []
        for start, end in zip(history, history[1:]):
            first = len(spans)
            spans += _spans_of(pieces, start.t, end.t)
            intervals.append((start.state, end.state, range(first, len(spans))))
        legs.append(intervals)
    generators = np.array([h for h, _, _ in spans]).reshape(len(spans), sched.dim, sched.dim)
    return generators, np.array([b - a for _, a, b in spans]), legs


def _path_weight(maps: np.ndarray, legs: list[list[tuple[np.ndarray, np.ndarray, range]]]) -> complex:
    """History weight with every interval stepped, not exponentiated: per
    branch, each span's RK4 map E_j (psi -> psi + E_j psi) takes a_k-1 to
    f_k = <a_k| R_k a_k-1>. The backward leg from t_k to t_k-1 is
    <a_k-1| R_k^H a_k> = conj(f_k) on its own branch's pieces, so the weight
    is prod f_F,k * conj(prod f_B,k), with f_B = f_F without an override."""
    amplitudes = []
    for intervals in legs:
        value = complex(1.0)
        for psi, phi, span_ids in intervals:
            for k in span_ids:
                psi = psi + maps[k] @ psi
            value *= complex(np.vdot(phi, psi))
        amplitudes.append(value)
    return amplitudes[0] * amplitudes[-1].conjugate()


def contour_line_integral(
    sched: HamiltonianSchedule, history: tuple[FixedPoint, ...], steps_per_segment: int
) -> tuple[float, float, float]:
    """History weight from the stepped line integral, a Richardson error
    estimate obtained by comparing against a half-resolution run, and an
    a-priori bound, rounding aside, on the weight's truncation error. Each
    constant-generator span of each interval receives the full step
    budget, so halving the budget exactly halves the resolution. Only
    forward legs are stepped (R(A)^H = R(-A) for A = -i h dt), and the maps
    of all planned spans at both resolutions come from one `_rk4_maps`.

    A span whose ||h||_1 * |dt| at the coarse resolution exceeds
    RK4_STEP_NORM_BOUND (1) raises InstanceTooLarge. Far past it (a long
    span at 512 steps) RK4 damps every step, the fine and the coarse run
    both decay toward zero and agree, and the estimate stays tiny while the
    value is wrong. Within it every eigenvalue y of h dt has |y| <= 1,
    where the coarse step keeps |R(iy)|^2 = 1 - y^6/72 + y^8/576 >= 0.987;
    the fine step, at y/2, loses 64 times less per step, so damping makes
    the two runs differ and shows in the estimate. The check also refuses
    spans whose stepped map would overflow.

    The estimate can miss: near the bound the fine and coarse errors can
    cancel in their difference. The truncation bound cannot. With
    y = ||h||_1*|dt| at one fine step of a span, every eigenvalue of h dt
    lies in [-y, y], so the step map differs from the propagator by at most
    y^5/120 in the 2-norm (exp's Taylor remainder after four terms). Step
    maps (|R(iy)| <= 1 for |y| <= 2.8) and propagators are contractions,
    so over the steps and spans of a leg the differences add up, and its
    factor is off by at most ||a_k-1|| ||a_k|| times their sum. The weight
    is a product of 2k such factors, each at most ||a_k-1|| ||a_k||:
    swapping them in one at a time telescopes to the sum over both legs of
    every interval times prod ||a_k-1||^2 ||a_k||^2.
    """
    if steps_per_segment < 2:
        raise ValidationError("steps_per_segment must be at least 2")
    coarse_steps = steps_per_segment // 2
    generators, durations, legs = _contour_plan(sched, history)
    # fine spans, then coarse; the complex factor first, as tests/oracles.py's _rk4_segment has it
    dts = np.concatenate([durations / steps_per_segment, durations / coarse_steps])
    a = (-1j * dts)[:, None, None] * np.concatenate([generators, generators])
    norms = abs(a).sum(axis=1).max(axis=1)  # every span's ||h||_1*|dt| per step
    worst = float(norms[len(durations) :].max(initial=0.0))  # the largest at the coarse resolution
    if not worst <= RK4_STEP_NORM_BOUND:  # also catches inf and NaN
        raise InstanceTooLarge(
            f"stepped line integral: a span has ||h||_1*|dt| = {worst:.3e} at "
            f"{coarse_steps} steps, above the RK4 oracle's bound {RK4_STEP_NORM_BOUND:g}"
        )
    maps = _rk4_maps(a, steps_per_segment, paired=True)
    fine, coarse = (_path_weight(half, legs) for half in np.split(maps, 2))
    value = fine.real
    # |fine - coarse| estimates the half-resolution error, about 16 times the
    # returned fine value's. Floored at rounding noise.
    estimate = abs(fine - coarse) + 64.0 * np.finfo(float).eps * (1.0 + abs(value))
    # a span stands for both legs of its interval unless the backward leg has its own pieces
    fifth = float((norms[: len(durations)] ** 5).sum()) * (2 // len(legs))
    scale = math.prod(float(np.vdot(psi, psi).real * np.vdot(phi, phi).real) for psi, phi, _ in legs[0])
    return value, float(estimate), steps_per_segment * fifth / 120.0 * scale
