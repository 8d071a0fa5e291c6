import ast
from pathlib import Path

import numpy as np
import pytest

import fpf.oracle
from fpf.contour import Branch, build_path
from fpf.dynamics import HamiltonianSchedule, SchedulePiece, propagate
from fpf.errors import ImpossiblePostSelection, InstanceTooLarge, ValidationError
from fpf.histories import FixedPoint, make_history
from fpf.measure import chain_delta_psi
from fpf.oracle import (
    RK4_STEP_NORM_BOUND,
    _constant_spans,
    _expm_series,
    _rk4_maps,
    _squarings,
    abl_rule,
    born_rule,
    contour_line_integral,
    propagator,
    propagators,
    standard_born,
)
from fpf.scenario import random_basis, random_hermitian, random_schedule, random_state
from oracles import _rk4_segment
from fpf.statespace import (
    HermitianOperator,
    UnitaryMatrix,
    expm_hermitian,
    standard_basis,
)

SQRT2 = np.sqrt(2.0)
QUARTER = float(np.pi / 4)
SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))
E0, E1 = standard_basis(2).rows
PLUS = np.array([1, 1], dtype=complex) / SQRT2

F = Branch.FORWARD


def constant(h, t0=0.0, t1=1.0):
    return HamiltonianSchedule((SchedulePiece(t0, t1, h),))


class TestStandardBorn:
    def test_identity_same_state(self):
        assert standard_born(UnitaryMatrix(np.eye(2)), E0, E0) == 1.0

    def test_identity_orthogonal(self):
        assert standard_born(UnitaryMatrix(np.eye(2)), E0, E1) == 0.0

    def test_sigma_x_quarter(self):
        u = propagator(constant(SX, 0.0, QUARTER), F, 0.0, QUARTER)
        assert standard_born(u, E0, E1) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_to_one_over_complete_basis(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        sched = random_schedule(rng, dim, 2)
        u = propagator(sched, F, sched.t_start, sched.t_end)
        psi = random_state(rng, dim)
        total = sum(standard_born(u, psi, phi) for phi in random_basis(rng, dim).rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_born_rule_is_standard_born_per_element(self, seed):
        rng = np.random.default_rng(seed + 90)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, 3)
        u = propagator(sched, F, sched.t_start, sched.t_end)
        psi, basis = random_state(rng, dim), random_basis(rng, dim)
        assert born_rule(u, psi, basis) == [standard_born(u, psi, phi) for phi in basis.rows]
        with pytest.raises(ValidationError, match="^born_rule arguments disagree in dimension$"):
            born_rule(u, psi, standard_basis(dim + 1))
        with pytest.raises(ValidationError, match="^standard_born arguments disagree in dimension$"):
            standard_born(u, psi, standard_basis(dim + 1).rows[0])


class TestAblRule:
    def test_plus_postselection(self):
        probs = abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), E0, standard_basis(2), PLUS)
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-15)

    def test_symmetric_case(self):
        probs = abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), PLUS, standard_basis(2), PLUS)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("wrong", ["psi", "outcomes", "phi"])
    def test_dimension_mismatch(self, wrong):
        args = {"psi": E0, "outcomes": standard_basis(2), "phi": PLUS}
        args[wrong] = standard_basis(3) if wrong == "outcomes" else standard_basis(3).rows[0]
        with pytest.raises(ValidationError, match="^abl_rule arguments disagree in dimension$"):
            abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), args["psi"], args["outcomes"], args["phi"])

    def test_zero_denominator(self):
        with pytest.raises(ImpossiblePostSelection, match="^all pre/post-selection numerators vanish$"):
            abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), E0, standard_basis(2), E1)


class TestLineIntegral:
    def test_free_evolution_exact(self):
        h = make_history([FixedPoint(0.0, E0), FixedPoint(1.0, E0)])
        value, estimate, _ = contour_line_integral(constant(ZERO2), h, 4)
        assert value == 1.0
        assert estimate < 1e-13

    def test_sigma_x_quarter_converges(self):
        sched = constant(SX, 0.0, QUARTER)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)])
        value, estimate, _ = contour_line_integral(sched, h, 256)
        assert abs(value - 0.5) <= estimate

    def test_observed_order_at_least_3_5(self):
        sched = constant(SX, 0.0, QUARTER)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)])
        closed = chain_delta_psi(sched, h).real
        errors = []
        for steps in (8, 16, 32):
            value, _, _ = contour_line_integral(sched, h, steps)
            errors.append(abs(value - closed))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 3.5

    def test_step_floor_enforced(self):
        h = make_history([FixedPoint(0.0, E0), FixedPoint(1.0, E0)])
        with pytest.raises(ValidationError):
            contour_line_integral(constant(ZERO2), h, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_closed_form_on_random_triples(self, seed):
        rng = np.random.default_rng(seed + 300)
        sched = random_schedule(rng, 2, int(rng.integers(1, 4)))
        t0, t1 = sched.t_start, sched.t_end
        pts = [
            FixedPoint(t0, random_state(rng, 2)),
            FixedPoint(0.5 * (t0 + t1), random_state(rng, 2)),
            FixedPoint(t1, random_state(rng, 2)),
        ]
        closed = chain_delta_psi(sched, pts).real
        value, estimate, _ = contour_line_integral(sched, make_history(pts), 512)
        assert abs(value - closed) <= estimate
        assert estimate <= 1e-6

    def test_overflow_is_instance_too_large(self):
        # a z:0 -> z:0 chain over 1e20 time units: the stepped map would overflow
        sched = constant(SX, 0.0, 1e20)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(5e19, PLUS), FixedPoint(1e20, E0)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstanceTooLarge):
            contour_line_integral(sched, h, 512)

    def test_long_span_is_refused(self):
        # 500-unit spans of sigma_x at 256 coarse steps: ||h||_1*|dt| = 1.95,
        # where both resolutions decay toward zero (the fine one to 4.5e-6,
        # against a weight of 0.25) and agree
        sched = constant(SX, 0.0, 1000.0)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(500.0, PLUS), FixedPoint(1000.0, E0)])
        with pytest.raises(InstanceTooLarge, match="1.953e"):
            contour_line_integral(sched, h, 512)

    def test_bound_is_inclusive_at_the_coarse_resolution(self):
        # ||sigma_x||_1 = 1 and 2 steps leave one coarse step: |dt| is the span
        def line_integral(span):
            h = make_history([FixedPoint(0.0, E0), FixedPoint(span, E1)])
            return contour_line_integral(constant(SX, 0.0, span), h, 2)

        assert RK4_STEP_NORM_BOUND == 1.0
        line_integral(1.0)
        with pytest.raises(InstanceTooLarge):
            line_integral(float(np.nextafter(1.0, 2.0)))


def _per_span_line_integral(sched, history, steps):
    """The line integral one span at a time, each span through
    _rk4_segment, at steps and steps // 2, with the same estimate."""

    def weight(n):
        state_at = {p.t: p.state for p in history}
        value = complex(1.0)
        for branch, t_from, t_to in build_path([p.t for p in history]):
            psi = state_at[t_from]
            spans = _constant_spans(sched, branch, min(t_from, t_to), max(t_from, t_to))
            if t_to < t_from:
                spans = [(h, b, a) for h, a, b in reversed(spans)]
            for h, a, b in spans:
                psi = _rk4_segment(h, psi, a, b, n)
            value *= complex(np.vdot(state_at[t_to], psi))
        return value

    fine, coarse = weight(steps), weight(steps // 2)
    value = fine.real
    estimate = abs(fine - coarse) + 64.0 * np.finfo(float).eps * (1.0 + abs(value))
    return value, float(estimate)


def random_chain(rng, slots, pieces, dim, override=False):
    """A schedule (with a different backward branch if override) and a
    history of random states at the ends and at `slots` interior times."""
    sched = random_schedule(rng, dim, pieces)
    if override:
        backward = random_schedule(rng, dim, pieces).pieces
        sched = HamiltonianSchedule(
            sched.pieces,
            tuple(SchedulePiece(p.t_start, p.t_end, q.hamiltonian) for p, q in zip(sched.pieces, backward)),
        )
    times = [sched.t_start, *sorted(rng.uniform(sched.t_start, sched.t_end, slots)), sched.t_end]
    return sched, make_history([FixedPoint(float(t), random_state(rng, dim)) for t in times])


class TestStackedLineIntegral:
    """All spans of a resolution in one stacked power give the per-span
    answer, and cost one powering per resolution."""

    @pytest.mark.parametrize("override", [False, True])
    def test_matches_per_span_reference(self, override):
        rng = np.random.default_rng(2000 + override)
        worst = 0.0
        for _ in range(80):
            slots, pieces, dim = int(rng.integers(0, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            sched, history = random_chain(rng, slots, pieces, dim, override)
            for steps in (512, 64):
                got = contour_line_integral(sched, history, steps)
                want = _per_span_line_integral(sched, history, steps)
                worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        print(f"worst |stacked - per-span| over value and estimate: {worst:.3e}")
        assert worst <= 1e-15, worst

    @pytest.mark.parametrize("override", [False, True])
    @pytest.mark.parametrize("slots, pieces", [(0, 1), (1, 4), (3, 2), (8, 3)])
    def test_one_stacked_power_for_both_resolutions(self, monkeypatch, slots, pieces, override):
        # every interval is stepped once per distinct branch Hamiltonian: half
        # the contour path's spans without an override, all of them with one
        sched, history = random_chain(np.random.default_rng(slots), slots, pieces, 3, override)
        times = [p.t for p in history]
        path = build_path(times)
        n_path = sum(len(_constant_spans(sched, branch, min(a, b), max(a, b))) for branch, a, b in path)
        branches = [F, Branch.BACKWARD] if override else [F]
        intervals = list(zip(times, times[1:]))
        n_spans = sum(len(_constant_spans(sched, branch, a, b)) for branch in branches for a, b in intervals)
        assert n_spans == (n_path if override else n_path // 2)
        calls = []
        maps = fpf.oracle._rk4_maps

        def counted(a, steps, **kwargs):
            calls.append((a.shape, steps, kwargs))
            return maps(a, steps, **kwargs)

        monkeypatch.setattr(fpf.oracle, "_rk4_maps", counted)
        contour_line_integral(sched, history, 512)
        assert calls == [((2 * n_spans, 3, 3), 512, {"paired": True})]

    @pytest.mark.parametrize("override", [False, True])
    @pytest.mark.parametrize("slots, pieces, dim", [(0, 1, 2), (1, 4, 3), (3, 2, 5), (8, 3, 8)])
    def test_step_norm_guard_reads_numpys_one_norm(self, monkeypatch, slots, pieces, dim, override):
        # the guard accepts at the largest coarse-span np.linalg.norm(a, 1)
        # over the planned spans and refuses one float below it: so it reads that float
        sched, history = random_chain(np.random.default_rng(slots + 40), slots, pieces, dim, override)
        generators, durations, _ = fpf.oracle._contour_plan(sched, history)
        coarse = (-1j * (durations / 32))[:, None, None] * generators
        worst = float(np.linalg.norm(coarse, 1, axis=(1, 2)).max())
        monkeypatch.setattr(fpf.oracle, "RK4_STEP_NORM_BOUND", worst)
        contour_line_integral(sched, history, 64)
        monkeypatch.setattr(fpf.oracle, "RK4_STEP_NORM_BOUND", float(np.nextafter(worst, 0.0)))
        with pytest.raises(InstanceTooLarge, match="stepped line integral"):
            contour_line_integral(sched, history, 64)

    @pytest.mark.parametrize("override", [False, True])
    def test_truncation_bound_counts_both_legs(self, override):
        # the bound sums y^5 over the fine steps of both legs of every interval,
        # as a walk of the contour path meets them, times the product of the
        # state norms of its 2k factors
        rng = np.random.default_rng(3000 + override)
        for _ in range(60):
            slots, pieces, dim = int(rng.integers(0, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            sched, history = random_chain(rng, slots, pieces, dim, override)
            state_at = {p.t: p.state for p in history}
            for steps in (512, 64):
                fifth, scale = 0.0, 1.0
                for branch, t_from, t_to in build_path([p.t for p in history]):
                    for h, a, b in _constant_spans(sched, branch, min(t_from, t_to), max(t_from, t_to)):
                        fifth += steps * (np.linalg.norm(h, 1) * (b - a) / steps) ** 5
                    scale *= np.linalg.norm(state_at[t_from]) ** 2 * np.linalg.norm(state_at[t_to]) ** 2
                want = fifth / 120.0 * np.sqrt(scale)
                _, _, got = contour_line_integral(sched, history, steps)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("steps", [512, 64, 33, 3, 2])
    def test_paired_power_matches_one_call_per_resolution(self, steps):
        rng = np.random.default_rng(steps)
        for dim in (1, 3, 8):
            for n_spans in (1, 5):
                m = rng.normal(size=(n_spans, dim, dim)) + 1j * rng.normal(size=(n_spans, dim, dim))
                h = 0.5 * (m + np.swapaxes(m.conj(), 1, 2))
                s = rng.uniform(-1.0, 1.0, n_spans)[:, None, None]
                fine, coarse = -1j * (s / steps) * h, -1j * (s / (steps // 2)) * h
                got = _rk4_maps(np.concatenate([fine, coarse]), steps, paired=True)
                assert np.array_equal(got[:n_spans], _rk4_maps(fine, steps))
                assert np.array_equal(got[n_spans:], _rk4_maps(coarse, steps // 2))


def _rk4_stepping(h, psi, t_from, t_to, steps):
    """Classical four-stage RK4 for d psi / dt = -i h psi, one step at a time."""
    dt = (t_to - t_from) / steps
    for _ in range(steps):
        k1 = -1j * (h @ psi)
        k2 = -1j * (h @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


class TestRK4Map:
    """The one-step-map power is the same RK4 as stepping, to rounding."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 256, 512])
    @pytest.mark.parametrize("backward", [False, True])
    def test_matches_stepping_loop(self, steps, backward):
        rng = np.random.default_rng(1000 * steps + backward)
        for dim in range(2, 9):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (m + m.conj().T)
            psi = random_state(rng, dim)
            t_a, t_b = sorted(rng.uniform(-1.0, 1.0, 2))
            if backward:
                t_a, t_b = t_b, t_a
            got = _rk4_segment(h, psi, t_a, t_b, steps)
            want = _rk4_stepping(h, psi, t_a, t_b, steps)
            assert np.max(np.abs(got - want)) <= 1e-13, (dim, np.max(np.abs(got - want)))


def per_span_series(a):
    """exp(a) for one matrix by the oracle's arithmetic on a single span:
    scaling to ||b||_1 <= 0.5, 17 series terms, then squaring."""
    scale = float(np.linalg.norm(a, 1))
    squarings = 0
    while scale / 2.0**squarings > 0.5:
        squarings += 1
    b = a / (2.0**squarings)
    term = np.eye(a.shape[0], dtype=np.complex128)
    total = term.copy()
    for k in range(1, 18):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def per_span_propagators(sched, branch, times):
    """U(t_k -> t_k+1) by one series exponential per span, multiplied onto
    the identity in time order, latest factor leftmost."""
    out = []
    for lo, hi in zip(times, times[1:]):
        u = np.eye(sched.dim, dtype=np.complex128)
        for h, a, b in _constant_spans(sched, branch, lo, hi):
            u = per_span_series(-1j * (b - a) * h) @ u
        out.append(u)
    return out


class TestSeriesPropagator:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_spectral_route(self, seed):
        rng = np.random.default_rng(seed + 40)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        ta, tb = sorted(rng.uniform(sched.t_start, sched.t_end, 2))
        np.testing.assert_allclose(
            propagator(sched, F, ta, tb).mat,
            propagate(sched, F, ta, tb).mat,
            atol=1e-12,
        )

    @pytest.mark.parametrize("override", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_stacked_series_matches_the_per_span_loop(self, seed, override):
        rng = np.random.default_rng(seed + 800)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        if override:
            n = int(rng.integers(1, 5))
            bounds = np.linspace(sched.t_start, sched.t_end, n + 1).tolist()
            bounds[-1] = sched.t_end
            backward = tuple(
                SchedulePiece(a, b, random_hermitian(rng, dim)) for a, b in zip(bounds, bounds[1:])
            )
            sched = HamiltonianSchedule(sched.pieces, branch_override=backward)
        inner = sorted(rng.uniform(sched.t_start, sched.t_end, int(rng.integers(0, 4))).tolist())
        times = [sched.t_start, *inner, sched.t_end]
        for branch in (F, Branch.BACKWARD):
            want = per_span_propagators(sched, branch, times)
            got = propagators(sched, branch, times)
            assert len(got) == len(want)
            for u, ref in zip(got, want):
                assert np.array_equal(u.mat, ref)
            for (ta, tb), ref in zip(zip(times, times[1:]), want):
                assert np.array_equal(propagator(sched, branch, ta, tb).mat, ref)
                assert np.array_equal(propagator(sched, branch, tb, ta).mat, ref.conj().T)

    def test_an_earlier_segment_names_the_error(self):
        # on its own, [0, 1e19] is finite but not unitary and [1e19, 4e19]
        # overflows; the earlier segment's error comes first, as one
        # propagator per segment would raise it
        sched = constant(SX, 0.0, 4e19)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstanceTooLarge, match="overflows"):
                propagator(sched, F, 1e19, 4e19)
            with pytest.raises(ValidationError, match="not unitary: .* = 1.414e"):
                propagators(sched, F, (0.0, 1e19, 4e19))

    # 1e20 overflows in the squarings, 1e308 even the scaling factor 2**squarings
    @pytest.mark.parametrize("span", [1e20, 1e308])
    def test_overflow_is_instance_too_large(self, span):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstanceTooLarge):
            propagator(constant(SX, 0.0, span), F, 0.0, span)


def series_case(rng, dim, target):
    """A random Hermitian h and a span s with ||-i s h||_1 == target
    exactly, the norm taken as _expm_series takes it. The norm grows
    monotonically with s, so stepping s by ulps finds the smallest span
    that reaches target; a draw whose norm steps over target is redrawn."""

    def norm(h, s):
        return float(np.linalg.norm(-1j * s * h.mat, 1))

    while True:
        h = random_hermitian(rng, dim)
        s = target / norm(h, 1.0)
        while norm(h, s) < target:
            s = np.nextafter(s, np.inf)
        while s > 0 and norm(h, np.nextafter(s, 0.0)) >= target:
            s = np.nextafter(s, 0.0)
        if norm(h, s) == target:
            return h, float(s)


class TestSeriesExponential:
    # 0.5 is the largest norm summed without squaring; the next float above
    # it takes one squaring
    NORMS = [0.0, 1e-10, 0.25, 0.5, float(np.nextafter(0.5, 1.0)), 3.0, 200.0]

    @pytest.mark.parametrize("target", NORMS)
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_agrees_with_spectral_route(self, dim, target):
        rng = np.random.default_rng(dim)
        for _ in range(4):
            h, s = series_case(rng, dim, target)
            for span in (s, -s):
                w, v = np.linalg.eigh(h.mat[np.newaxis])
                np.testing.assert_allclose(
                    _expm_series((-1j * span * h.mat)[np.newaxis]),
                    expm_hermitian(w, v, np.array([span])),
                    rtol=0,
                    atol=1e-13,
                )

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_stack_matches_each_span_alone(self, dim):
        # one stack holding every norm, so its spans take 0 to 9 squarings
        rng = np.random.default_rng(dim + 30)
        stack = []
        for target in self.NORMS:
            h, s = series_case(rng, dim, target)
            stack.append(-1j * s * h.mat)
        got = _expm_series(np.array(stack))
        for k, a in enumerate(stack):
            assert np.array_equal(got[k], per_span_series(a))

    # every span squares 3 times, so each squaring takes the whole stack;
    # then counts 3, 9 and 4: three whole-stack squarings, then by index;
    # then norms one ulp above 8 and 64, where ceil(log2(norm / 0.5)) was one short
    @pytest.mark.parametrize(
        "targets",
        [
            [3.0] * 4,
            [3.0, 200.0, float(np.nextafter(4.0, 5.0))],
            [float(np.nextafter(8.0, 9.0)), float(np.nextafter(64.0, 65.0)), 8.0],
        ],
    )
    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_whole_stack_squaring_matches_each_span_alone(self, dim, targets):
        rng = np.random.default_rng(dim + 60)
        stack = []
        for target in targets:
            h, s = series_case(rng, dim, target)
            stack.append(-1j * s * h.mat)
        got = _expm_series(np.array(stack))
        for k, a in enumerate(stack):
            assert np.array_equal(got[k], per_span_series(a))

    @pytest.mark.parametrize("order, message", [((1e20, 1e308), "overflows"), ((1e308, 1e20), "norm")])
    def test_first_failing_span_names_the_error(self, order, message):
        spans = [0.5, *order]
        stack = np.array([-1j * s * SX.mat for s in spans])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstanceTooLarge, match=message):
            _expm_series(stack)

    def test_squaring_count_is_exact_at_powers_of_two(self):
        # the fewest n with s / 2**n <= 0.5, at 2**k and the floats on
        # either side; one ulp above 2**k, ceil(log2(s / 0.5)) gave k + 1
        # instead of k + 2 for every k from 3 to 1021
        for k in range(-1, 1023):
            power = 2.0**k
            for s in (float(np.nextafter(power, 0.0)), power, float(np.nextafter(power, np.inf))):
                if 0.5 < s <= 2.0**1022:
                    n = _squarings(s)
                    assert s / 2.0**n <= 0.5 < s / 2.0 ** (n - 1), s
            if 0.5 <= power <= 2.0**1021:
                assert _squarings(float(np.nextafter(power, np.inf))) == k + 2

    def test_squaring_count_between_powers_of_two(self):
        rng = np.random.default_rng(7)
        for s in np.exp(rng.uniform(np.log(0.5), np.log(2.0**1022), size=2000)):
            n = _squarings(float(s))
            assert s / 2.0**n <= 0.5 < s / 2.0 ** (n - 1)

    def test_scales_are_numpys_one_norms(self, monkeypatch):
        # the scale of every span that squares, bit for bit as np.linalg.norm(a, 1) has it
        rng = np.random.default_rng(3)
        stack = np.array(
            [-1j * s * random_hermitian(rng, 4).mat for s in np.exp(rng.uniform(-3.0, 6.0, size=40))]
        )
        seen = []
        monkeypatch.setattr(fpf.oracle, "_squarings", lambda s: seen.append(s) or _squarings(s))
        _expm_series(stack)
        want = [s for s in np.linalg.norm(stack, 1, axis=(1, 2)).tolist() if s > 0.5]
        assert len(want) > 20 and [np.float64(s).tobytes() for s in seen] == [
            np.float64(s).tobytes() for s in want
        ]

    # single spans that square 0, 3 and 9 times, then one stack of every norm
    @pytest.mark.parametrize("targets", [[0.25], [3.0], [200.0], NORMS], ids=["0.25", "3", "200", "mixed"])
    def test_one_squaring_count_per_scaled_span(self, monkeypatch, targets):
        # the 1-norms come from one stacked reduction, with no np.linalg.norm
        # call, and each span with a norm in (0.5, 2**1022] gets one count
        rng = np.random.default_rng(0)
        stack = np.array([-1j * s * h.mat for h, s in (series_case(rng, 4, t) for t in targets)])
        norms, counted = [], []
        norm = fpf.oracle.np.linalg.norm
        monkeypatch.setattr(fpf.oracle.np.linalg, "norm", lambda *a, **k: norms.append(a) or norm(*a, **k))
        monkeypatch.setattr(fpf.oracle, "_squarings", lambda s: counted.append(s) or _squarings(s))
        _expm_series(stack)
        assert norms == []
        assert counted == [t for t in targets if 0.5 < t <= 2.0**1022]


class TestIndependence:
    # eigh and expm would turn the RK4 line integral into an exact exponential
    # and leave its Richardson estimate measuring nothing
    ENGINE_NAMES = {"propagate", "expm_hermitian", "eigh", "expm"}
    # a schedule's cached eigendecompositions
    ENGINE_ATTRIBUTES = {"_spectrum", "_spectra"}
    # the engine's measure, and its thresholds, which the oracle must not re-decide
    FORBIDDEN_MODULES = {"measure", "tolerances"}
    # the oracle defines its own `propagators`, so dynamics is held to a list
    FROM_DYNAMICS = {"HamiltonianSchedule"}
    # the library's oracles and the ones only the tests use
    SOURCES = (Path(fpf.oracle.__file__), Path(__file__).with_name("oracles.py"))

    def shared_code(self, text: str) -> list[str]:
        """What the source text takes from the engine's propagation or thresholds."""
        modules = self.FORBIDDEN_MODULES | {"dynamics"}  # taken whole, not name by name
        found = []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("fpf.")
                names = {alias.name for alias in node.names}
                if module in ("", "fpf"):
                    found += sorted(names & modules)
                if module in self.FORBIDDEN_MODULES:
                    found.append(module)
                if module == "dynamics":
                    found += sorted(names - self.FROM_DYNAMICS)
                found += sorted(names & self.ENGINE_NAMES)
            elif isinstance(node, ast.Import):
                found += [alias.name for alias in node.names if alias.name.removeprefix("fpf.") in modules]
            elif isinstance(node, ast.Name) and node.id in self.ENGINE_NAMES:
                found.append(node.id)
            elif isinstance(node, ast.Attribute) and node.attr in self.ENGINE_NAMES | self.ENGINE_ATTRIBUTES:
                found.append(node.attr)
        return found

    def test_oracle_shares_no_propagator_code(self):
        for source in self.SOURCES:
            assert self.shared_code(source.read_text()) == [], source

    @pytest.mark.parametrize(
        "line",
        [
            "from .dynamics import HamiltonianSchedule, propagators as _engine_propagators",
            "from fpf import dynamics",
            "from . import dynamics",
            "import fpf.dynamics",
            "w, v = sched._spectrum(branch)",
            "cache = sched._spectra",
            "from .tolerances import active_tolerances",
            "from fpf import tolerances",
            "import fpf.tolerances",
            "from fpf.measure import chain_measure",
        ],
    )
    def test_each_way_to_share_code_is_seen(self, line):
        text = Path(fpf.oracle.__file__).read_text() + "\n" + line + "\n"
        assert self.shared_code(text) != []

    def test_oracle_imports_no_scipy(self):
        for source in self.SOURCES:
            tree = ast.parse(source.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert (node.module or "").split(".")[0] != "scipy", node.module
                elif isinstance(node, ast.Import):
                    assert all(alias.name.split(".")[0] != "scipy" for alias in node.names)
