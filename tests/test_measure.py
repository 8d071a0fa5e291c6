import itertools

import numpy as np
import pytest

from fpf import oracle
from fpf.contour import Branch
from fpf.dynamics import HamiltonianSchedule, SchedulePiece, propagate
from fpf.errors import (
    DegenerateNormalizer,
    ImpossiblePostSelection,
    RealnessViolation,
    ValidationError,
)
from fpf.histories import FixedPoint, make_history
from fpf.measure import (
    abl_measure,
    born_measure,
    chain_delta_psi,
    chain_measure,
)
from fpf.scenario import random_basis, random_hermitian, random_schedule, random_state
from fpf.statespace import (
    Basis,
    HermitianOperator,
    StateVector,
    basis_state,
    standard_basis,
)

SQRT2 = np.sqrt(2.0)
QUARTER = float(np.pi / 4)
SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))
E0, E1 = basis_state(2, 0), basis_state(2, 1)
PLUS = StateVector(np.array([1, 1]) / SQRT2)

F, B = Branch.FORWARD, Branch.BACKWARD


def constant(h, t0=0.0, t1=1.0):
    return HamiltonianSchedule((SchedulePiece(t0, t1, h),))


SX_SCHED = constant(SX, 0.0, QUARTER)
FREE = constant(ZERO2)


def amplitude(sched, branch, src, dst):
    """Transition amplitude <dst| U_branch(dst.t, src.t) |src>."""
    u = propagate(sched, branch, src.t, dst.t).mat
    return complex(np.vdot(dst.state.amps, u @ src.state.amps))


def pair_weight(sched, src, snk):
    return chain_measure(sched, (src, snk), [], []).delta_psi[0]


class TestBranchAmplitude:
    def test_free_evolution_identity(self):
        amp = amplitude(FREE, F, FixedPoint(0.0, E0), FixedPoint(1.0, E0))
        assert amp == 1 + 0j

    def test_sigma_x_quarter(self):
        amp = amplitude(SX_SCHED, F, FixedPoint(0.0, E0), FixedPoint(QUARTER, E1))
        assert amp == pytest.approx(-1j / SQRT2, abs=1e-15)

    def test_backward_is_conjugate_with_swapped_endpoints(self):
        src, dst = FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)
        fwd = amplitude(SX_SCHED, F, src, dst)
        back = amplitude(SX_SCHED, B, dst, src)
        assert back == pytest.approx(np.conj(fwd), abs=1e-15)


class TestDeltaPsiPair:
    def test_same_state_free(self):
        assert pair_weight(FREE, FixedPoint(0.0, E0), FixedPoint(1.0, E0)) == pytest.approx(1.0)

    def test_orthogonal_free(self):
        src, snk = FixedPoint(0.0, E0), FixedPoint(1.0, E1)
        assert chain_delta_psi(FREE, (src, snk)) == pytest.approx(0.0, abs=1e-15)
        # a zero pair weight leaves nothing to normalize
        with pytest.raises(ImpossiblePostSelection):
            pair_weight(FREE, src, snk)

    def test_sigma_x_half_weight(self):
        got = pair_weight(SX_SCHED, FixedPoint(0.0, E0), FixedPoint(QUARTER, E1))
        u = propagate(SX_SCHED, F, 0.0, QUARTER)
        assert got == pytest.approx(oracle.standard_born(u, E0, E1), abs=1e-13)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_time_order_enforced(self):
        with pytest.raises(ValidationError):
            pair_weight(FREE, FixedPoint(1.0, E0), FixedPoint(0.0, E0))


class TestBornMeasure:
    def test_free_z_basis(self):
        res = born_measure(FREE, FixedPoint(0.0, E0), 1.0, standard_basis(2))
        np.testing.assert_allclose(res.measures, [1.0, 0.0], atol=1e-15)

    def test_sigma_x_quarter_is_even_split(self):
        res = born_measure(SX_SCHED, FixedPoint(0.0, E0), QUARTER, standard_basis(2))
        np.testing.assert_allclose(res.measures, [0.5, 0.5], atol=1e-12)
        u = oracle.propagator(SX_SCHED, F, 0.0, QUARTER)
        for i, phi in enumerate(standard_basis(2)):
            assert res.measures[i] == pytest.approx(
                oracle.standard_born(u, E0, phi), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_textbook_rule(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        prep = FixedPoint(sched.t_start, random_state(rng, dim))
        outcomes = random_basis(rng, dim)
        res = born_measure(sched, prep, sched.t_end, outcomes)
        u = propagate(sched, F, sched.t_start, sched.t_end)
        direct = [abs(np.vdot(phi.amps, u.mat @ prep.state.amps)) ** 2 for phi in outcomes]
        np.testing.assert_allclose(res.measures, direct, atol=1e-10)
        assert abs(sum(res.measures) - 1.0) <= 1e-10
        # complete basis and unit preparation: unnormalized weights already sum to 1
        assert res.normalizer == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_normalizer(self):
        # a "basis" that misses the evolved state entirely cannot arise from
        # the Basis type, so feed the measure a crafted incomplete stand-in
        lying = Basis.__new__(Basis)
        object.__setattr__(lying, "elements", (E1,))
        with pytest.raises(DegenerateNormalizer):
            born_measure(FREE, FixedPoint(0.0, E0), 1.0, lying)


class TestAblMeasure:
    def test_plus_postselection_pins_first_outcome(self):
        res = abl_measure(FREE, FixedPoint(0.0, E0), 0.5, standard_basis(2), FixedPoint(1.0, PLUS))
        np.testing.assert_allclose(res.measures, [1.0, 0.0], atol=1e-14)

    def test_orthogonal_postselection_impossible(self):
        with pytest.raises(ImpossiblePostSelection):
            abl_measure(FREE, FixedPoint(0.0, E0), 0.5, standard_basis(2), FixedPoint(1.0, E1))

    def test_symmetric_selections_split_evenly(self):
        res = abl_measure(FREE, FixedPoint(0.0, PLUS), 0.5, standard_basis(2), FixedPoint(1.0, PLUS))
        np.testing.assert_allclose(res.measures, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_textbook_rule(self, seed):
        rng = np.random.default_rng(seed + 1000)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        t0, t1 = sched.t_start, sched.t_end
        t = float(rng.uniform(t0 + 0.1, t1 - 0.1))
        pre = FixedPoint(t0, random_state(rng, dim))
        post = FixedPoint(t1, random_state(rng, dim))
        outcomes = random_basis(rng, dim)
        res = abl_measure(sched, pre, t, outcomes, post)
        ref = oracle.abl_rule(
            oracle.propagator(sched, F, t0, t),
            oracle.propagator(sched, F, t, t1),
            pre.state,
            outcomes,
            post.state,
        )
        np.testing.assert_allclose(res.measures, ref, atol=1e-10)
        assert abs(sum(res.measures) - 1.0) <= 1e-10

    def test_free_evolution_time_symmetry(self):
        rng = np.random.default_rng(42)
        psi, phi = random_state(rng, 2), random_state(rng, 2)
        outcomes = random_basis(rng, 2)
        fwd = abl_measure(FREE, FixedPoint(0.0, psi), 0.5, outcomes, FixedPoint(1.0, phi))
        rev = abl_measure(FREE, FixedPoint(0.0, phi), 0.5, outcomes, FixedPoint(1.0, psi))
        np.testing.assert_allclose(fwd.measures, rev.measures, atol=1e-12)


class TestChainMeasure:
    def test_zero_interior_reduces_to_pair(self):
        src, snk = FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)
        res = chain_measure(SX_SCHED, (src, snk), [], [])
        assert res.delta_psi[0] == chain_delta_psi(SX_SCHED, (src, snk)).real
        assert res.measures[0] == 1.0
        assert res.selected == 0

    def test_one_interior_reduces_to_abl(self):
        rng = np.random.default_rng(9)
        sched = random_schedule(rng, 3, 2)
        pre = FixedPoint(sched.t_start, random_state(rng, 3))
        post = FixedPoint(sched.t_end, random_state(rng, 3))
        t = 0.5 * (sched.t_start + sched.t_end)
        outcomes = random_basis(rng, 3)
        chained = chain_measure(sched, (pre, post), [(t, outcomes)], [1])
        direct = abl_measure(sched, pre, t, outcomes, post)
        np.testing.assert_array_equal(chained.delta_psi, direct.delta_psi)
        np.testing.assert_array_equal(chained.measures, direct.measures)
        assert chained.labels[chained.selected] == (1,)

    def test_interior_basis_containing_evolved_state_collapses(self):
        # one interior outcome equal to the evolved preparation: its joint
        # weight equals the bare pair weight, and it soaks up all the measure
        sched = constant(SX, 0.0, 1.0)
        pre = FixedPoint(0.0, E0)
        post = FixedPoint(1.0, random_state(np.random.default_rng(12), 2))
        t = 0.37
        u = propagate(sched, F, 0.0, t)
        evolved = StateVector(u.mat @ pre.state.amps)
        perp = StateVector(np.array([-np.conj(evolved.amps[1]), np.conj(evolved.amps[0])]))
        outcomes = Basis((evolved, perp))
        res = chain_measure(sched, (pre, post), [(t, outcomes)], [0])
        pair = chain_delta_psi(sched, (pre, post)).real
        assert res.delta_psi[res.selected] == pytest.approx(pair, abs=1e-12)
        # brute force over all interior outcomes: only the evolved state
        # carries weight, so the normalizer is the bare pair weight and the
        # selected measure is certain
        u2 = propagate(sched, F, t, 1.0).mat
        brute = sum(
            abs(np.vdot(a.amps, evolved.amps)) ** 2
            * abs(np.vdot(post.state.amps, u2 @ a.amps)) ** 2
            for a in outcomes
        )
        assert res.normalizer == pytest.approx(brute, abs=1e-12)
        assert res.normalizer == pytest.approx(pair, abs=1e-12)
        assert res.measures[res.selected] == pytest.approx(1.0, abs=1e-12)

    def test_two_interior_slots_enumerate_joint_outcomes(self):
        rng = np.random.default_rng(21)
        sched = random_schedule(rng, 2, 1)
        t0, t1 = sched.t_start, sched.t_end
        pre = FixedPoint(t0, random_state(rng, 2))
        post = FixedPoint(t1, random_state(rng, 2))
        ta, tb = t0 + 0.3 * (t1 - t0), t0 + 0.7 * (t1 - t0)
        b1, b2 = random_basis(rng, 2), random_basis(rng, 2)
        res = chain_measure(sched, (pre, post), [(ta, b1), (tb, b2)], [1, 0])
        assert len(res.measures) == 4
        assert res.labels[res.selected] == (1, 0)
        assert abs(sum(res.measures) - 1.0) <= 1e-10
        # direct evaluation of one joint weight
        pts = (pre, FixedPoint(ta, b1[1]), FixedPoint(tb, b2[0]), post)
        assert res.delta_psi[res.selected] == pytest.approx(
            chain_delta_psi(sched, pts).real, abs=1e-14
        )

    def test_selection_validation(self):
        pre, post = FixedPoint(0.0, E0), FixedPoint(1.0, E0)
        with pytest.raises(ValidationError):
            chain_measure(FREE, (pre, post), [(0.5, standard_basis(2))], [5])
        with pytest.raises(ValidationError):
            chain_measure(FREE, (pre, post), [(0.5, standard_basis(2))], [])


class TestRealness:
    @pytest.mark.parametrize("seed", range(15))
    def test_branch_independent_weights_are_real_nonnegative(self, seed):
        rng = np.random.default_rng(seed + 500)
        dim = int(rng.integers(2, 7))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        t0, t1 = sched.t_start, sched.t_end
        pts = [
            FixedPoint(t0, random_state(rng, dim)),
            FixedPoint(float(rng.uniform(t0 + 0.05, t1 - 0.05)), random_state(rng, dim)),
            FixedPoint(t1, random_state(rng, dim)),
        ]
        raw = chain_delta_psi(sched, pts)
        assert abs(raw.imag) <= 1e-12
        assert raw.real >= -1e-12

    def test_branch_override_breaks_realness(self):
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, QUARTER, SX),),
            branch_override=(SchedulePiece(0.0, QUARTER, ZERO2),),
        )
        src, snk = FixedPoint(0.0, E0), FixedPoint(QUARTER, PLUS)
        raw = chain_delta_psi(sched, (src, snk))
        assert abs(raw.imag) > 1e-3  # diagnostics mode reports the raw value
        with pytest.raises(RealnessViolation):
            pair_weight(sched, src, snk)

    def test_branch_override_can_go_negative(self):
        minus_sx = HermitianOperator(-SX.mat)
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, QUARTER, SX),),
            branch_override=(SchedulePiece(0.0, QUARTER, minus_sx),),
        )
        src, snk = FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)
        raw = chain_delta_psi(sched, (src, snk))
        assert raw.real == pytest.approx(-0.5, abs=1e-12)
        with pytest.raises(RealnessViolation):
            pair_weight(sched, src, snk)


class TestMeasureSymmetries:
    @pytest.mark.parametrize("seed", range(10))
    def test_phase_invariance(self, seed):
        rng = np.random.default_rng(seed + 100)
        dim = int(rng.integers(2, 6))
        sched = random_schedule(rng, dim, 2)
        t0, t1 = sched.t_start, sched.t_end
        pre = FixedPoint(t0, random_state(rng, dim))
        post = FixedPoint(t1, random_state(rng, dim))
        outcomes = random_basis(rng, dim)
        t = 0.5 * (t0 + t1)
        base = abl_measure(sched, pre, t, outcomes, post)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        spun = FixedPoint(t0, StateVector(phase * pre.state.amps))
        np.testing.assert_allclose(
            abl_measure(sched, spun, t, outcomes, post).measures,
            base.measures,
            atol=1e-12,
        )

    def test_outcome_permutation_permutes_measures(self):
        rng = np.random.default_rng(77)
        sched = random_schedule(rng, 4, 1)
        prep = FixedPoint(sched.t_start, random_state(rng, 4))
        outcomes = random_basis(rng, 4)
        res = born_measure(sched, prep, sched.t_end, outcomes)
        perm = [2, 0, 3, 1]
        shuffled = Basis(tuple(outcomes[i] for i in perm))
        res_p = born_measure(sched, prep, sched.t_end, shuffled)
        np.testing.assert_allclose(res_p.measures, res.measures[perm], atol=1e-14)


class TestLineIntegralAgreement:
    @pytest.mark.parametrize("n_points", [2, 3])
    def test_closed_form_within_integrator_bound(self, n_points):
        rng = np.random.default_rng(n_points)
        sched = random_schedule(rng, 2, 2)
        t0, t1 = sched.t_start, sched.t_end
        times = np.linspace(t0, t1, n_points)
        pts = [FixedPoint(float(t), random_state(rng, 2)) for t in times]
        closed = chain_delta_psi(sched, pts).real
        value, estimate = oracle.contour_line_integral(sched, make_history(pts), 256)
        assert abs(value - closed) <= estimate


class TestWholeTensor:
    """Every joint weight against segment amplitudes from the independent
    series-exponential propagator."""

    @staticmethod
    def oracle_weights(sched, src, interior, snk):
        slots = [(src.t, [src.state]), *interior, (snk.t, [snk.state])]
        segments = []
        for (ta, _), (tb, _) in zip(slots, slots[1:]):
            fwd = oracle.propagator(sched, F, ta, tb).mat
            back = oracle.propagator(sched, B, tb, ta).mat
            segments.append((fwd, back))
        weights = {}
        for joint in itertools.product(*(range(len(basis)) for _, basis in interior)):
            states = [src.state, *(basis[k] for (_, basis), k in zip(interior, joint)), snk.state]
            value = 1 + 0j
            for (fwd, back), a, b in zip(segments, states, states[1:]):
                value *= np.vdot(b.amps, fwd @ a.amps) * np.vdot(a.amps, back @ b.amps)
            weights[joint] = value
        return weights

    @staticmethod
    def random_chain(rng, dim, n_slots, sched):
        t0, t1 = sched.t_start, sched.t_end
        cuts = np.linspace(t0, t1, n_slots + 2)[1:-1]
        interior = [(float(t), random_basis(rng, dim)) for t in cuts]
        src = FixedPoint(t0, random_state(rng, dim))
        snk = FixedPoint(t1, random_state(rng, dim))
        return src, interior, snk

    @pytest.mark.parametrize("seed", range(12))
    def test_every_joint_matches_oracle(self, seed):
        rng = np.random.default_rng(seed + 3000)
        dim = int(rng.integers(2, 5))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        src, interior, snk = self.random_chain(rng, dim, seed % 4, sched)
        selection = [int(rng.integers(0, dim)) for _ in interior]
        res = chain_measure(sched, (src, snk), interior, selection)
        ref = self.oracle_weights(sched, src, interior, snk)
        assert list(res.labels) == list(itertools.product(range(dim), repeat=len(interior)))
        assert res.labels[res.selected] == tuple(selection)
        for label, weight in zip(res.labels, res.delta_psi):
            assert abs(weight - ref[label]) <= 1e-12

    def test_branch_override_chain_matches_raw_weights(self):
        rng = np.random.default_rng(3100)
        dim = 3
        fwd = random_schedule(rng, dim, 2)
        sched = HamiltonianSchedule(
            fwd.pieces,
            branch_override=tuple(
                SchedulePiece(p.t_start, p.t_end, random_hermitian(rng, dim))
                for p in fwd.pieces
            ),
        )
        src, interior, snk = self.random_chain(rng, dim, 2, sched)
        ref = self.oracle_weights(sched, src, interior, snk)
        assert max(abs(w.imag) for w in ref.values()) > 1e-3
        for joint, weight in ref.items():
            pts = [src, *(FixedPoint(t, b[k]) for (t, b), k in zip(interior, joint)), snk]
            assert abs(chain_delta_psi(sched, pts) - weight) <= 1e-12
        with pytest.raises(RealnessViolation):
            chain_measure(sched, (src, snk), interior, [0, 0])
