import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpf import measure, oracle
from fpf.contour import Branch
from fpf.dynamics import HamiltonianSchedule, SchedulePiece, propagate, propagators
from fpf.errors import (
    DegenerateNormalizer,
    ImpossiblePostSelection,
    InstanceTooLarge,
    NumericalCheckFailure,
    RealnessViolation,
    ValidationError,
)
from fpf.histories import FixedPoint, make_history
from fpf.measure import (
    MAX_JOINTS,
    MeasureResult,
    abl_measure,
    born_measure,
    chain_delta_psi,
    chain_measure,
)
from fpf.scenario import random_basis, random_hermitian, random_schedule, random_state
from fpf.statespace import (
    Basis,
    HermitianOperator,
    standard_basis,
)
from fpf.tolerances import tolerance_overrides

SQRT2 = np.sqrt(2.0)
QUARTER = float(np.pi / 4)
SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))
E0, E1 = standard_basis(2).rows
PLUS = np.array([1, 1], dtype=complex) / SQRT2

F, B = Branch.FORWARD, Branch.BACKWARD


def constant(h, t0=0.0, t1=1.0):
    return HamiltonianSchedule((SchedulePiece(t0, t1, h),))


SX_SCHED = constant(SX, 0.0, QUARTER)
FREE = constant(ZERO2)


def amplitude(sched, branch, src, dst):
    """Transition amplitude <dst| U_branch(dst.t, src.t) |src>."""
    u = propagate(sched, branch, src.t, dst.t).mat
    return complex(np.vdot(dst.state, u @ src.state))


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
        for i, phi in enumerate(standard_basis(2).rows):
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
        direct = [abs(np.vdot(phi, u.mat @ prep.state)) ** 2 for phi in outcomes.rows]
        np.testing.assert_allclose(res.measures, direct, atol=1e-10)
        assert abs(sum(res.measures) - 1.0) <= 1e-10
        # complete basis and unit preparation: unnormalized weights already sum to 1
        assert res.normalizer == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_normalizer(self):
        # a "basis" that misses the evolved state entirely cannot arise from
        # the Basis type, so feed the measure a crafted incomplete stand-in
        lying = Basis.__new__(Basis)
        object.__setattr__(lying, "rows", E1[None])
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
        evolved = u.mat @ pre.state
        perp = np.array([-np.conj(evolved[1]), np.conj(evolved[0])])
        outcomes = Basis(np.array([evolved, perp]))
        res = chain_measure(sched, (pre, post), [(t, outcomes)], [0])
        pair = chain_delta_psi(sched, (pre, post)).real
        assert res.delta_psi[res.selected] == pytest.approx(pair, abs=1e-12)
        # brute force over all interior outcomes: only the evolved state
        # carries weight, so the normalizer is the bare pair weight and the
        # selected measure is certain
        u2 = propagate(sched, F, t, 1.0).mat
        brute = sum(
            abs(np.vdot(a, evolved)) ** 2
            * abs(np.vdot(post.state, u2 @ a)) ** 2
            for a in outcomes.rows
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
        pts = (pre, FixedPoint(ta, b1.rows[1]), FixedPoint(tb, b2.rows[0]), post)
        assert res.delta_psi[res.selected] == pytest.approx(
            chain_delta_psi(sched, pts).real, abs=1e-14
        )

    def test_selection_validation(self):
        pre, post = FixedPoint(0.0, E0), FixedPoint(1.0, E0)
        with pytest.raises(ValidationError):
            chain_measure(FREE, (pre, post), [(0.5, standard_basis(2))], [5])
        with pytest.raises(ValidationError):
            chain_measure(FREE, (pre, post), [(0.5, standard_basis(2))], [])

    @pytest.mark.parametrize(
        "endpoints, interior, message",
        [
            ((FixedPoint(0.0, E0), None), [(0.5, standard_basis(3))], "slot states must have the schedule's dim 2"),
            ((FixedPoint(0.0, E0), None), [], "a history weight needs at least two fixed points"),
        ],
        ids=["slot-dim", "one-point"],
    )
    def test_malformed_slots_rejected(self, endpoints, interior, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            chain_measure(FREE, endpoints, interior, None)


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


def seeded_chain(rng, n_slots, sink):
    """A chain of dim 2-6 over 1-4 pieces: the source at the schedule's
    start, n_slots random bases at sorted uniform times, and a sink at its
    end when asked for."""
    dim = int(rng.integers(2, 7))
    sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
    t0, t1 = sched.t_start, sched.t_end
    interior = [(float(t), random_basis(rng, dim)) for t in np.sort(rng.uniform(t0, t1, n_slots))]
    src = FixedPoint(t0, random_state(rng, dim))
    snk = FixedPoint(t1, random_state(rng, dim)) if sink else None
    return sched, (src, snk), interior


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
        spun = FixedPoint(t0, phase * pre.state)
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
        shuffled = Basis(outcomes.rows[perm])
        res_p = born_measure(sched, prep, sched.t_end, shuffled)
        np.testing.assert_allclose(res_p.measures, res.measures[perm], atol=1e-14)

    @staticmethod
    def symmetry_cases():
        """Chains `seed` + 4000 for seeds 0-299: 0-3 slots, with a sink when
        there is no slot and otherwise by a coin; each comes with its rng for
        the symmetry's own draws and its measure."""
        for seed in range(300):
            rng = np.random.default_rng(seed + 4000)
            n_slots = int(rng.integers(0, 4))
            sched, endpoints, interior = seeded_chain(rng, n_slots, n_slots == 0 or bool(rng.integers(2)))
            yield seed, rng, sched, endpoints, interior, chain_measure(sched, endpoints, interior, None)

    @staticmethod
    def sink_cases():
        """Chains `seed` + 4000 for seeds 0-299 with 0-3 slots and a sink,
        each with its rng for the symmetry's own draws and its measure."""
        for seed in range(300):
            rng = np.random.default_rng(seed + 4000)
            sched, endpoints, interior = seeded_chain(rng, int(rng.integers(0, 4)), True)
            yield seed, rng, sched, endpoints, interior, chain_measure(sched, endpoints, interior, None)

    def test_time_reversal_reverses_the_joint_order(self):
        # ABL's time symmetry: pieces in reverse order over negated times with
        # conjugated generators, source and sink swapped and conjugated, slots
        # reversed with conjugated rows; worst gap 5.6e-16
        for seed, _, sched, (src, snk), interior, base in self.sink_cases():
            reversed_sched = HamiltonianSchedule(tuple(
                SchedulePiece(-p.t_end, -p.t_start, HermitianOperator(p.hamiltonian.mat.conj()))
                for p in reversed(sched.pieces)
            ))
            endpoints = (FixedPoint(-snk.t, snk.state.conj()), FixedPoint(-src.t, src.state.conj()))
            slots = [(-t, Basis(basis.rows.conj())) for t, basis in reversed(interior)]
            res = chain_measure(reversed_sched, endpoints, slots, None)
            sizes = [len(basis) for _, basis in interior]
            want = base.delta_psi.reshape(sizes).transpose().ravel()
            gap = float(np.abs(res.delta_psi - want).max())
            assert gap <= 1e-12, f"seed {seed}: weights moved by {gap:.3e}"

    def test_splitting_a_piece_changes_no_weight(self):
        # one piece cut at an interior time, the same generator on both
        # halves; worst gap 8.9e-16
        for seed, rng, sched, endpoints, interior, base in self.sink_cases():
            pieces = list(sched.pieces)
            k = int(rng.integers(0, len(pieces)))
            p = pieces[k]
            cut = float(rng.uniform(p.t_start, p.t_end))
            pieces[k : k + 1] = [
                SchedulePiece(p.t_start, cut, p.hamiltonian),
                SchedulePiece(cut, p.t_end, p.hamiltonian),
            ]
            res = chain_measure(HamiltonianSchedule(tuple(pieces)), endpoints, interior, None)
            gap = float(np.abs(res.delta_psi - base.delta_psi).max())
            assert gap <= 1e-12, f"seed {seed}: weights moved by {gap:.3e}"

    def test_energy_shift_changes_no_weight(self):
        # H -> H + cI gives U_F a phase that the conjugate U_B cancels; worst gap 2.6e-15
        for seed, rng, sched, endpoints, interior, base in self.symmetry_cases():
            shift = rng.uniform(-5, 5) * np.eye(sched.dim)
            shifted = HamiltonianSchedule(tuple(
                SchedulePiece(p.t_start, p.t_end, HermitianOperator(p.hamiltonian.mat + shift))
                for p in sched.pieces
            ))
            res = chain_measure(shifted, endpoints, interior, None)
            gap = float(np.abs(res.delta_psi - base.delta_psi).max())
            assert gap <= 1e-12, f"seed {seed}: weights moved by {gap:.3e}"

    def test_unit_phases_change_no_weight(self):
        # a phase on the source, the sink or a basis row enters each weight
        # with its conjugate; worst gap 5.6e-16
        for seed, rng, sched, (src, snk), interior, base in self.symmetry_cases():
            src = FixedPoint(src.t, np.exp(2j * np.pi * rng.uniform()) * src.state)
            if snk is not None:
                snk = FixedPoint(snk.t, np.exp(2j * np.pi * rng.uniform()) * snk.state)
            interior = [
                (t, Basis(basis.rows * np.exp(2j * np.pi * rng.uniform(size=(len(basis), 1)))))
                for t, basis in interior
            ]
            res = chain_measure(sched, (src, snk), interior, None)
            gap = float(np.abs(res.delta_psi - base.delta_psi).max())
            assert gap <= 1e-12, f"seed {seed}: weights moved by {gap:.3e}"


class TestCausality:
    """Chain `seed` + 5000, seeds 0-199, has 2-4 slots and keeps its first
    k, 1 <= k < slots. Summed over its later slots, the open chain's measure
    is the measure of the chain cut after slot k: a later slot does not
    reach back. With a sink the sum differs, because post-selection does
    (worst open gap 6.7e-16, smallest gap with a sink 3.7e-4)."""

    @staticmethod
    def gaps(sink):
        for seed in range(200):
            rng = np.random.default_rng(seed + 5000)
            n_slots = int(rng.integers(2, 5))
            k = int(rng.integers(1, n_slots))
            sched, (src, snk), interior = seeded_chain(rng, n_slots, True)
            full = chain_measure(sched, (src, snk if sink else None), interior, None)
            sizes = [len(basis) for _, basis in interior]
            marginal = full.measures.reshape(sizes).sum(axis=tuple(range(k, n_slots))).ravel()
            cut = chain_measure(sched, (src, None), interior[:k], None).measures
            yield seed, float(np.abs(marginal - cut).max())

    def test_open_chain_marginal_is_the_cut_chain(self):
        for seed, gap in self.gaps(sink=False):
            assert gap <= 1e-12, f"seed {seed}: marginal off by {gap:.3e}"

    def test_a_sink_reaches_back(self):
        for seed, gap in self.gaps(sink=True):
            assert gap > 1e-8, f"seed {seed}: marginal within {gap:.3e} of the cut chain"


class TestLineIntegralAgreement:
    @pytest.mark.parametrize("n_points", [2, 3])
    def test_closed_form_within_integrator_bound(self, n_points):
        rng = np.random.default_rng(n_points)
        sched = random_schedule(rng, 2, 2)
        t0, t1 = sched.t_start, sched.t_end
        times = np.linspace(t0, t1, n_points)
        pts = [FixedPoint(float(t), random_state(rng, 2)) for t in times]
        closed = chain_delta_psi(sched, pts).real
        value, estimate, _ = oracle.contour_line_integral(sched, make_history(pts), 256)
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
            picked = (basis.rows[k] for (_, basis), k in zip(interior, joint))
            states = [src.state, *picked, snk.state]
            value = 1 + 0j
            for (fwd, back), a, b in zip(segments, states, states[1:]):
                value *= np.vdot(b, fwd @ a) * np.vdot(a, back @ b)
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

    @given(st.integers(1, 4).flatmap(
        lambda dim: st.tuples(st.just(dim), st.lists(st.integers(0, dim - 1), max_size=5 if dim < 4 else 4))
    ), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_selected_index_is_the_selection_among_labels(self, shape, seed, numpy_ints):
        # the index is found by mixed-radix arithmetic, not by searching the
        # labels, and is a Python int even for a selection of numpy integers
        dim, selection = shape
        rng = np.random.default_rng(seed)
        sched = random_schedule(rng, dim, 1)
        src, interior, snk = self.random_chain(rng, dim, len(selection), sched)
        chosen = list(np.array(selection, dtype=np.int64)) if numpy_ints else selection
        res = chain_measure(sched, (src, snk), interior, chosen)
        assert res.selected == res.labels.index(tuple(selection))
        assert type(res.selected) is int

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
            pts = [src, *(FixedPoint(t, b.rows[k]) for (t, b), k in zip(interior, joint)), snk]
            assert abs(chain_delta_psi(sched, pts) - weight) <= 1e-12
        with pytest.raises(RealnessViolation):
            chain_measure(sched, (src, snk), interior, [0, 0])


def one_loop_joint_weights(sched, slots):
    """The chain weights as one loop that forms each segment's amplitudes
    and multiplies them into the joints at once: the reference that the
    kernel and its enumerator must match bit for bit."""
    if len(slots) < 2:
        raise ValidationError("a history weight needs at least two fixed points")
    joints = math.prod(len(states) for _, states in slots)
    if joints > MAX_JOINTS:
        raise InstanceTooLarge(f"{joints} joint outcomes exceed the limit of {MAX_JOINTS}")
    if any(states.shape[1] != sched.dim for _, states in slots):
        raise ValidationError(f"slot states must have the schedule's dim {sched.dim}")
    times = [t for t, _ in slots]
    forward_us = propagators(sched, Branch.FORWARD, times)
    backward_us = propagators(sched, Branch.BACKWARD, times) if sched.branch_override else forward_us
    weights = np.ones((1, len(slots[0][1])), dtype=np.complex128)  # joints so far x states
    for (_, a), (_, b), u_f, u_b in zip(slots, slots[1:], forward_us, backward_us):
        u_f, u_b = u_f.mat, u_b.mat.conj().T  # u_b = U_B(t_b -> t_a)
        forward = b.conj() @ (u_f @ a.T)
        backward = a.conj() @ (u_b @ b.T)
        weights = (weights[..., None] * (forward.T * backward)).reshape(-1, len(b))
    return weights.ravel()


CHAINS = dict(
    dim=st.integers(1, 5),
    n_interior=st.integers(0, 4),
    sink=st.booleans(),
    override=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def random_slots(dim, n_interior, sink, override, seed):
    """A random schedule, with its own backward pieces under an override,
    and a chain's slots: a source state, n_interior bases and an optional
    sink state at evenly spaced times."""
    rng = np.random.default_rng(seed)
    sched = random_schedule(rng, dim, int(rng.integers(1, 4)))
    if override:
        sched = HamiltonianSchedule(sched.pieces, branch_override=tuple(
            SchedulePiece(p.t_start, p.t_end, random_hermitian(rng, dim)) for p in sched.pieces
        ))
    times = [float(t) for t in np.linspace(sched.t_start, sched.t_end, n_interior + 2)]
    slots = [(times[0], random_state(rng, dim)[None])]
    slots += [(t, random_basis(rng, dim).rows) for t in times[1:-1]]
    if sink:
        slots.append((times[-1], random_state(rng, dim)[None]))
    return sched, slots


class TestSegmentKernel:
    """The chain weights are the per-segment amplitude pairs of
    `_segment_amplitudes`, multiplied out by `_joint_weights`."""

    @given(**CHAINS)
    @settings(max_examples=80, deadline=None)
    def test_split_equals_the_one_loop(self, dim, n_interior, sink, override, seed):
        assume(sink or n_interior)
        sched, slots = random_slots(dim, n_interior, sink, override, seed)
        got = measure._joint_weights(sched, slots)
        assert np.array_equal(got, one_loop_joint_weights(sched, slots))

    @given(**CHAINS)
    @settings(max_examples=60, deadline=None)
    def test_transfer_product_is_the_enumerated_sum(self, dim, n_interior, sink, override, seed):
        # 1^T M_1 ... M_n 1, contracted from the kernel's pairs without
        # enumerating a joint; the worst gap over 1,807 such chains was
        # 4.4e-16
        assume(sink or n_interior)
        sched, slots = random_slots(dim, n_interior, sink, override, seed)
        z = np.ones(1)
        for forward, backward in measure._segment_amplitudes(sched, slots):
            z = z @ (forward.T * backward)
        assert abs(z.sum() - measure._joint_weights(sched, slots).sum()) <= 1e-14

    def test_over_cap_chain_builds_no_propagator(self, monkeypatch):
        calls = []
        monkeypatch.setattr(measure, "propagators", lambda *args: calls.append(args))
        interior = [(float(t), standard_basis(2)) for t in np.linspace(0.1, 0.9, 17)]
        with pytest.raises(InstanceTooLarge, match="^131072 joint outcomes exceed"):
            chain_measure(FREE, (FixedPoint(0.0, E0), None), interior, None)
        assert calls == []


class TestMeasureResultChecks:
    """MeasureResult refuses a normalizer that is not the sum of the weights
    beyond its fixed 1e-9 bound, and admits rounding below it."""

    @staticmethod
    def off_by(eps):
        # weights summing to 1 with a normalizer off by eps; measures sum to 1
        return dict(delta_psi=[0.5, 0.5], normalizer=1.0 + eps, measures=[0.5, 0.5],
                    labels=((0,), (1,)))

    def test_labels_one_short_are_refused(self):
        fields = dict(self.off_by(0.0), labels=((0,),))
        with pytest.raises(NumericalCheckFailure, match="^result arrays and labels disagree in length$"):
            MeasureResult(**fields)

    def test_wrong_normalizer_is_refused(self):
        with pytest.raises(NumericalCheckFailure, match="normalizer is not the sum"):
            MeasureResult(**self.off_by(1e-6))

    def test_rounding_is_admitted(self):
        assert MeasureResult(**self.off_by(1e-12)).normalizer == 1.0 + 1e-12

    @pytest.mark.parametrize("field", ["delta_psi", "normalizer", "measures"])
    def test_nan_is_refused(self, field):
        nan = float("nan")
        fields = self.off_by(0.0)
        fields[field] = nan if field == "normalizer" else [nan, 0.5]
        with pytest.raises(NumericalCheckFailure):
            MeasureResult(**fields)

    def test_measure_sum_tolerance_is_applied(self):
        # these measures sum to 1 - 2**-53 in floating point
        fields = dict(delta_psi=[0.3, 0.6, 0.1], normalizer=1.0, measures=[0.3, 0.6, 0.1],
                      labels=((0,), (1,), (2,)))
        assert MeasureResult(**fields).normalizer == 1.0
        with tolerance_overrides(measure_sum=0.0), pytest.raises(
            NumericalCheckFailure, match=r"^measures sum to 0\.9999999999999999, not 1$"
        ):
            MeasureResult(**fields)
