from pathlib import Path

import numpy as np
import pytest

import fpf.dynamics
import fpf.oracle
import fpf.scenario
import fpf.statespace
from fpf.contour import Branch
from fpf.dynamics import (
    HamiltonianSchedule,
    SchedulePiece,
    propagate,
    propagators,
)
from fpf.errors import ValidationError
from fpf.scenario import (
    parse_scenario,
    random_hermitian,
    random_scenario,
    random_schedule,
    random_state,
    run,
    serialize_scenario,
)
from fpf.statespace import (
    HermitianOperator,
    expm_hermitian,
    unitarity_defect,
)

SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
SZ = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))

F, B = Branch.FORWARD, Branch.BACKWARD
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def spectral(h, s):
    """exp(-i s h) for one generator: the one-span case of expm_hermitian."""
    w, v = np.linalg.eigh(h.mat[np.newaxis])
    return expm_hermitian(w, v, np.array([s]))[0]


def constant(h, t0=0.0, t1=1.0):
    return HamiltonianSchedule((SchedulePiece(t0, t1, h),))


class TestScheduleValidation:
    def test_gap_rejected(self):
        with pytest.raises(ValidationError):
            HamiltonianSchedule(
                (SchedulePiece(0.0, 1.0, SX), SchedulePiece(1.5, 2.0, SZ))
            )

    def test_reversed_piece_rejected(self):
        with pytest.raises(ValidationError):
            SchedulePiece(1.0, 0.0, SX)

    def test_override_must_cover_same_interval(self):
        with pytest.raises(ValidationError):
            HamiltonianSchedule(
                (SchedulePiece(0.0, 1.0, SX),),
                branch_override=(SchedulePiece(0.0, 2.0, SZ),),
            )

    @pytest.mark.parametrize(
        "pieces, override, message",
        [
            ((), None, "schedule needs at least one piece"),
            ((SchedulePiece(0.0, 1.0, SX), SchedulePiece(1.0, 2.0, HermitianOperator(np.eye(3)))), None,
             "schedule pieces have differing dimensions"),
            ((SchedulePiece(0.0, 1.0, SX),), (SchedulePiece(0.0, 1.0, HermitianOperator(np.eye(3))),),
             "branch override has a different dimension"),
        ],
        ids=["no-pieces", "mixed-dims", "override-dim"],
    )
    def test_malformed_schedule_rejected(self, pieces, override, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            HamiltonianSchedule(pieces, override)

    def test_contiguous_two_pieces_ok(self):
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, 1.0, SX), SchedulePiece(1.0, 2.0, SZ))
        )
        assert sched.t_start == 0.0 and sched.t_end == 2.0


class TestPropagate:
    def test_zero_hamiltonian_is_identity(self):
        u = propagate(constant(ZERO2), F, 0.2, 0.9)
        np.testing.assert_array_equal(u.mat, np.eye(2))

    def test_sigma_x_quarter_closed_form(self):
        sched = constant(SX, 0.0, np.pi / 4)
        u = propagate(sched, F, 0.0, np.pi / 4)
        closed = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SX.mat
        np.testing.assert_allclose(u.mat, closed, atol=1e-15)

    def test_backward_traversal_is_adjoint(self):
        sched = constant(SX, 0.0, np.pi / 4)
        fwd = propagate(sched, F, 0.0, np.pi / 4)
        back = propagate(sched, B, np.pi / 4, 0.0)
        np.testing.assert_allclose(back.mat, fwd.mat.conj().T, atol=1e-15)

    def test_same_time_is_identity(self):
        sched = random_schedule(np.random.default_rng(0), 4, 3)
        mid = 0.5 * (sched.t_start + sched.t_end)
        np.testing.assert_array_equal(propagate(sched, F, mid, mid).mat, np.eye(4))

    def test_outside_coverage(self):
        with pytest.raises(ValidationError, match=r"^time 2\.0 outside schedule coverage \[0\.0, 1\.0\]$"):
            propagate(constant(SX), F, 0.0, 2.0)

    def test_branch_override_changes_backward_only(self):
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, 1.0, SX),),
            branch_override=(SchedulePiece(0.0, 1.0, SZ),),
        )
        np.testing.assert_allclose(
            propagate(sched, F, 0.0, 1.0).mat, spectral(SX, 1.0)
        )
        np.testing.assert_allclose(
            propagate(sched, B, 0.0, 1.0).mat, spectral(SZ, 1.0)
        )


class TestApply:
    def test_identity(self):
        v = random_state(np.random.default_rng(1), 3)
        sched = HamiltonianSchedule((SchedulePiece(0.0, 1.0, HermitianOperator(np.zeros((3, 3)))),))
        np.testing.assert_array_equal(propagate(sched, F, 0.0, 1.0).mat @ v, v)

    def test_half_turn_flips_sign(self):
        u = propagate(constant(SZ, 0.0, np.pi), F, 0.0, np.pi)
        e0 = np.array([1.0, 0.0])
        np.testing.assert_allclose(u.mat @ e0, -e0, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        sched = random_schedule(rng, 5, 2)
        v = random_state(rng, 5)
        out = propagate(sched, F, sched.t_start, sched.t_end).mat @ v
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def _composition(sched, t1, t2, t3):
    """Residual of the group property, ||U(t1 -> t3) - U(t2 -> t3) U(t1 -> t2)||_F."""
    (whole,) = propagators(sched, F, (t1, t3))
    early, late = propagators(sched, F, (t1, t2, t3))
    return float(np.linalg.norm(whole.mat - late.mat @ early.mat))


class TestComposeCheck:
    def test_zero_hamiltonian(self):
        assert _composition(constant(ZERO2), 0.0, 0.5, 1.0) == 0.0

    def test_constant_sigma_x(self):
        sched = constant(SX, 0.0, 2.0)
        assert _composition(sched, 0.0, 1.0, 2.0) <= 1e-12

    def test_two_piece_split_at_boundary(self):
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, 1.0, SX), SchedulePiece(1.0, 2.0, SZ))
        )
        assert _composition(sched, 0.0, 1.0, 2.0) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_random_schedule_laws(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
    t0, t1 = sched.t_start, sched.t_end
    ta, tb = sorted(rng.uniform(t0, t1, 2))
    for branch in (F, B):
        u = propagate(sched, branch, ta, tb)
        assert unitarity_defect(u.mat) <= 1e-10
        # reversal
        np.testing.assert_allclose(
            propagate(sched, branch, tb, ta).mat, u.mat.conj().T, atol=1e-10
        )
    # branch agreement without an override
    np.testing.assert_array_equal(
        propagate(sched, F, ta, tb).mat, propagate(sched, B, ta, tb).mat
    )
    # composition across a random midpoint
    tm = float(rng.uniform(ta, tb))
    assert _composition(sched, ta, tm, tb) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_refinement_leaves_propagator_unchanged(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    sched = random_schedule(rng, dim, int(rng.integers(1, 4)))
    # split one piece in two at an interior point, same generator
    pieces = list(sched.pieces)
    k = int(rng.integers(0, len(pieces)))
    p = pieces[k]
    cut = float(rng.uniform(p.t_start, p.t_end))
    refined = pieces[:k] + [
        SchedulePiece(p.t_start, cut, p.hamiltonian),
        SchedulePiece(cut, p.t_end, p.hamiltonian),
    ] + pieces[k + 1 :]
    refined_sched = HamiltonianSchedule(tuple(refined))
    u = propagate(sched, F, sched.t_start, sched.t_end)
    v = propagate(refined_sched, F, sched.t_start, sched.t_end)
    np.testing.assert_allclose(u.mat, v.mat, atol=1e-12)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the
    list of recorded calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkCounts:
    """One `run` with P pieces and no branch override diagonalizes the
    schedule's generators in one stacked eigh, sums the Born/ABL oracle's
    spans in one series exponential, and checks its one stack of engine
    propagators for unitarity once: for validate that stack holds
    U(t0, t1), U(t1, t0) and the two halves."""

    KINDS = ["born", "abl", "chain", "validate"]
    ENGINE_CHECKS = {"born": 1, "abl": 1, "chain": 1, "validate": 1}
    SERIES_CALLS = {"born": 1, "abl": 1, "chain": 0, "validate": 0}

    @staticmethod
    def scenario(seed, n_pieces, kind):
        # the queries of random scenarios touch every piece
        return parse_scenario(serialize_scenario(random_scenario(seed, 5, n_pieces, kind)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_pieces", [1, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_eigh_per_run(self, monkeypatch, seed, n_pieces, kind):
        # a run's work depends on its scenario alone: a second run of the
        # same parsed scenario repeats the first, with nothing cached between
        scenario = self.scenario(seed, n_pieces, kind)
        calls = count_calls(monkeypatch, fpf.statespace.np.linalg, "eigh")
        for _ in range(2):
            calls.clear()
            run(scenario)
            assert len(calls) == 1
            assert calls[0][0].shape == (n_pieces, 5, 5)

    def test_builtin_bases_are_built_once_per_parse(self, monkeypatch):
        # state "z:0" and outcomes "z" share one built-in basis, which the
        # parsed query keeps, so run builds none
        calls = count_calls(monkeypatch, fpf.scenario, "standard_basis")
        scenario = parse_scenario((SCENARIOS / "born_sx_quarter.json").read_bytes())
        assert len(calls) == 1
        run(scenario)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_pieces", [1, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_series_exponential_per_oracle(self, monkeypatch, seed, n_pieces, kind):
        scenario = self.scenario(seed, n_pieces, kind)
        calls = count_calls(monkeypatch, fpf.oracle, "_expm_series")
        run(scenario)
        assert len(calls) == self.SERIES_CALLS[kind]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_pieces", [1, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_unitarity_check_per_stack(self, monkeypatch, seed, n_pieces, kind):
        scenario = self.scenario(seed, n_pieces, kind)
        calls = count_calls(monkeypatch, fpf.dynamics, "unitaries")
        run(scenario)
        assert len(calls) == self.ENGINE_CHECKS[kind]


def reference_propagators(sched, branch, times):
    """U(t_k -> t_k+1) by the per-piece route: one eigh per piece, each
    exponential (v * exp(-i s w)) @ v^H on its own, multiplied onto the
    identity in time order, latest factor leftmost."""
    out = []
    for lo, hi in zip(times, times[1:]):
        u = np.eye(sched.dim, dtype=np.complex128)
        for piece in sched.pieces_for(branch):
            a, b = max(lo, piece.t_start), min(hi, piece.t_end)
            if b > a:
                w, v = np.linalg.eigh(piece.hamiltonian.mat)
                u = ((v * np.exp(-1j * (b - a) * w)) @ v.conj().T) @ u
        out.append(u)
    return out


def random_override(rng, sched):
    """Backward pieces of their own over the schedule's interval."""
    n = int(rng.integers(1, 5))
    bounds = np.linspace(sched.t_start, sched.t_end, n + 1).tolist()
    bounds[-1] = sched.t_end
    return tuple(
        SchedulePiece(a, b, random_hermitian(rng, sched.dim)) for a, b in zip(bounds, bounds[1:])
    )


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_stacked_propagators_match_the_per_piece_product(seed, override):
    rng = np.random.default_rng(seed + 700)
    dim = int(rng.integers(2, 9))
    sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
    if override:
        sched = HamiltonianSchedule(sched.pieces, branch_override=random_override(rng, sched))
    inner = sorted(rng.uniform(sched.t_start, sched.t_end, int(rng.integers(0, 4))).tolist())
    times = [sched.t_start, *inner, sched.t_end]
    for branch in (F, B):
        want = reference_propagators(sched, branch, times)
        got = propagators(sched, branch, times)
        assert len(got) == len(want)
        for u, ref in zip(got, want):
            assert np.array_equal(u.mat, ref)
        for (ta, tb), ref in zip(zip(times, times[1:]), want):
            assert np.array_equal(propagate(sched, branch, ta, tb).mat, ref)
            assert np.array_equal(propagate(sched, branch, tb, ta).mat, ref.conj().T)
