import numpy as np
import pytest

from fpf.contour import Branch
from fpf.dynamics import (
    HamiltonianSchedule,
    SchedulePiece,
    compose_check,
    propagate,
)
from fpf.errors import CoverageError, ValidationError
from fpf.scenario import random_schedule, random_state
from fpf.statespace import HermitianOperator, basis_state, expm_hermitian, unitarity_defect

SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
SZ = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))

F, B = Branch.FORWARD, Branch.BACKWARD


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
        with pytest.raises(CoverageError):
            propagate(constant(SX), F, 0.0, 2.0)

    def test_branch_override_changes_backward_only(self):
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, 1.0, SX),),
            branch_override=(SchedulePiece(0.0, 1.0, SZ),),
        )
        np.testing.assert_allclose(
            propagate(sched, F, 0.0, 1.0).mat, expm_hermitian(SX, 1.0).mat
        )
        np.testing.assert_allclose(
            propagate(sched, B, 0.0, 1.0).mat, expm_hermitian(SZ, 1.0).mat
        )


class TestApply:
    def test_identity(self):
        v = random_state(np.random.default_rng(1), 3)
        sched = HamiltonianSchedule((SchedulePiece(0.0, 1.0, HermitianOperator(np.zeros((3, 3)))),))
        np.testing.assert_array_equal(propagate(sched, F, 0.0, 1.0).mat @ v.amps, v.amps)

    def test_half_turn_flips_sign(self):
        u = propagate(constant(SZ, 0.0, np.pi), F, 0.0, np.pi)
        out = u.mat @ basis_state(2, 0).amps
        np.testing.assert_allclose(out, -basis_state(2, 0).amps, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        sched = random_schedule(rng, 5, 2)
        v = random_state(rng, 5)
        out = propagate(sched, F, sched.t_start, sched.t_end).mat @ v.amps
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestComposeCheck:
    def test_zero_hamiltonian(self):
        assert compose_check(constant(ZERO2), F, 0.0, 0.5, 1.0) == 0.0

    def test_constant_sigma_x(self):
        sched = constant(SX, 0.0, 2.0)
        assert compose_check(sched, F, 0.0, 1.0, 2.0) <= 1e-12

    def test_two_piece_split_at_boundary(self):
        sched = HamiltonianSchedule(
            (SchedulePiece(0.0, 1.0, SX), SchedulePiece(1.0, 2.0, SZ))
        )
        assert compose_check(sched, F, 0.0, 1.0, 2.0) <= 1e-10

    def test_order_violation(self):
        with pytest.raises(ValidationError):
            compose_check(constant(SX), F, 1.0, 0.5, 0.9)


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
    assert compose_check(sched, F, ta, tm, tb) <= 1e-10


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
