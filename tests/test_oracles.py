"""The oracles that only the tests use (tests/oracles.py) against the
library's series propagator and the engine's chain weight."""

import numpy as np
import pytest

from fpf.contour import Branch
from fpf.dynamics import HamiltonianSchedule, SchedulePiece
from fpf.errors import InstanceTooLarge, ValidationError
from fpf.histories import make_history
from fpf.measure import chain_delta_psi
from fpf.oracle import propagator, standard_born
from fpf.scenario import random_schedule, random_state
from fpf.statespace import FixedPoint, HermitianOperator, standard_basis
from oracles import DensityMatrix, expectation, tensor_sink_delta_psi

QUARTER = float(np.pi / 4)
SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
SZ = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))
E0, E1 = standard_basis(2).rows

F = Branch.FORWARD


def constant(h, t0=0.0, t1=1.0):
    return HamiltonianSchedule((SchedulePiece(t0, t1, h),))


class TestExpectation:
    def test_projector_on_initial_state(self):
        rho = DensityMatrix.from_state(E0)
        assert expectation(rho, constant(ZERO2), 0.0, 1.0, SZ) == pytest.approx(1.0)

    def test_identity_observable_is_trace(self):
        rng = np.random.default_rng(5)
        rho = DensityMatrix.from_state(random_state(rng, 2))
        sched = random_schedule(rng, 2, 2)
        obs = HermitianOperator(np.eye(2))
        assert expectation(rho, sched, sched.t_start, sched.t_end, obs) == pytest.approx(1.0)

    def test_quarter_rotation_kills_z_polarization(self):
        rho = DensityMatrix.from_state(E0)
        sched = constant(SX, 0.0, QUARTER)
        assert expectation(rho, sched, 0.0, QUARTER, SZ) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_projector_observable_links_to_born(self, seed):
        rng = np.random.default_rng(seed + 50)
        dim = int(rng.integers(2, 7))
        sched = random_schedule(rng, dim, 2)
        psi, phi = random_state(rng, dim), random_state(rng, dim)
        proj = HermitianOperator(np.outer(phi, phi.conj()))
        got = expectation(DensityMatrix.from_state(psi), sched, sched.t_start, sched.t_end, proj)
        want = standard_born(propagator(sched, F, sched.t_start, sched.t_end), psi, phi)
        assert got == pytest.approx(want, abs=1e-12)

    def test_density_matrix_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0], [0, 0.6]], dtype=complex))
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]], dtype=complex))


class TestTensorSink:
    def test_free_equal_states_weight_one(self):
        h = make_history([FixedPoint(0.0, E0), FixedPoint(1.0, E0)])
        # the unpropagated term drops out exactly by time-label orthogonality
        assert tensor_sink_delta_psi(constant(ZERO2), h) == 1.0

    def test_sigma_x_pair(self):
        sched = constant(SX, 0.0, QUARTER)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)])
        got = tensor_sink_delta_psi(sched, h)
        assert got == pytest.approx(0.5, abs=1e-13)
        assert got == pytest.approx(
            chain_delta_psi(sched, h).real, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_triple_matches_factorized_chain(self, seed):
        rng = np.random.default_rng(seed + 900)
        sched = random_schedule(rng, 2, int(rng.integers(1, 4)))
        t0, t1 = sched.t_start, sched.t_end
        pts = [
            FixedPoint(t0, random_state(rng, 2)),
            FixedPoint(float(rng.uniform(t0 + 0.05, t1 - 0.05)), random_state(rng, 2)),
            FixedPoint(t1, random_state(rng, 2)),
        ]
        got = tensor_sink_delta_psi(sched, make_history(pts))
        want = chain_delta_psi(sched, pts).real
        assert got == pytest.approx(want, abs=1e-12)

    def test_size_guard(self):
        rng = np.random.default_rng(1)
        sched = random_schedule(rng, 3, 1)
        pts = [
            FixedPoint(sched.t_start, random_state(rng, 3)),
            FixedPoint(sched.t_end, random_state(rng, 3)),
        ]
        with pytest.raises(InstanceTooLarge):
            tensor_sink_delta_psi(sched, make_history(pts))
