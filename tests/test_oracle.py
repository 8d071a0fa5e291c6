import ast
from pathlib import Path

import numpy as np
import pytest

from fpf.contour import Branch
from fpf.dynamics import HamiltonianSchedule, SchedulePiece, propagate
from fpf.errors import InstanceTooLarge, ValidationError, ZeroDenominator
from fpf.histories import FixedPoint, make_history
from fpf.measure import chain_delta_psi
from fpf.oracle import (
    DensityMatrix,
    _rk4_segment,
    abl_rule,
    contour_line_integral,
    expectation,
    propagator,
    standard_born,
    tensor_sink_delta_psi,
)
from fpf.scenario import random_basis, random_schedule, random_state
from fpf.statespace import (
    HermitianOperator,
    StateVector,
    UnitaryMatrix,
    basis_state,
    standard_basis,
)

SQRT2 = np.sqrt(2.0)
QUARTER = float(np.pi / 4)
SX = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
SZ = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))
ZERO2 = HermitianOperator(np.zeros((2, 2)))
E0, E1 = basis_state(2, 0), basis_state(2, 1)
PLUS = StateVector(np.array([1, 1]) / SQRT2)

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
        total = sum(standard_born(u, psi, phi) for phi in random_basis(rng, dim))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestAblRule:
    def test_plus_postselection(self):
        probs = abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), E0, standard_basis(2), PLUS)
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-15)

    def test_symmetric_case(self):
        probs = abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), PLUS, standard_basis(2), PLUS)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            abl_rule(UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)), E0, standard_basis(2), E1)


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
        proj = HermitianOperator(np.outer(phi.amps, phi.amps.conj()))
        got = expectation(DensityMatrix.from_state(psi), sched, sched.t_start, sched.t_end, proj)
        want = standard_born(propagator(sched, F, sched.t_start, sched.t_end), psi, phi)
        assert got == pytest.approx(want, abs=1e-12)

    def test_density_matrix_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0], [0, 0.6]], dtype=complex))
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]], dtype=complex))


class TestLineIntegral:
    def test_free_evolution_exact(self):
        h = make_history([FixedPoint(0.0, E0), FixedPoint(1.0, E0)])
        value, estimate = contour_line_integral(constant(ZERO2), h, 4)
        assert value == 1.0
        assert estimate < 1e-13

    def test_sigma_x_quarter_converges(self):
        sched = constant(SX, 0.0, QUARTER)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)])
        value, estimate = contour_line_integral(sched, h, 256)
        assert abs(value - 0.5) <= estimate

    def test_observed_order_at_least_3_5(self):
        sched = constant(SX, 0.0, QUARTER)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(QUARTER, E1)])
        closed = chain_delta_psi(sched, h.points).real
        errors = []
        for steps in (8, 16, 32):
            value, _ = contour_line_integral(sched, h, steps)
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
        value, estimate = contour_line_integral(sched, make_history(pts), 512)
        assert abs(value - closed) <= estimate
        assert estimate <= 1e-6

    def test_overflow_is_instance_too_large(self):
        # a z:0 -> z:0 chain over 1e20 time units: the stepped map overflows
        sched = constant(SX, 0.0, 1e20)
        h = make_history([FixedPoint(0.0, E0), FixedPoint(5e19, PLUS), FixedPoint(1e20, E0)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstanceTooLarge):
            contour_line_integral(sched, h, 512)


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
            psi = random_state(rng, dim).amps
            t_a, t_b = sorted(rng.uniform(-1.0, 1.0, 2))
            if backward:
                t_a, t_b = t_b, t_a
            got = _rk4_segment(h, psi, t_a, t_b, steps)
            want = _rk4_stepping(h, psi, t_a, t_b, steps)
            assert np.max(np.abs(got - want)) <= 1e-13, (dim, np.max(np.abs(got - want)))


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
            chain_delta_psi(sched, h.points).real, abs=1e-12
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

    # 1e20 overflows in the squarings, 1e308 even the scaling factor 2**squarings
    @pytest.mark.parametrize("span", [1e20, 1e308])
    def test_overflow_is_instance_too_large(self, span):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstanceTooLarge):
            propagator(constant(SX, 0.0, span), F, 0.0, span)


class TestIndependence:
    # eigh and expm would turn the RK4 line integral into an exact exponential
    # and leave its Richardson estimate measuring nothing
    ENGINE_NAMES = {"propagate", "apply", "compose_check", "expm_hermitian", "eigh", "expm"}

    def test_oracle_shares_no_propagator_code(self):
        import fpf.oracle

        tree = ast.parse(Path(fpf.oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("fpf.")
                names = {alias.name for alias in node.names}
                assert module != "measure" and not (module in ("", "fpf") and "measure" in names)
                assert not names & self.ENGINE_NAMES, names & self.ENGINE_NAMES
            elif isinstance(node, ast.Import):
                assert all(alias.name != "fpf.measure" for alias in node.names)
            elif isinstance(node, ast.Name):
                assert node.id not in self.ENGINE_NAMES, node.id
            elif isinstance(node, ast.Attribute):
                assert node.attr not in self.ENGINE_NAMES, node.attr

    def test_oracle_imports_no_scipy(self):
        import fpf.oracle

        tree = ast.parse(Path(fpf.oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "scipy", node.module
            elif isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "scipy" for alias in node.names)
