import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf.errors import ValidationError
from fpf.statespace import (
    Basis,
    HermitianOperator,
    StateVector,
    UnitaryMatrix,
    basis_state,
    check_basis,
    expm_hermitian,
    standard_basis,
)

SQRT2 = np.sqrt(2.0)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def expm_taylor(mat, terms=60):
    """Plain power-series exponential; independent of the spectral route.
    Only valid for modest norms."""
    out = np.eye(mat.shape[0], dtype=complex)
    term = out.copy()
    for k in range(1, terms):
        term = term @ mat / k
        out = out + term
    return out


class TestCheckBasis:
    def test_standard_dim4(self):
        assert check_basis(standard_basis(4).elements)

    def test_repeated_vector(self):
        e0 = basis_state(2, 0)
        assert not check_basis([e0, e0])

    def test_hadamard_pair(self):
        plus = StateVector(np.array([1, 1]) / SQRT2)
        minus = StateVector(np.array([1, -1]) / SQRT2)
        assert check_basis([plus, minus])

    def test_incomplete_set(self):
        assert not check_basis([basis_state(3, 0), basis_state(3, 1)])

    def test_basis_type_raises_on_bad_input(self):
        e0 = basis_state(2, 0)
        with pytest.raises(ValidationError):
            Basis((e0, e0))


class TestExpmHermitian:
    def test_zero_generator(self):
        h = HermitianOperator(np.zeros((3, 3)))
        np.testing.assert_array_equal(expm_hermitian(h, 2.7), np.eye(3))

    def test_sigma_z_half_turn(self):
        u = expm_hermitian(HermitianOperator(SZ), np.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u, expm_taylor(-1j * np.pi * SZ), atol=1e-13)

    def test_sigma_x_quarter(self):
        u = expm_hermitian(HermitianOperator(SX), np.pi / 4)
        closed = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SX
        np.testing.assert_allclose(u, closed, atol=1e-15)
        np.testing.assert_allclose(u, expm_taylor(-1j * (np.pi / 4) * SX), atol=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_group_property(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = HermitianOperator((a + a.conj().T) / 2)
        s, t = rng.uniform(-10, 10, 2)
        prod = expm_hermitian(h, s) @ expm_hermitian(h, t)
        np.testing.assert_allclose(prod, expm_hermitian(h, s + t), atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_adjoint_reverses_time(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = HermitianOperator((a + a.conj().T) / 2)
        s = float(rng.uniform(-10, 10))
        np.testing.assert_allclose(
            expm_hermitian(h, s).conj().T, expm_hermitian(h, -s), atol=1e-12
        )


class TestInvariants:
    def test_state_rejects_nan(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([np.nan, 0.0]))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_values_are_frozen(self):
        v = basis_state(2, 0)
        with pytest.raises(ValueError):
            v.amps[0] = 5.0
