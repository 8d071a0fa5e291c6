import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf.errors import ValidationError
from fpf.histories import FixedPoint
from fpf.statespace import (
    Basis,
    HermitianOperator,
    UnitaryMatrix,
    _flat_norm,
    expm_hermitian,
    hermitians,
    is_unit,
    standard_basis,
    unitaries,
)
from fpf.tolerances import tolerance_overrides

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


def spectral(h, s):
    """exp(-i s h) for one generator: the one-span case of expm_hermitian."""
    w, v = np.linalg.eigh(h.mat[np.newaxis])
    return expm_hermitian(w, v, np.array([s]))[0]


class TestCheckBasis:
    """The Gram check in Basis's constructor: the rows of a (d, d) array
    must be orthonormal within basis_orthonormal."""

    def test_standard_dim4(self):
        basis = standard_basis(4)
        np.testing.assert_array_equal(basis.rows, np.eye(4))
        assert basis.dim == len(basis) == 4

    def test_repeated_vector(self):
        with pytest.raises(ValidationError, match="not orthonormal"):
            Basis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_hadamard_pair(self):
        basis = Basis(np.array([[1, 1], [1, -1]]) / SQRT2)
        plus, minus = basis.rows
        np.testing.assert_array_equal(plus, np.array([1, 1]) / SQRT2)
        np.testing.assert_array_equal(minus, np.array([1, -1]) / SQRT2)

    def test_rows_are_the_only_element_access(self):
        basis = standard_basis(2)
        with pytest.raises(TypeError):
            iter(basis)
        with pytest.raises(TypeError):
            basis[0]

    def test_incomplete_set(self):
        with pytest.raises(ValidationError, match="needs 3 elements, got 2"):
            Basis(np.eye(3)[:2])

    def test_basis_type_raises_on_bad_input(self):
        for rows, message in [
            (np.array([1.0, 0.0]), "nonempty 2-D"),
            (np.zeros((0, 0)), "nonempty 2-D"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        ]:
            with pytest.raises(ValidationError, match=message):
                Basis(rows)

    def test_gram_overflow_to_nan_is_refused(self):
        # finite rows whose Gram product overflows: inf - inf is NaN, and NaN > tol is False
        rows = np.array([[1e200 + 1e200j, 1e200 - 1e200j], [1e200, -1e200]])
        with np.errstate(all="raise"):  # the check itself raises no floating-point warning
            with pytest.raises(ValidationError, match="^basis elements are not orthonormal within tolerance$"):
                Basis(rows)

    def test_rows_are_one_read_only_c_contiguous_copy(self):
        q = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        basis = Basis(q.T)  # a Fortran-ordered view of q
        assert basis.rows.flags.c_contiguous and not basis.rows.flags.writeable
        assert basis.rows.dtype == np.complex128
        np.testing.assert_array_equal(basis.rows, q.T)
        assert not np.shares_memory(basis.rows, q)


class TestExpmHermitian:
    def test_zero_generator(self):
        h = HermitianOperator(np.zeros((3, 3)))
        np.testing.assert_array_equal(spectral(h, 2.7), np.eye(3))

    def test_sigma_z_half_turn(self):
        u = spectral(HermitianOperator(SZ), np.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u, expm_taylor(-1j * np.pi * SZ), atol=1e-13)

    def test_sigma_x_quarter(self):
        u = spectral(HermitianOperator(SX), np.pi / 4)
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
        prod = spectral(h, s) @ spectral(h, t)
        np.testing.assert_allclose(prod, spectral(h, s + t), atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_adjoint_reverses_time(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = HermitianOperator((a + a.conj().T) / 2)
        s = float(rng.uniform(-10, 10))
        np.testing.assert_allclose(
            spectral(h, s).conj().T, spectral(h, -s), atol=1e-12
        )


class TestInvariants:
    def test_state_rejects_nan(self):
        with pytest.raises(ValidationError):
            FixedPoint(0.0, np.array([np.nan, 0.0]))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_values_are_frozen(self):
        point = FixedPoint(0.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            point.state[0] = 5.0

    def test_fixed_points_compare_by_time_and_values(self):
        point = FixedPoint(0.5, np.array([1.0, 0.0]))
        assert point == FixedPoint(0.5, np.array([1.0 + 0j, 0.0]))
        assert point != FixedPoint(0.5, np.array([0.0, 1.0]))
        assert point != FixedPoint(0.25, np.array([1.0, 0.0]))


def message(fn, *args):
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return str(info.value)


class TestHermitians:
    """A stack of generators is checked once, by the one rule that
    HermitianOperator applies to a stack of one; the first failing matrix
    names the error."""

    def test_one_read_only_copy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        stack = (a + np.swapaxes(a.conj(), 1, 2)) / 2
        got = hermitians(stack)
        assert [h.mat.shape for h in got] == [(4, 4)] * 3
        assert all(np.array_equal(h.mat, m) and h == HermitianOperator(m) for h, m in zip(got, stack))
        assert all(h.mat.base is got[0].mat.base and not h.mat.flags.writeable for h in got)

    @pytest.mark.parametrize("bad", [1, 2])
    def test_first_failing_matrix_names_the_error(self, bad):
        stack = np.array([SX, SZ, SX])
        stack[bad, 0, 1] += 1e-3
        stack[2, 1, 0] += 1.0
        assert message(hermitians, stack) == message(HermitianOperator, stack[bad])

    @pytest.mark.parametrize("factor", [0.4, 0.6, 0.99, 1.01, 1.5])
    def test_near_the_bound_each_matrix_decides(self, factor):
        # defect ||M - M^H||_F = factor * tol * ||M||_F, on both sides of the bound
        tol = 1e-6
        mat = SX * (1 + 0.5j * factor * tol)
        with tolerance_overrides(hermitian=tol):
            if factor < 1:
                assert hermitians(np.array([SZ, mat]))[1] == HermitianOperator(mat)
            else:
                assert message(hermitians, np.array([SZ, mat])) == message(HermitianOperator, mat)

    @pytest.mark.parametrize("tol", [0.0, 1e-160, 1e-13, 1e200])
    def test_extreme_tolerances_decide_as_each_matrix(self, tol):
        for skew in (0.0, 1e-170, 1e-14, 1e-3):
            mat = SX + skew * np.array([[0, 1j], [1j, 0]])
            with tolerance_overrides(hermitian=tol):
                try:
                    HermitianOperator(mat)
                except ValidationError as exc:
                    assert message(hermitians, np.array([SX, mat])) == str(exc)
                else:
                    assert hermitians(np.array([SX, mat]))[1] == HermitianOperator(mat)

    @pytest.mark.parametrize(
        "entry, text",
        [(np.nan, "contains non-finite entries"), (1e200, "has a non-finite norm")],
    )
    def test_non_finite_matrices(self, entry, text):
        stack = np.array([SX, SZ])
        stack[1, 0, 0] = entry
        assert message(hermitians, stack) == f"Hermitian operator {text}"

    def test_an_overflowing_norm_is_non_finite_however_it_overflows(self):
        # complex entries near 1e155 overflow the stacked product to NaN, not inf
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        stack = (a + np.swapaxes(a.conj(), 1, 2)) * 1e155
        assert message(hermitians, stack) == "Hermitian operator has a non-finite norm"
        assert message(HermitianOperator, stack[0]) == "Hermitian operator has a non-finite norm"


def random_unitaries(seed, k, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    return np.linalg.qr(a)[0]


class TestUnitaries:
    """A stack of propagators is checked once, by the one rule that
    UnitaryMatrix applies to a stack of one; the first failing matrix
    names the error."""

    def test_one_read_only_copy(self):
        stack = random_unitaries(5, 3, 4)
        got = unitaries(stack)
        assert [u.mat.shape for u in got] == [(4, 4)] * 3
        assert all(np.array_equal(u.mat, m) and u == UnitaryMatrix(m) for u, m in zip(got, stack))
        assert all(u.mat.base is got[0].mat.base and not u.mat.flags.writeable for u in got)

    @pytest.mark.parametrize("bad", [1, 2])
    def test_first_failing_matrix_names_the_error(self, bad):
        stack = random_unitaries(6, 3, 2)
        stack[bad] *= 1 + 1e-3
        stack[2] *= 2.0
        assert message(unitaries, stack) == message(UnitaryMatrix, stack[bad])

    @pytest.mark.parametrize("factor", [0.4, 0.6, 0.99, 1.01, 1.5])
    def test_both_sides_of_the_bound(self, factor):
        # U = diag(1 + e, 1) has ||U^H U - I||_F = (1 + e)^2 - 1 = factor * tol
        tol = 1e-6
        mat = np.diag([np.sqrt(1 + factor * tol), 1.0])
        stack = np.array([SX, mat])
        with tolerance_overrides(unitary=tol):
            if factor < 1:
                assert UnitaryMatrix(mat).mat[0, 0] == mat[0, 0]
                assert unitaries(stack)[1] == UnitaryMatrix(mat)
            else:
                text = f"matrix is not unitary: ||U^H U - I||_F = {factor * tol:.3e} > {tol:.1e}"
                assert message(UnitaryMatrix, mat) == text
                assert message(unitaries, stack) == text


    def test_gram_overflow_to_nan_is_refused(self):
        # U^H U holds inf + nan j, so ||U^H U - I||_F is NaN
        mat = np.diag([1e200, 1.0])
        text = "matrix is not unitary: ||U^H U - I||_F = nan > 1.0e-10"
        with np.errstate(all="raise"):
            assert message(UnitaryMatrix, mat) == text
            assert message(unitaries, np.array([SX, mat])) == text


class TestCheckedMatrices:
    """HermitianOperator and UnitaryMatrix share construction, dim and
    equality; only their name and their rule differ."""

    @pytest.mark.parametrize("cls, what", [(HermitianOperator, "Hermitian operator"), (UnitaryMatrix, "unitary matrix")])
    def test_shape_errors_name_the_type(self, cls, what):
        assert message(cls, np.ones((2, 3))) == f"{what} must be square"
        assert message(cls, np.ones(2)) == f"{what} must be a nonempty 2-D complex array"
        stack = hermitians if cls is HermitianOperator else unitaries
        assert message(stack, np.ones((2, 2, 3))) == f"{what} must be square"
        assert message(stack, np.eye(2)) == f"{what} must be a nonempty 3-D complex array"

    def test_equality_is_by_type_and_values(self):
        assert HermitianOperator(SX) == HermitianOperator(SX.real)
        assert HermitianOperator(SX) != HermitianOperator(SZ)
        assert HermitianOperator(SX) != UnitaryMatrix(SX)
        assert UnitaryMatrix(SX).dim == HermitianOperator(np.eye(3)).dim - 1


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def below(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


class TestNormsAsNumpyFormsThem:
    """The checks reduce ndarrays directly instead of calling np.linalg.norm;
    each reduction gives np.linalg.norm's result bit for bit."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(11)
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        for shape in [(1,), (7,), (3, 3), (8, 8), (2, 5)]:
            real = rng.normal(size=shape)
            cases = [
                real,
                real + 1j * rng.normal(size=shape),
                np.zeros(shape),
                np.zeros(shape, dtype=complex),
                real * tiny,
                (real + 1j * real[::-1]) * 1e-310,
                real * 1e200,
                (real - 1j * real) * 1e200,
            ]
            for special in (np.inf, -np.inf, np.nan, complex(np.inf, 1.0), complex(1.0, np.nan)):
                bad = (real + 0j) if isinstance(special, complex) else real.copy()
                bad.flat[len(bad.flat) // 2] = special
                cases.append(bad)
            cases.append(rng.normal(size=(2,) + shape)[1])  # a view into a larger array
            cases.append((real + 1j * real).T)  # a non-contiguous layout
            yield from cases

    def test_flat_norm(self):
        count = 0
        for a in self.arrays():
            with np.errstate(over="ignore", invalid="ignore"):
                assert bits(_flat_norm(a)) == bits(np.linalg.norm(a)), a
            count += 1
        assert count == 5 * 15

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_unitarity_defects(self, dim):
        # per matrix, the stacked check accepts at its np.linalg.norm defect
        # and refuses one float below it: so its defect is that float
        stack = random_unitaries(dim, 6, dim)
        noise = np.random.default_rng(dim).normal(size=stack.shape)
        stack = stack + noise * np.array([0.0, 1e-15, 1e-12, 1e-10, 1e-6, 1e-2])[:, None, None]
        defects = np.linalg.norm(np.swapaxes(stack.conj(), 1, 2) @ stack - np.eye(dim), axis=(1, 2))
        for mat, defect in zip(stack, defects):
            with tolerance_overrides(unitary=float(defect)):
                unitaries(mat[np.newaxis])
            if defect > 0:
                with tolerance_overrides(unitary=below(defect)):
                    assert message(unitaries, mat[np.newaxis]).startswith("matrix is not unitary")
        with tolerance_overrides(unitary=float(defects.max())):
            unitaries(stack)
        with tolerance_overrides(unitary=below(defects.max())):
            assert message(unitaries, stack).startswith("matrix is not unitary")

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_is_unit_at_the_edge(self, dim):
        tol = 1e-12
        rng = np.random.default_rng(dim + 100)
        verdicts = set()
        for target in (1.0 - tol, 1.0 + tol):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v = v * (target / np.linalg.norm(v))
            for ulps in range(-3, 4):  # nudge the norm across the edge, an ulp at a time
                w = v * (1.0 + ulps * np.finfo(float).eps)
                gap = abs(float(np.linalg.norm(w)) - 1.0)
                with tolerance_overrides(state_norm=tol):
                    assert is_unit(w) == (gap <= tol)
                    verdicts.add(is_unit(w))
                with tolerance_overrides(state_norm=gap):
                    assert is_unit(w)
                with tolerance_overrides(state_norm=below(gap)):
                    assert not is_unit(w)
        assert verdicts == {True, False}
