import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf.errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NonMonotoneTimes,
    NotNormalized,
    TooFewPoints,
    ValidationError,
)
from fpf.histories import MAX_EDGES, FixedPoint, build_network, make_history
from fpf.statespace import standard_basis

E0, E1 = standard_basis(2).rows
_standard_basis = functools.cache(standard_basis)


class TestMakeHistory:
    def test_minimal_pair(self):
        h = make_history([FixedPoint(0.0, E0), FixedPoint(1.0, E1)])
        assert len(h.points) == 2
        assert h.times == (0.0, 1.0)

    def test_single_point_rejected(self):
        with pytest.raises(TooFewPoints):
            make_history([FixedPoint(0.0, E0)])

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneTimes):
            make_history([FixedPoint(1.0, E0), FixedPoint(0.0, E1)])

    def test_nan_time_rejected(self):
        with pytest.raises(NonMonotoneTimes):
            make_history([FixedPoint(float("nan"), E0), FixedPoint(1.0, E1)])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_history([FixedPoint(0.0, E0), FixedPoint(1.0, standard_basis(3).rows[0])])

    def test_unnormalized_rejected(self):
        crooked = np.array([0.5, 0.5])
        with pytest.raises(NotNormalized):
            make_history([FixedPoint(0.0, E0), FixedPoint(1.0, crooked)])


class TestNetwork:
    def test_two_by_three(self):
        assert build_network([0.0, 1.0], [standard_basis(2), standard_basis(3)]) == (2, 3)

    def test_single_channel(self):
        assert build_network([0.0, 1.0], [standard_basis(1), standard_basis(1)]) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            build_network([0.0, 1.0], [standard_basis(2)])

    def test_non_monotone_layers(self):
        with pytest.raises(NonMonotoneTimes):
            build_network([1.0, 0.0], [standard_basis(2), standard_basis(2)])

    def test_single_layer(self):
        with pytest.raises(TooFewPoints):
            build_network([0.0], [standard_basis(2)])

    @pytest.mark.parametrize("times", [[float("nan"), 1.0], [0.0, float("nan")]])
    def test_nan_layer_time(self, times):
        with pytest.raises(NonMonotoneTimes):
            build_network(times, [standard_basis(2), standard_basis(2)])

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_returns_the_layer_sizes(self, sizes):
        times = [float(i) for i in range(len(sizes))]
        assert build_network(times, [standard_basis(n) for n in sizes]) == tuple(sizes)

    @given(st.lists(st.integers(1, 256), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_counting_rules(self, sizes):
        # 2*N1*N2 lines per adjacent pair, summed over the pairs, decide the cap
        times = [float(i) for i in range(len(sizes))]
        bases = [_standard_basis(n) for n in sizes]
        count = sum(2 * n1 * n2 for n1, n2 in zip(sizes, sizes[1:]))
        if count <= MAX_EDGES:
            assert build_network(times, bases) == tuple(sizes)
        else:
            with pytest.raises(InstanceTooLarge, match=f"^{count} network branch lines exceed the limit of {MAX_EDGES}$"):
                build_network(times, bases)


class TestEdgeCap:
    """build_network counts 2*N1*N2 lines per layer pair; every count is
    even, so 65,538 is the smallest past the cap."""

    def test_at_the_cap(self):
        # 2 * (127 * 256 + 256 * 1) = 65,536
        sizes = build_network([0.0, 1.0, 2.0], [standard_basis(n) for n in (127, 256, 1)])
        assert MAX_EDGES == 65_536
        assert sizes == (127, 256, 1)

    def test_past_the_cap(self):
        # 2 * (127 * 256 + 256 * 1 + 1 * 1) = 65,538
        bases = [standard_basis(n) for n in (127, 256, 1, 1)]
        with pytest.raises(InstanceTooLarge, match="^65538 network branch lines exceed the limit of 65536$"):
            build_network([0.0, 1.0, 2.0, 3.0], bases)
