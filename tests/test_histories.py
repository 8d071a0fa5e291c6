import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpf.histories
from fpf.errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NonMonotoneTimes,
    NotNormalized,
    TooFewPoints,
    ValidationError,
)
from fpf.contour import Branch
from fpf.histories import MAX_EDGES, FixedPoint, FixedPointNetwork, NetworkEdge, build_network, make_history
from fpf.statespace import standard_basis

E0, E1 = standard_basis(2).rows


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
        net = build_network([0.0, 1.0], [standard_basis(2), standard_basis(3)])
        assert len(net.edges) == 12
        assert len(net.edges_between(0)) == 12
        assert len(net.channels_between(0)) == 6

    def test_single_channel(self):
        net = build_network([0.0, 1.0], [standard_basis(1), standard_basis(1)])
        assert len(net.edges) == 2
        branches = sorted(e.branch.value for e in net.edges)
        assert branches == ["b", "f"]
        assert len(net.channels_between(0)) == 1

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

    def test_edges_between_keeps_edge_order_and_skips_other_pairs(self):
        layers = build_network([0.0, 1.0, 2.0], [standard_basis(1)] * 3).layers
        edges = (
            NetworkEdge(Branch.FORWARD, (1, 0), (2, 0)),
            NetworkEdge(Branch.FORWARD, (0, 0), (2, 0)),  # not an adjacent pair
            NetworkEdge(Branch.BACKWARD, (1, 0), (0, 0)),
            NetworkEdge(Branch.FORWARD, (0, 0), (1, 0)),
            NetworkEdge(Branch.BACKWARD, (2, 0), (1, 0)),
        )
        net = FixedPointNetwork(layers, edges)
        # what a scan of every edge for the pair {i, i + 1} finds, in order
        for i in (-1, 0, 1, 2):
            want = tuple(e for e in edges if {e.source[0], e.target[0]} == {i, i + 1})
            assert net.edges_between(i) == want
        assert net.edges_between(0) == (edges[2], edges[3])
        assert net.channels_between(1) == ((0, 0),)

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_counting_rules(self, sizes):
        times = [float(i) for i in range(len(sizes))]
        net = build_network(times, [standard_basis(n) for n in sizes])
        total = 0
        for i, (n1, n2) in enumerate(zip(sizes, sizes[1:])):
            assert len(net.edges_between(i)) == 2 * n1 * n2
            assert len(net.channels_between(i)) == n1 * n2
            total += 2 * n1 * n2
        assert len(net.edges) == total
        # every edge sits in exactly one adjacent pair
        assert sum(len(net.edges_between(i)) for i in range(len(sizes) - 1)) == total


class TestEdgeCap:
    """build_network counts its 2*N1*N2 lines per layer pair before it builds
    any; every count is even, so 65,538 is the smallest past the cap."""

    @pytest.fixture
    def built(self, monkeypatch):
        edges = []

        def counted(*args):
            edges.append(None)
            return NetworkEdge(*args)

        monkeypatch.setattr(fpf.histories, "NetworkEdge", counted)
        return edges

    def test_at_the_cap(self, built):
        # 2 * (127 * 256 + 256 * 1) = 65,536
        net = build_network([0.0, 1.0, 2.0], [standard_basis(n) for n in (127, 256, 1)])
        assert MAX_EDGES == 65_536 == len(net.edges) == len(built)

    def test_past_the_cap_builds_nothing(self, built):
        # 2 * (127 * 256 + 256 * 1 + 1 * 1) = 65,538
        bases = [standard_basis(n) for n in (127, 256, 1, 1)]
        with pytest.raises(InstanceTooLarge, match="^65538 network branch lines exceed the limit of 65536$"):
            build_network([0.0, 1.0, 2.0, 3.0], bases)
        assert built == []
