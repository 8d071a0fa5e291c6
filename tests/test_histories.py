import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf.errors import InstanceTooLarge, ValidationError
from fpf.histories import MAX_EDGES, FixedPoint, build_network, make_history
from fpf.measure import chain_delta_psi
from fpf.oracle import contour_line_integral
from fpf.scenario import random_schedule, random_state
from fpf.statespace import standard_basis

E0, E1 = standard_basis(2).rows
_standard_basis = functools.cache(standard_basis)


class TestMakeHistory:
    def test_minimal_pair(self):
        pts = [FixedPoint(0.0, E0), FixedPoint(1.0, E1)]
        assert make_history(pts) == tuple(pts)

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError, match="^a history needs at least two fixed points$"):
            make_history([FixedPoint(0.0, E0)])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError, match="^history times must be strictly increasing$"):
            make_history([FixedPoint(1.0, E0), FixedPoint(0.0, E1)])

    def test_nan_time_rejected(self):
        with pytest.raises(ValidationError, match="^history times must be strictly increasing$"):
            make_history([FixedPoint(float("nan"), E0), FixedPoint(1.0, E1)])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="^history states have differing dimensions$"):
            make_history([FixedPoint(0.0, E0), FixedPoint(1.0, standard_basis(3).rows[0])])

    def test_oracle_holds_on_non_unit_histories(self):
        # a history does not check norms: the line integral's truncation
        # bound scales with the product of the state norms, so the chain
        # gate's bound holds on states scaled by 0.5-2
        rng = np.random.default_rng(38)
        worst = 0.0
        for _ in range(200):
            dim, pieces, slots = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
            sched = random_schedule(rng, dim, pieces)
            times = [sched.t_start, *sorted(rng.uniform(sched.t_start, sched.t_end, slots)), sched.t_end]
            pts = [FixedPoint(float(t), rng.uniform(0.5, 2.0) * random_state(rng, dim)) for t in times]
            weight = chain_delta_psi(sched, pts).real
            value, _, truncation = contour_line_integral(sched, make_history(pts), 512)
            worst = max(worst, abs(value - weight) / (truncation + 1e-12 * max(1.0, abs(weight))))
        print(f"worst |oracle - engine| over the chain gate's bound: {worst:.3f}")
        assert worst <= 1.0, worst


class TestNetwork:
    def test_two_by_three(self):
        assert build_network([0.0, 1.0], [standard_basis(2), standard_basis(3)]) == (2, 3)

    def test_single_channel(self):
        assert build_network([0.0, 1.0], [standard_basis(1), standard_basis(1)]) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            build_network([0.0, 1.0], [standard_basis(2)])

    def test_non_monotone_layers(self):
        with pytest.raises(ValidationError, match="^layer times must be strictly increasing$"):
            build_network([1.0, 0.0], [standard_basis(2), standard_basis(2)])

    def test_single_layer(self):
        with pytest.raises(ValidationError, match="^a network needs at least two layers$"):
            build_network([0.0], [standard_basis(2)])

    @pytest.mark.parametrize("times", [[float("nan"), 1.0], [0.0, float("nan")]])
    def test_nan_layer_time(self, times):
        with pytest.raises(ValidationError, match="^layer times must be strictly increasing$"):
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
