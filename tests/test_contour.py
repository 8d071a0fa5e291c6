import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf.contour import Branch, build_path
from fpf.errors import ValidationError

times = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestBuildPath:
    def test_pair(self):
        path = build_path([0.0, 1.0])
        assert path == (
            (Branch.FORWARD, 0.0, 1.0),
            (Branch.BACKWARD, 1.0, 0.0),
        )

    def test_triple(self):
        path = build_path([0.0, 0.4, 1.0])
        assert path == (
            (Branch.FORWARD, 0.0, 0.4),
            (Branch.FORWARD, 0.4, 1.0),
            (Branch.BACKWARD, 1.0, 0.4),
            (Branch.BACKWARD, 0.4, 0.0),
        )

    def test_four_points_cover_each_interval_twice(self):
        path = build_path([0, 1, 2, 3])
        assert len(path) == 6
        covered = sorted((min(a, b), max(a, b)) for _, a, b in path)
        assert covered == [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3)]

    def test_too_few(self):
        with pytest.raises(ValidationError, match="^a path needs at least two times$"):
            build_path([1.0])

    def test_non_monotone(self):
        with pytest.raises(ValidationError, match="^path times must be strictly increasing$"):
            build_path([0.0, 2.0, 1.0])

    @pytest.mark.parametrize("ts", [[float("nan"), 1.0], [0.0, float("nan")]])
    def test_nan_time(self, ts):
        with pytest.raises(ValidationError, match="^path times must be strictly increasing$"):
            build_path(ts)

    @given(st.lists(times, min_size=2, max_size=8, unique=True))
    @settings(max_examples=100)
    def test_segment_count_and_coverage(self, ts):
        ts = sorted(ts)
        path = build_path(ts)
        assert len(path) == 2 * (len(ts) - 1)
        expected = sorted([(a, b) for a, b in zip(ts, ts[1:])] * 2)
        assert sorted((min(a, b), max(a, b)) for _, a, b in path) == expected
