"""Tests for fixed-point quantization helpers."""

from hypothesis import given, strategies as st

from repro.crypto.encoding import FixedPointEncoder
from repro.data.quantize import (
    max_coordinate,
    quantize_points,
    squared_distance_bound,
)


class TestQuantizePoints:
    def test_basic(self):
        assert quantize_points([(1.0, 2.5)], scale=10) == [(10, 25)]

    def test_default_scale(self):
        assert quantize_points([(1.0,)]) == [(100,)]

    def test_empty(self):
        assert quantize_points([]) == []


class TestQuantizeEps:
    def test_exact(self):
        assert FixedPointEncoder(100).encode_eps_squared(1.0) == 10000

    def test_consistency_with_points(self):
        """Points exactly eps apart must satisfy dist^2 <= eps^2."""
        points = quantize_points([(0.0, 0.0), (0.0, 1.0)], scale=100)
        eps_squared = FixedPointEncoder(100).encode_eps_squared(1.0)
        actual = sum((a - b) ** 2 for a, b in zip(*points))
        assert actual <= eps_squared


class TestBounds:
    def test_max_coordinate(self):
        assert max_coordinate([(1, -9), (3, 4)]) == 9

    def test_max_coordinate_empty(self):
        assert max_coordinate([]) == 0

    @given(st.lists(st.tuples(st.integers(min_value=-1000, max_value=1000),
                              st.integers(min_value=-1000, max_value=1000)),
                    min_size=1, max_size=20),
           st.lists(st.tuples(st.integers(min_value=-1000, max_value=1000),
                              st.integers(min_value=-1000, max_value=1000)),
                    min_size=1, max_size=20))
    def test_squared_distance_bound_is_a_bound(self, side_a, side_b):
        bound = squared_distance_bound(side_a, side_b)
        for a in side_a:
            for b in side_b:
                assert sum((x - y) ** 2 for x, y in zip(a, b)) <= bound

    def test_bound_minimum(self):
        assert squared_distance_bound([], []) >= 1
