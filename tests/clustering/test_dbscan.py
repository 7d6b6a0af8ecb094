"""Tests for centralized DBSCAN, including the definitional invariants
of Section 3.1 as properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE, UNCLASSIFIED
from repro.clustering.neighborhoods import BruteForceIndex
from repro.clustering.union_density import union_density_dbscan


def core_points(points, eps_squared: int, min_pts: int) -> list[int]:
    """Indices of the core points (|N_eps| >= min_pts), by brute force."""
    index = BruteForceIndex(points)
    return [i for i, point in enumerate(points)
            if len(index.region_query(point, eps_squared)) >= min_pts]


points_strategy = st.lists(
    st.tuples(st.integers(min_value=-100, max_value=100),
              st.integers(min_value=-100, max_value=100)),
    min_size=1, max_size=50)


class TestKnownGeometries:
    def test_single_cluster(self):
        points = [(0, 0), (1, 0), (2, 0), (3, 0)]
        labels = dbscan(points, eps_squared=1, min_pts=2)
        assert set(labels.as_tuple()) == {1}

    def test_two_separated_clusters(self):
        points = [(0, 0), (1, 0), (2, 0), (100, 0), (101, 0), (102, 0)]
        labels = dbscan(points, eps_squared=1, min_pts=2)
        assert labels.as_tuple() == (1, 1, 1, 2, 2, 2)

    def test_all_noise(self):
        points = [(0, 0), (100, 0), (200, 0)]
        labels = dbscan(points, eps_squared=1, min_pts=2)
        assert set(labels.as_tuple()) == {NOISE}

    def test_border_point_joins_cluster(self):
        # Dense chain plus one boundary point reachable from a core point
        # but itself not core.
        points = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        labels = dbscan(points, eps_squared=1, min_pts=3)
        assert labels.as_tuple() == (1, 1, 1, 1, 1)

    def test_min_pts_one_no_noise(self):
        points = [(0, 0), (50, 50)]
        labels = dbscan(points, eps_squared=1, min_pts=1)
        assert labels.as_tuple() == (1, 2)

    def test_ring_engulfing_cluster(self):
        """DBSCAN's signature: a cluster surrounded by another."""
        import math
        inner = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        outer = [(int(20 * math.cos(a * math.pi / 8)),
                  int(20 * math.sin(a * math.pi / 8))) for a in range(16)]
        labels = dbscan(inner + outer, eps_squared=36, min_pts=3)
        inner_labels = set(labels.as_tuple()[:len(inner)])
        outer_labels = set(labels.as_tuple()[len(inner):])
        assert len(inner_labels) == 1
        assert len(outer_labels) == 1
        assert inner_labels != outer_labels

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="min_pts"):
            dbscan([(0, 0)], eps_squared=1, min_pts=0)
        with pytest.raises(ValueError, match="eps_squared"):
            dbscan([(0, 0)], eps_squared=-1, min_pts=1)


class TestDefinitionalInvariants:
    """Definitions 1-4 of the paper, checked on random inputs."""

    @settings(max_examples=40, deadline=None)
    @given(points_strategy, st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6))
    def test_no_unclassified_remains(self, points, eps_squared, min_pts):
        labels = dbscan(points, eps_squared, min_pts)
        assert UNCLASSIFIED not in labels.as_tuple()

    @settings(max_examples=40, deadline=None)
    @given(points_strategy, st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6))
    def test_core_points_never_noise(self, points, eps_squared, min_pts):
        labels = dbscan(points, eps_squared, min_pts)
        for core in core_points(points, eps_squared, min_pts):
            assert labels[core] != NOISE

    @settings(max_examples=40, deadline=None)
    @given(points_strategy, st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6))
    def test_noise_points_have_no_core_neighbor(self, points, eps_squared,
                                                min_pts):
        """A noise point is density-unreachable: no core point covers it."""
        labels = dbscan(points, eps_squared, min_pts)
        index = BruteForceIndex(points)
        cores = set(core_points(points, eps_squared, min_pts))
        for i, label in enumerate(labels.as_tuple()):
            if label == NOISE:
                neighbors = index.region_query(points[i], eps_squared)
                assert not (set(neighbors) & cores)

    @settings(max_examples=40, deadline=None)
    @given(points_strategy, st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6))
    def test_core_neighborhoods_single_cluster(self, points, eps_squared,
                                               min_pts):
        """Maximality: everything a core point covers shares its cluster."""
        labels = dbscan(points, eps_squared, min_pts)
        index = BruteForceIndex(points)
        for core in core_points(points, eps_squared, min_pts):
            cluster = labels[core]
            for neighbor in index.region_query(points[core], eps_squared):
                assert labels[neighbor] == cluster

    @settings(max_examples=30, deadline=None)
    @given(points_strategy, st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6))
    def test_grid_index_equivalence(self, points, eps_squared, min_pts):
        """The grid-indexed DBSCAN equals the brute-force reference:
        union-density DBSCAN with no peer points is centralized DBSCAN
        over a linear scan."""
        accelerated = dbscan(points, eps_squared, min_pts)
        plain = union_density_dbscan(points, [], eps_squared, min_pts)
        assert plain.labels.as_tuple() == accelerated.as_tuple()

    @settings(max_examples=20, deadline=None)
    @given(points_strategy, st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=100))
    def test_insensitive_to_duplicated_run(self, points, eps_squared,
                                           min_pts, seed):
        """Determinism: same input, same output."""
        __ = random.Random(seed)
        assert dbscan(points, eps_squared, min_pts).as_tuple() \
            == dbscan(points, eps_squared, min_pts).as_tuple()
