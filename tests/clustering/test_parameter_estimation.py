"""Tests for the sorted k-dist parameter heuristic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.dbscan import dbscan
from repro.clustering.parameter_estimation import (
    EstimationError,
    k_distance_profile,
    knee_index,
    suggest_eps,
)
from repro.crypto.encoding import FixedPointEncoder
from repro.data.workloads import standard_workload


class TestKDistanceProfile:
    def test_descending(self):
        points = [(0, 0), (1, 0), (2, 0), (50, 50)]
        profile = k_distance_profile(points, 1)
        assert profile == sorted(profile, reverse=True)

    def test_known_values(self):
        points = [(0, 0), (3, 4), (6, 8)]
        profile = k_distance_profile(points, 1)
        # Nearest-neighbour distances: 5, 5, 5.
        assert profile == [5.0, 5.0, 5.0]

    def test_k_two(self):
        points = [(0, 0), (1, 0), (3, 0)]
        profile = k_distance_profile(points, 2)
        # 2nd-NN distances: 3 (from 0), 2 (from 1), 3 (from 3).
        assert sorted(profile, reverse=True) == [3.0, 3.0, 2.0]

    def test_validation(self):
        with pytest.raises(EstimationError, match="k must be"):
            k_distance_profile([(0, 0), (1, 1)], 0)
        with pytest.raises(EstimationError, match="more than"):
            k_distance_profile([(0, 0)], 1)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=-50, max_value=50),
                              st.integers(min_value=-50, max_value=50)),
                    min_size=4, max_size=25, unique=True))
    def test_profile_length_and_order(self, points):
        profile = k_distance_profile(points, 2)
        assert len(profile) == len(points)
        assert all(a >= b for a, b in zip(profile, profile[1:]))


class TestKnee:
    def test_obvious_knee(self):
        profile = [100.0, 95.0, 90.0, 10.0, 9.0, 8.0, 7.0]
        index = knee_index(profile)
        assert index in (2, 3)

    def test_flat_profile(self):
        assert 0 <= knee_index([5.0, 5.0, 5.0, 5.0]) < 4

    def test_tiny_profiles(self):
        assert knee_index([1.0]) == 0
        assert knee_index([2.0, 1.0]) == 1


class TestSuggestions:
    def test_suggestion_separates_clusters_from_noise(self):
        """On the grid workload (tight clusters, far apart) the suggested
        eps must recover the designed structure."""
        workload = standard_workload("grid")
        eps = suggest_eps(list(workload.points), k=3, scale=100)
        # Ester et al.: min_pts = k + 1.
        labels = dbscan(list(workload.points),
                        FixedPointEncoder(100).encode_eps_squared(eps), 4)
        found = {label for label in labels.as_tuple() if label != -1}
        assert len(found) == workload.expected_clusters

    def test_suggested_eps_between_intra_and_inter(self):
        workload = standard_workload("grid")
        eps = suggest_eps(list(workload.points), k=3, scale=100)
        # Intra-cluster spacing 0.2, inter-cluster gap 5.0.
        assert 0.2 <= eps < 5.0
