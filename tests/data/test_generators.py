"""Tests for synthetic workload generators."""

import random

from hypothesis import given, settings, strategies as st

from repro.clustering.dbscan import dbscan
from repro.crypto.encoding import FixedPointEncoder
from repro.data.generators import (
    concentric_rings,
    gaussian_blobs,
    grid_clusters,
    interleave_for_horizontal,
    two_moons,
    uniform_noise,
)

#: The scale the generators' points are quantized with.
ENCODER = FixedPointEncoder(100)


class TestGaussianBlobs:
    def test_counts_and_shape(self):
        points = gaussian_blobs(random.Random(0),
                                centers=[(0, 0), (10, 10)],
                                points_per_blob=7)
        assert len(points) == 14
        assert all(len(p) == 2 for p in points)
        assert all(isinstance(c, int) for p in points for c in p)

    def test_separated_blobs_cluster_separately(self):
        points = gaussian_blobs(random.Random(1),
                                centers=[(0, 0), (20, 20)],
                                points_per_blob=15, spread=0.3)
        labels = dbscan(points, ENCODER.encode_eps_squared(1.5), 4)
        first = set(labels.as_tuple()[:15]) - {-1}
        second = set(labels.as_tuple()[15:]) - {-1}
        assert first and second and not (first & second)

    def test_deterministic_under_seed(self):
        kwargs = dict(centers=[(0.0, 0.0)], points_per_blob=5)
        assert gaussian_blobs(random.Random(5), **kwargs) \
            == gaussian_blobs(random.Random(5), **kwargs)

    def test_higher_dimensions(self):
        points = gaussian_blobs(random.Random(2), centers=[(0, 0, 0, 0)],
                                points_per_blob=3)
        assert all(len(p) == 4 for p in points)


class TestTwoMoons:
    def test_counts(self):
        points = two_moons(random.Random(0), points_per_moon=20)
        assert len(points) == 40

    def test_moons_are_disjoint_clusters(self):
        points = two_moons(random.Random(3), points_per_moon=60, noise=0.08)
        labels = dbscan(points, ENCODER.encode_eps_squared(0.8), 4)
        clusters = {label for label in labels.as_tuple() if label != -1}
        assert len(clusters) >= 2


class TestConcentricRings:
    def test_counts(self):
        points = concentric_rings(random.Random(0), points_per_ring=10)
        assert len(points) == 20

    def test_rings_separate(self):
        points = concentric_rings(random.Random(4), points_per_ring=70,
                                  radii=(1.5, 5.0), noise=0.05)
        labels = dbscan(points, ENCODER.encode_eps_squared(0.7), 3)
        inner = {labels[i] for i in range(70)} - {-1}
        outer = {labels[i] for i in range(70, 140)} - {-1}
        assert inner and outer and not (inner & outer)


class TestUniformNoise:
    def test_within_box(self):
        points = uniform_noise(random.Random(0), count=50,
                               low=-2.0, high=2.0)
        assert len(points) == 50
        assert all(-200 <= c <= 200 for p in points for c in p)

    def test_dimensions(self):
        points = uniform_noise(random.Random(0), count=5, dimensions=3)
        assert all(len(p) == 3 for p in points)


class TestGridClusters:
    def test_deterministic(self):
        assert grid_clusters() == grid_clusters()

    def test_counts(self):
        points = grid_clusters(clusters_per_side=2, cluster_size=3)
        assert len(points) == 4 * 9

    def test_exact_clustering(self):
        """The designed property: obvious ground truth for mid eps."""
        points = grid_clusters(clusters_per_side=2, cluster_size=3,
                               cluster_step=0.2, cluster_gap=10.0)
        labels = dbscan(points, ENCODER.encode_eps_squared(0.5), 3)
        clusters = {label for label in labels.as_tuple() if label != -1}
        assert len(clusters) == 4


class TestInterleave:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.1, max_value=0.9))
    def test_partition_is_total(self, seed, fraction):
        points = grid_clusters(clusters_per_side=2, cluster_size=3)
        alice, bob = interleave_for_horizontal(points, random.Random(seed),
                                               fraction)
        assert len(alice) + len(bob) == len(points)
        assert sorted(alice + bob) == sorted(points)
