"""Tests for the named workload registry."""

import pytest

from repro.clustering.dbscan import dbscan
from repro.crypto.encoding import FixedPointEncoder
from repro.data.workloads import (
    WORKLOAD_NAMES,
    WorkloadError,
    standard_workload,
)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in WORKLOAD_NAMES:
            workload = standard_workload(name)
            assert workload.name == name
            assert len(workload.points) > 0

    def test_unknown_name(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            standard_workload("fractal")

    def test_unknown_size(self):
        with pytest.raises(WorkloadError, match="unknown size"):
            standard_workload("blobs", size="huge")

    def test_sizes_scale(self):
        small = standard_workload("blobs", size="small")
        large = standard_workload("blobs", size="large")
        assert len(large.points) > len(small.points)

    def test_deterministic_under_seed(self):
        assert standard_workload("moons", seed=3).points \
            == standard_workload("moons", seed=3).points


class TestParametersResolveStructure:
    @pytest.mark.parametrize("name", [n for n in WORKLOAD_NAMES
                                      if n != "noisy_blob"])
    def test_expected_cluster_count(self, name):
        workload = standard_workload(name)
        eps_squared = FixedPointEncoder(100).encode_eps_squared(workload.eps)
        labels = dbscan(list(workload.points), eps_squared, workload.min_pts)
        found = {label for label in labels.as_tuple() if label != -1}
        assert len(found) == workload.expected_clusters, name

    def test_noisy_blob_has_noise(self):
        workload = standard_workload("noisy_blob")
        eps_squared = FixedPointEncoder(100).encode_eps_squared(workload.eps)
        labels = dbscan(list(workload.points), eps_squared, workload.min_pts)
        assert -1 in labels.as_tuple()
