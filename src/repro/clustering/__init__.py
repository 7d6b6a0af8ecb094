"""Plaintext clustering substrate.

The DBSCAN algorithm of Ester et al. (1996) -- the paper's reference
[8] -- implemented exactly (:mod:`repro.clustering.dbscan`), plus the
*union-density per-party* semantics that the horizontal protocol of
Algorithm 3/4 actually computes (:mod:`repro.clustering.union_density`),
the one Algorithm 3/4 traversal the secure horizontal protocols share
(:mod:`repro.clustering.expansion`), and the metrics used to compare
clusterings (:mod:`repro.clustering.metrics`).
"""

from repro.clustering.labels import NOISE, UNCLASSIFIED, ClusterLabels
from repro.clustering.dbscan import dbscan
from repro.clustering.expansion import expand_clusters
from repro.clustering.union_density import union_density_dbscan
from repro.clustering.metrics import (
    adjusted_rand_index,
    labelings_equivalent,
    noise_agreement,
    purity,
    rand_index,
)

__all__ = [
    "NOISE",
    "UNCLASSIFIED",
    "ClusterLabels",
    "dbscan",
    "expand_clusters",
    "union_density_dbscan",
    "adjusted_rand_index",
    "labelings_equivalent",
    "noise_agreement",
    "purity",
    "rand_index",
]
