"""Centralized DBSCAN -- Ester, Kriegel, Sander, Xu (KDD 1996).

The single-party reference algorithm that the distributed protocols are
measured against, implemented exactly as the original paper (and
Section 3.1 of the reproduced paper) describes: iterate over points,
expand a cluster from every unclassified core point, demote
density-unreachable points to noise.

Operates on integer-grid coordinates with an integer ``eps_squared``
threshold so results are bit-comparable with protocol runs.
"""

from __future__ import annotations

from collections import deque

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    ClusterLabels,
    next_cluster_id,
)
from repro.clustering.neighborhoods import GridIndex


def dbscan(points: list[tuple[int, ...]], eps_squared: int,
           min_pts: int) -> ClusterLabels:
    """Cluster ``points``; returns labels (cluster ids, NOISE).

    Args:
        points: integer-grid coordinates.
        eps_squared: neighbourhood radius threshold, compared against
            exact integer squared distances (``dist^2 <= eps_squared``).
        min_pts: minimum neighbourhood size (the query point counts).

    Region queries go through a uniform :class:`GridIndex` (the original
    paper uses an R*-tree for the same purpose); its hit lists equal the
    brute-force scan's, so the labels do too.
    """
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if eps_squared < 0:
        raise ValueError(f"eps_squared must be >= 0, got {eps_squared}")

    index = GridIndex(points, eps_squared)
    labels = ClusterLabels(len(points))
    cluster_id = next_cluster_id(NOISE)
    for point_index in range(len(points)):
        if labels.is_unclassified(point_index):
            if _expand_cluster(points, index, labels, point_index,
                               cluster_id, eps_squared, min_pts):
                cluster_id = next_cluster_id(cluster_id)
    return labels


def _expand_cluster(points, index, labels: ClusterLabels, point_index: int,
                    cluster_id: int, eps_squared: int, min_pts: int) -> bool:
    """The original ExpandCluster: returns True if a cluster was found."""
    seeds = index.region_query(points[point_index], eps_squared)
    if len(seeds) < min_pts:
        labels.change_cluster_id(point_index, NOISE)
        return False

    labels.change_cluster_ids(seeds, cluster_id)
    queue = deque(s for s in seeds if s != point_index)
    while queue:
        current = queue.popleft()
        result = index.region_query(points[current], eps_squared)
        if len(result) >= min_pts:
            for neighbor in result:
                if labels[neighbor] in (UNCLASSIFIED, NOISE):
                    if labels[neighbor] == UNCLASSIFIED:
                        queue.append(neighbor)
                    labels.change_cluster_id(neighbor, cluster_id)
    return True
