"""Algorithm 3/4's traversal, shared by every secure horizontal protocol.

Each protocol differs only in how it decides a point's density test:
the two-party protocol and the k-party mesh add secure peer neighbour
counts to the own count, the enhanced protocol (Section 5) reads one
core bit per point.  They all hand that test to :func:`expand_clusters`
as a callable, so the paper's traversal exists once.  The plaintext
model (:mod:`repro.clustering.union_density`) keeps its own traversal,
so the tests still compare against an independent reference.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    ClusterLabels,
    next_cluster_id,
)
from repro.clustering.neighborhoods import GridIndex


def expand_clusters(points: list, eps_squared: int,
                    dense: Callable[[int, int], bool]) -> ClusterLabels:
    """Algorithm 3+4: cluster ``points``, expanding through them only.

    ``dense(i, own)`` is the density test of point ``i``, whose
    Eps-neighbourhood holds ``own`` of ``points`` (``i`` included); it
    is asked at every test of the point, in traversal order.  The
    traversal is the paper's -- each point the outer loop reaches
    unclassified seeds a cluster or becomes noise, and the expansion
    queue grows through ``points`` only, so a noise point reached again
    is tested again -- and the labels do not depend on where the tests'
    answers come from or when they were computed.
    """
    labels = ClusterLabels(len(points))
    index = GridIndex(points, eps_squared)
    cluster_id = next_cluster_id(NOISE)
    for point_index in range(len(points)):
        if not labels.is_unclassified(point_index):
            continue
        seeds = index.region_query(points[point_index], eps_squared)
        if not dense(point_index, len(seeds)):
            labels.change_cluster_id(point_index, NOISE)
            continue
        labels.change_cluster_ids(seeds, cluster_id)
        queue = deque(s for s in seeds if s != point_index)
        while queue:
            current = queue.popleft()
            result = index.region_query(points[current], eps_squared)
            if dense(current, len(result)):
                for neighbor in result:
                    if labels[neighbor] in (UNCLASSIFIED, NOISE):
                        if labels[neighbor] == UNCLASSIFIED:
                            queue.append(neighbor)
                        labels.change_cluster_id(neighbor, cluster_id)
        cluster_id = next_cluster_id(cluster_id)
    return labels
