"""DBSCAN parameter estimation: the sorted k-dist heuristic.

Ester et al. (1996), Section 4.2 -- the substrate paper of this
reproduction -- propose choosing Eps from the *sorted k-dist graph*:
plot every point's distance to its k-th nearest neighbour in descending
order and use the first "valley" (knee); points left of it are noise,
right of it cluster members.  ``MinPts = k + 1`` pairs with the chosen
Eps (the query point itself counts toward MinPts).

This is plaintext tooling: a data owner would run it on their own share
(or the parties agree on parameters out of band); it never touches the
protocols.
"""

from __future__ import annotations

import math

from repro.clustering.neighborhoods import squared_distance


class EstimationError(ValueError):
    """Raised on undersized inputs."""


def k_distance_profile(points: list[tuple[int, ...]], k: int) -> list[float]:
    """Every point's distance to its k-th nearest neighbour, descending.

    Args:
        points: integer-grid points.
        k: neighbour rank (k >= 1; the point itself is excluded).
    """
    if k < 1:
        raise EstimationError(f"k must be >= 1, got {k}")
    if len(points) <= k:
        raise EstimationError(
            f"need more than k={k} points, got {len(points)}")
    distances = []
    for i, point in enumerate(points):
        others = sorted(squared_distance(point, other)
                        for j, other in enumerate(points) if j != i)
        distances.append(math.sqrt(others[k - 1]))
    distances.sort(reverse=True)
    return distances


def knee_index(profile: list[float]) -> int:
    """Index of the knee of a descending profile.

    Uses the standard maximum-distance-to-chord rule: the knee is the
    point of the curve farthest from the straight line joining its
    endpoints.
    """
    if len(profile) < 3:
        return len(profile) // 2
    first = (0.0, profile[0])
    last = (float(len(profile) - 1), profile[-1])
    chord_dx = last[0] - first[0]
    chord_dy = last[1] - first[1]
    chord_length = math.hypot(chord_dx, chord_dy)
    if chord_length == 0:
        return len(profile) // 2
    best_index = 0
    best_distance = -1.0
    for index, value in enumerate(profile):
        # Perpendicular distance from (index, value) to the chord.
        distance = abs(chord_dx * (first[1] - value)
                       - (first[0] - index) * chord_dy) / chord_length
        if distance > best_distance:
            best_distance = distance
            best_index = index
    return best_index


def suggest_eps(points: list[tuple[int, ...]], k: int = 3, *,
                scale: int = 1) -> float:
    """Suggest an Eps (in original units) from the k-dist knee.

    Args:
        points: integer-grid points.
        k: neighbour rank; pair the result with ``min_pts = k + 1``.
        scale: the fixed-point scale the points were quantized with, so
            the suggestion comes back in original units.
    """
    profile = k_distance_profile(points, k)
    return profile[knee_index(profile)] / scale
