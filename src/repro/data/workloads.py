"""Named standard workloads with tuned DBSCAN parameters.

Tests, benchmarks and examples repeatedly need "a blob/moons/rings
dataset with an eps/min_pts that cleanly clusters it"; this module is
the single source of those combinations so the suites stay consistent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.data.generators import (
    concentric_rings,
    gaussian_blobs,
    grid_clusters,
    two_moons,
    uniform_noise,
)


class WorkloadError(ValueError):
    """Raised for unknown workload names."""


@dataclass(frozen=True)
class Workload:
    """A dataset plus the DBSCAN parameters that resolve its structure.

    Attributes:
        name: registry key.
        points: grid-quantized integer points (scale 100).
        eps: radius in original units.
        min_pts: density threshold.
        expected_clusters: ground-truth cluster count (None when the
            workload is noise-dominated and the count is seed-dependent).
    """

    name: str
    points: tuple[tuple[int, ...], ...]
    eps: float
    min_pts: int
    expected_clusters: int | None


def _build(name: str, seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    per_unit = {"small": 8, "medium": 16, "large": 32}[size]
    if name == "blobs":
        points = gaussian_blobs(
            rng, centers=[(0.0, 0.0), (6.0, 6.0), (0.0, 6.0)],
            points_per_blob=per_unit, spread=0.4)
        return Workload(name, tuple(points), eps=1.2, min_pts=4,
                        expected_clusters=3)
    if name == "moons":
        # Arc spacing pi*3/(3*per_unit) = 0.39 at small; jitter-safe
        # against the 0.9 eps.
        points = two_moons(rng, points_per_moon=3 * per_unit, noise=0.06,
                           even_spacing=True)
        return Workload(name, tuple(points), eps=0.9, min_pts=3,
                        expected_clusters=2)
    if name == "rings":
        # Points per ring sized so the outer ring's arc spacing
        # (2*pi*3 / (4*per_unit) = 0.59 at small) plus jitter stays
        # under eps.
        points = concentric_rings(rng, points_per_ring=4 * per_unit,
                                  radii=(1.5, 3.0), noise=0.05,
                                  even_spacing=True)
        return Workload(name, tuple(points), eps=0.9, min_pts=3,
                        expected_clusters=2)
    if name == "grid":
        points = grid_clusters(clusters_per_side=2, cluster_size=3)
        return Workload(name, tuple(points), eps=0.5, min_pts=3,
                        expected_clusters=4)
    if name == "noisy_blob":
        points = (gaussian_blobs(rng, centers=[(0.0, 0.0)],
                                 points_per_blob=2 * per_unit, spread=0.3)
                  + uniform_noise(rng, count=per_unit // 2))
        return Workload(name, tuple(points), eps=1.0, min_pts=4,
                        expected_clusters=None)
    raise WorkloadError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("blobs", "moons", "rings", "grid", "noisy_blob")


def standard_workload(name: str, *, seed: int = 7,
                      size: str = "small") -> Workload:
    """Fetch a named workload.

    Args:
        name: one of :data:`WORKLOAD_NAMES`.
        seed: generator seed (grid is deterministic regardless).
        size: ``"small"`` / ``"medium"`` / ``"large"`` point budget.
    """
    if name not in WORKLOAD_NAMES:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    if size not in ("small", "medium", "large"):
        raise WorkloadError(f"unknown size {size!r}")
    return _build(name, seed, size)
