"""Public one-call API for privacy preserving distributed DBSCAN.

:func:`cluster_partitioned` dispatches on the partition type (Figures
2-4) and protocol variant, returning a uniform :class:`ClusteringRun`.
This is the entry point the examples and most tests use; the per-variant
``run_*`` functions remain available for callers that need the typed
results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.arbitrary import run_arbitrary_dbscan
from repro.core.config import ProtocolConfig
from repro.core.enhanced import run_enhanced_horizontal_dbscan
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import LeakageLedger
from repro.core.vertical import run_vertical_dbscan
from repro.data.partitioning import (
    ArbitraryPartition,
    HorizontalPartition,
    VerticalPartition,
)


class ApiError(ValueError):
    """Raised for unsupported partition/variant combinations."""


@dataclass(frozen=True)
class ClusteringRun:
    """Uniform result of a distributed clustering run.

    Attributes:
        variant: which protocol ran (``horizontal``, ``enhanced``,
            ``vertical``, ``arbitrary``).
        alice_labels: Alice's cluster numbers.  For horizontal variants
            these cover her own points; for vertical/arbitrary they are
            the joint labels (identical to ``bob_labels``).
        bob_labels: Bob's cluster numbers, symmetrically.
        ledger: disclosure accounting.
        stats: communication snapshot (bytes/messages, per phase).
        comparisons: secure comparison invocations.
        elapsed_seconds: wall-clock protocol time.
    """

    variant: str
    alice_labels: tuple[int, ...]
    bob_labels: tuple[int, ...]
    ledger: LeakageLedger
    stats: dict
    comparisons: int
    elapsed_seconds: float


def cluster_partitioned(partition, config: ProtocolConfig, *,
                        enhanced: bool = False) -> ClusteringRun:
    """Cluster a partitioned dataset with the matching paper protocol.

    Args:
        partition: a :class:`HorizontalPartition`,
            :class:`VerticalPartition`, or :class:`ArbitraryPartition`.
        config: protocol parameters (eps, min_pts, crypto settings).
        enhanced: for horizontal partitions, run the Section 5 protocol
            instead of Algorithms 3 + 4.  Invalid for other partitions.

    A caller that wants the plain horizontal run's offline phase or pool
    report builds its two-party mesh and calls
    :func:`~repro.core.horizontal.run_horizontal_dbscan` with ``mesh=``.
    """
    started = time.perf_counter()
    if isinstance(partition, HorizontalPartition):
        if enhanced:
            result = run_enhanced_horizontal_dbscan(partition, config)
            variant = "enhanced"
        else:
            result = run_horizontal_dbscan(partition, config)
            variant = "horizontal"
        alice_labels = result.alice_labels
        bob_labels = result.bob_labels
    elif isinstance(partition, VerticalPartition):
        if enhanced:
            raise ApiError("the enhanced protocol is defined for "
                           "horizontally partitioned data only (Section 5)")
        result = run_vertical_dbscan(partition, config)
        variant = "vertical"
        alice_labels = bob_labels = result.labels
    elif isinstance(partition, ArbitraryPartition):
        if enhanced:
            raise ApiError("the enhanced protocol is defined for "
                           "horizontally partitioned data only (Section 5)")
        result = run_arbitrary_dbscan(partition, config)
        variant = "arbitrary"
        alice_labels = bob_labels = result.labels
    else:
        raise ApiError(f"unsupported partition type "
                       f"{type(partition).__name__}")

    return ClusteringRun(
        variant=variant,
        alice_labels=alice_labels,
        bob_labels=bob_labels,
        ledger=result.ledger,
        stats=result.stats,
        comparisons=result.comparisons,
        elapsed_seconds=time.perf_counter() - started,
    )
