"""Enhanced privacy preserving DBSCAN over horizontal data (Section 5).

Same clustering output as Algorithms 3 + 4 (tested), strictly less
disclosure: instead of revealing how many of the peer's points fall in a
neighbourhood, each core-point test reveals a single bit -- whether the
peer holds at least ``k = MinPts - |own neighbours|`` points within Eps
(Theorem 11's statement).

The core test per queried point ``A``:

1. ``k <= 0``: core, with **zero interaction** (own points suffice).
2. ``k > n_peer``: not core, with zero interaction.
3. Otherwise the parties run the Section 5 machinery:

   a. Distance sharing via the Multiplication Protocol in its batched
      scalar-product form: the driver's vector
      ``alpha = (sum A_t^2, -2A_1, ..., -2A_m, 1)`` meets the peer's
      ``beta_i = (1, B_i1, ..., B_im, sum B_it^2)`` so the driver learns
      ``u_i = dist^2(A, B_i) + v_i`` with ``v_i`` private to the peer.
   b. Secure selection of the k-th smallest shared distance
      (scan ``O(kn)`` or quickselect expected ``O(n)``, paper's two
      variants) through YMPP comparisons of
      ``(u_i - u_j)`` vs ``(v_i - v_j)``.
   c. One final comparison ``u_kth - Eps^2 <= v_kth`` -- the core bit.

Expansion then proceeds exactly as in Algorithm 4 (through own points
only; Algorithm 8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    ClusterLabels,
    next_cluster_id,
)
from repro.clustering.neighborhoods import GridIndex
from repro.core.config import ProtocolConfig
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import HorizontalPartition
from repro.data.quantize import squared_distance_bound
from repro.net.channel import Channel
from repro.net.party import Party, make_party_pair
from repro.smc.permutation import PermutedView
from repro.smc.secret_sharing import SharedValues
from repro.smc.session import SmcSession, channel_for_config


@dataclass(frozen=True)
class EnhancedRunResult:
    """Output of an enhanced horizontal run."""

    alice_labels: tuple[int, ...]
    bob_labels: tuple[int, ...]
    ledger: LeakageLedger
    stats: dict
    comparisons: int


def run_enhanced_horizontal_dbscan(partition: HorizontalPartition,
                                   config: ProtocolConfig,
                                   *, channel: Channel | None = None,
                                   session: SmcSession | None = None,
                                   ) -> EnhancedRunResult:
    """Run Algorithms 7 + 8 over a horizontal partition.

    A pre-built ``session`` may be supplied so callers can run the
    offline phase (``session.precompute_pools``) outside whatever they
    are timing; otherwise channel, parties, and session are created here.
    """
    if session is None:
        channel = (channel if channel is not None
                   else channel_for_config(config.smc))
        alice, bob = make_party_pair(channel, config.alice_seed,
                                     config.bob_seed)
        session = SmcSession(alice, bob, config.smc)
    elif channel is not None:
        raise ValueError("pass either channel or session, not both")
    else:
        alice, bob = session.alice, session.bob
    ledger = LeakageLedger()

    value_bound = squared_distance_bound(partition.alice_points,
                                         partition.bob_points)

    alice_labels = _party_pass(
        session, driver=alice, driver_points=list(partition.alice_points),
        peer=bob, peer_points=list(partition.bob_points),
        config=config, value_bound=value_bound, ledger=ledger,
        label="enhanced/alice_pass")
    bob_labels = _party_pass(
        session, driver=bob, driver_points=list(partition.bob_points),
        peer=alice, peer_points=list(partition.alice_points),
        config=config, value_bound=value_bound, ledger=ledger,
        label="enhanced/bob_pass")

    return EnhancedRunResult(
        alice_labels=alice_labels.as_tuple(),
        bob_labels=bob_labels.as_tuple(),
        ledger=ledger,
        stats=alice.endpoint.stats.snapshot(),
        comparisons=session.comparison_backend.invocations,
    )


def _party_pass(session: SmcSession, *, driver: Party,
                driver_points: list[tuple[int, ...]], peer: Party,
                peer_points: list[tuple[int, ...]], config: ProtocolConfig,
                value_bound: int, ledger: LeakageLedger,
                label: str) -> ClusterLabels:
    """Algorithm 7 for one driving party."""
    labels = ClusterLabels(len(driver_points))
    index = GridIndex(driver_points, config.eps_squared)
    cluster_id = next_cluster_id(NOISE)
    for point_index in range(len(driver_points)):
        if labels.is_unclassified(point_index):
            if _enhanced_expand_cluster(
                    session, driver=driver, index=index, labels=labels,
                    point_index=point_index, cluster_id=cluster_id,
                    peer=peer, peer_points=peer_points, config=config,
                    value_bound=value_bound, ledger=ledger, label=label):
                cluster_id = next_cluster_id(cluster_id)
    return labels


def _enhanced_expand_cluster(session: SmcSession, *, driver: Party,
                             index, labels: ClusterLabels,
                             point_index: int, cluster_id: int, peer: Party,
                             peer_points: list[tuple[int, ...]],
                             config: ProtocolConfig, value_bound: int,
                             ledger: LeakageLedger, label: str) -> bool:
    """Algorithm 8 (EnhancedExpandCluster) for the driving party."""
    eps_squared = config.eps_squared
    seeds = index.region_query(index.points[point_index], eps_squared)
    if not _is_core_point(session, driver, index.points[point_index],
                          len(seeds), peer, peer_points, config,
                          value_bound, ledger, label=label):
        labels.change_cluster_id(point_index, NOISE)
        return False

    labels.change_cluster_ids(seeds, cluster_id)
    queue = deque(s for s in seeds if s != point_index)
    while queue:
        current = queue.popleft()
        result = index.region_query(index.points[current], eps_squared)
        if _is_core_point(session, driver, index.points[current],
                          len(result), peer, peer_points, config,
                          value_bound, ledger, label=label):
            for neighbor in result:
                if labels[neighbor] in (UNCLASSIFIED, NOISE):
                    if labels[neighbor] == UNCLASSIFIED:
                        queue.append(neighbor)
                    labels.change_cluster_id(neighbor, cluster_id)
    return True


def _is_core_point(session: SmcSession, driver: Party,
                   query_point: tuple[int, ...], own_neighbor_count: int,
                   peer: Party, peer_points: list[tuple[int, ...]],
                   config: ProtocolConfig, value_bound: int,
                   ledger: LeakageLedger, *, label: str) -> bool:
    """Section 5's "Updated Protocol": the single-bit core test."""
    needed = config.min_pts - own_neighbor_count
    if needed <= 0:
        # Own points already reach MinPts: no interaction, no disclosure.
        return True
    if needed > len(peer_points):
        # Even all of the peer's points could not reach MinPts.
        return False

    shares = _share_distances(session, driver, query_point, peer,
                              peer_points, value_bound, label=label)
    kth_index = session.kth_smallest(
        driver, peer, shares, needed, method=config.selection,
        label=f"{label}/kselect")
    order_bits = session.comparison_backend.invocations
    ledger.record(label, driver.name, Disclosure.ORDER_BIT,
                  detail=f"selection used secure comparisons "
                         f"(cumulative {order_bits})")

    # Final test: dist_kth <= Eps^2  <=>  u_kth - Eps^2 <= v_kth.
    lo, hi = shares.threshold_interval(config.eps_squared)
    outcome = session.compare_leq(
        driver, shares.u_values[kth_index] - config.eps_squared,
        peer, shares.v_values[kth_index],
        lo=lo, hi=hi, reveal_to="a", label=f"{label}/core_test")
    ledger.record(label, driver.name, Disclosure.CORE_BIT,
                  detail=f"k={needed}")
    return outcome.result


def _share_distances(session: SmcSession, driver: Party,
                     query_point: tuple[int, ...], peer: Party,
                     peer_points: list[tuple[int, ...]], value_bound: int,
                     *, label: str) -> SharedValues:
    """Section 5 distance sharing over a fresh permutation of peer points.

    ``alpha = (sum A_t^2, -2A_1, ..., -2A_m, 1)`` and
    ``beta_i = (1, B_i1, ..., B_im, sum B_it^2)`` give
    ``<alpha, beta_i> = dist^2(A, B_i)``; the Multiplication Protocol
    hands the driver ``u_i = dist^2 + v_i``.
    """
    view = PermutedView.fresh(len(peer_points), peer.rng)
    alpha = [sum(c * c for c in query_point)]
    alpha.extend(-2 * c for c in query_point)
    alpha.append(1)

    mask_bound = session.config.mask_bound(value_bound)
    betas = []
    masks = []
    for permuted_position in range(len(view)):
        peer_point = peer_points[view.true_index(permuted_position)]
        beta = [1]
        beta.extend(peer_point)
        beta.append(sum(c * c for c in peer_point))
        betas.append(beta)
        masks.append(peer.rng.randrange(mask_bound))

    u_values = session.scalar_products(driver, alpha, peer, betas, masks,
                                       label=f"{label}/share")
    return SharedValues(
        u_values=tuple(u_values),
        v_values=tuple(masks),
        value_bound=value_bound,
        mask_bound=mask_bound,
    )
