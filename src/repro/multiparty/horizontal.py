"""k-party privacy preserving DBSCAN over horizontally partitioned data.

Algorithm 3/4 generalized: each party drives a pass over its own points;
the density test for a point sums the local neighbour count with one
secure count per peer; expansion proceeds through own points only.  For
``k = 2`` this reduces exactly to the two-party protocol.

Each per-peer secure count is the two-party protocol's
:func:`~repro.core.horizontal.secure_peer_neighbor_count`: **one batched
HDP region query** in which the driver's point is encrypted once per
peer (``O(d)`` encryptions regardless of the peer's point count), all
cross terms travel in a single round-trip, and the threshold
comparisons run as one amortized batch.  Labels and leakage-ledger
sequences equal a loop of the per-point ``hdp_within_eps`` reference
(property-tested in ``tests/multiparty``).  With
``cache_peer_ciphertexts=True`` each driver pass keeps one
:class:`~repro.core.distance.PeerCipherCache` per peer, so a peer
point's encrypted coordinates cross the wire once per pass (the linkable
trade recorded by the ledger, exactly as in the two-party protocol):
the query on the driver's point 0 fills it, and the pass's other
queries to that peer read it.

Order-free density tests: a point's secure count depends only on the
point, never on when the expansion asks for it, so each point asks one
query per peer per pass, each on its own
:class:`~repro.multiparty.mesh.PairStream`, and the Algorithm 3/4
expansion (:func:`expand_clusters`) reads the count at every test of
the point; the pass's :mod:`~repro.multiparty.scheduler` executor hands
a re-test the counts it already got.  Here each test runs as the
traversal reaches it; a daemon asks every point's queries first.
Disclosure records are merged in (point, peer) order and each pair's
transcript and stats are reported in canonical order, so nothing
observable depends on the schedule.

Reference semantics: each party's labels equal
``union_density_dbscan(own_points, concatenation_of_all_peer_points)``
-- property-tested in ``tests/multiparty``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    ClusterLabels,
    next_cluster_id,
)
from repro.clustering.neighborhoods import BruteForceIndex
from repro.core.config import ProtocolConfig
from repro.core.distance import PeerCipherCache
from repro.core.horizontal import secure_peer_neighbor_count
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.quantize import squared_distance_bound
from repro.multiparty.mesh import MeshError, PartyMesh
from repro.multiparty.scheduler import PassExecutor, PeerQuery


@dataclass(frozen=True)
class MultipartyRunResult:
    """Output of a k-party horizontal run.

    Attributes:
        labels_by_party: each party's cluster numbering over its points.
        ledger: disclosure accounting across all pairwise protocols.
        stats: merged communication snapshot over all pairwise channels.
        comparisons: secure-comparison invocations, summed over sessions.
    """

    labels_by_party: dict[str, tuple[int, ...]]
    ledger: LeakageLedger
    stats: dict
    comparisons: int


def run_multiparty_horizontal_dbscan(points_by_party: dict[str, list],
                                     config: ProtocolConfig,
                                     *, seeds: list[int] | None = None,
                                     mesh: PartyMesh | None = None,
                                     rng_namespace: str | None = None,
                                     ) -> MultipartyRunResult:
    """Run the k-party horizontal protocol.

    Args:
        points_by_party: party name -> that party's integer-grid points.
        config: protocol parameters; ``config.smc`` configures every
            pairwise session.
        seeds: optional per-party RNG seeds (ordered as the dict).
        mesh: a pre-built :class:`PartyMesh` over the same party names,
            so callers can run the offline phase
            (``mesh.precompute_pools``) outside whatever they are
            timing; when omitted, the mesh is created here.
        rng_namespace: per-session coin-stream namespace for the mesh
            built here (ignored when ``mesh`` is supplied); matches the
            daemon runtime's per-session derivation so reference runs
            can reproduce a multiplexed session's coins exactly.
    """
    names = list(points_by_party)
    if len(names) < 2:
        raise MeshError("need at least two parties")
    if mesh is None:
        mesh = PartyMesh(names, config.smc, seeds=seeds,
                         rng_namespace=rng_namespace)
    elif set(mesh.names) != set(names):
        raise MeshError(
            f"mesh parties {mesh.names} do not match data parties {names}")
    ledger = LeakageLedger()

    all_points = [p for points in points_by_party.values() for p in points]
    value_bound = squared_distance_bound(all_points, all_points)

    labels_by_party = {}
    for driver_name in names:
        caches = ({peer: PeerCipherCache() for peer in
                   mesh.peers_of(driver_name)}
                  if config.cache_peer_ciphertexts else None)
        labels = _driver_pass(mesh, driver_name, points_by_party, config,
                              value_bound, ledger, caches)
        labels_by_party[driver_name] = labels.as_tuple()

    return MultipartyRunResult(
        labels_by_party=labels_by_party,
        ledger=ledger,
        stats=mesh.merged_stats().snapshot(),
        comparisons=mesh.comparisons(),
    )


def expand_clusters(own_points: list, peer_count: Callable[[int], int],
                    config: ProtocolConfig) -> ClusterLabels:
    """Algorithm 3+4: the single expansion.

    ``peer_count(i)`` is own point ``i``'s neighbour count summed over
    every peer, asked at each density test of the point.  The traversal
    is the paper's -- each point the outer loop reaches unclassified
    seeds a cluster or becomes noise, and the expansion queue grows
    through own points only -- so the labels do not depend on where the
    counts come from or when they were computed.
    """
    labels = ClusterLabels(len(own_points))
    index = BruteForceIndex(own_points)
    eps_squared = config.eps_squared

    def dense(point_index: int, neighbours: list[int]) -> bool:
        return len(neighbours) + peer_count(point_index) >= config.min_pts

    cluster_id = next_cluster_id(NOISE)
    for point_index in range(len(own_points)):
        if not labels.is_unclassified(point_index):
            continue
        seeds = index.region_query(index.points[point_index], eps_squared)
        if not dense(point_index, seeds):
            labels.change_cluster_id(point_index, NOISE)
            continue
        labels.change_cluster_ids(seeds, cluster_id)
        queue = deque(s for s in seeds if s != point_index)
        while queue:
            current = queue.popleft()
            result = index.region_query(index.points[current], eps_squared)
            if dense(current, result):
                for neighbor in result:
                    if labels[neighbor] in (UNCLASSIFIED, NOISE):
                        if labels[neighbor] == UNCLASSIFIED:
                            queue.append(neighbor)
                        labels.change_cluster_id(neighbor, cluster_id)
        cluster_id = next_cluster_id(cluster_id)
    return labels


def _driver_pass(mesh: PartyMesh, driver_name: str,
                 points_by_party: dict[str, list], config: ProtocolConfig,
                 value_bound: int, ledger: LeakageLedger,
                 caches: dict[str, PeerCipherCache] | None,
                 ) -> ClusterLabels:
    """One pass: the expansion, each density test through the pass's
    executor as the traversal reaches it -- point 0 first, so its
    queries fill any peer cipher caches."""
    executor = PassExecutor()

    def density_test(point_index: int) -> int:
        return sum(outcome.count for outcome in executor.run_pass(
            point_queries(mesh, driver_name, point_index, points_by_party,
                          config, value_bound, caches)))

    labels = expand_clusters(points_by_party[driver_name], density_test,
                             config)
    executor.merge_into(ledger)
    return labels


def point_queries(mesh: PartyMesh, driver_name: str, point_index: int,
                  points_by_party: dict[str, list],
                  config: ProtocolConfig, value_bound: int,
                  caches: dict[str, PeerCipherCache] | None,
                  ) -> list[PeerQuery]:
    """The scheduler tasks of one density test -- the driver's own point
    ``point_index`` against every peer holding points -- in mesh peer
    order, each on its own stream."""
    query_point = tuple(points_by_party[driver_name][point_index])
    return [
        PeerQuery(peer=peer_name, query=point_index,
                  run=_make_peer_task(mesh, driver_name, peer_name,
                                      point_index, query_point,
                                      list(points_by_party[peer_name]),
                                      config, value_bound, caches))
        for peer_name in mesh.peers_of(driver_name)
        if points_by_party[peer_name]]


def _make_peer_task(mesh: PartyMesh, driver_name: str, peer_name: str,
                    point_index: int, query_point: tuple[int, ...],
                    peer_points: list, config: ProtocolConfig,
                    value_bound: int,
                    caches: dict[str, PeerCipherCache] | None):
    """Bind one peer's query, on its stream, into a scheduler task
    closure."""
    stream = mesh.stream(driver_name, peer_name, point_index)
    session = stream.session
    driver = stream.parties[driver_name]
    peer = stream.parties[peer_name]
    cache = caches[peer_name] if caches is not None else None

    label = f"multiparty/{driver_name}-{peer_name}"

    def run(sub_ledger: LeakageLedger) -> int:
        count = secure_peer_neighbor_count(
            session, driver, query_point, peer, peer_points, config,
            value_bound, sub_ledger, cache, label=label,
            cached_label=f"{label}/cached")
        sub_ledger.record(f"multiparty/{driver_name}", driver_name,
                          Disclosure.NEIGHBOR_COUNT,
                          detail=f"peer {peer_name}: {count}")
        return count

    return run
