"""k-party privacy preserving DBSCAN over horizontally partitioned data.

Algorithm 3/4 generalized: each party drives a pass over its own points;
the density test for a queried point sums the local neighbour count with
one secure count per peer; expansion proceeds through own points only.
For ``k = 2`` this reduces exactly to the two-party protocol.

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
trade recorded by the ledger, exactly as in the two-party protocol).

Scheduling: the per-peer queries of one driver step are independent
pairwise protocols (own channel, session, and RNG substream per pair),
so they go through a :mod:`~repro.multiparty.scheduler` pass executor:
in order here, as overlapping coroutines in the daemon runtime.
Disclosure records are merged in deterministic peer order either way,
so labels, per-pair transcripts, the ledger sequence, and comparison
counts do not depend on the schedule.

Reference semantics: each party's labels equal
``union_density_dbscan(own_points, concatenation_of_all_peer_points)``
-- property-tested in ``tests/multiparty``.
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

    executor = PassExecutor()
    labels_by_party = {}
    for driver_name in names:
        caches = ({peer: PeerCipherCache() for peer in
                   mesh.peers_of(driver_name)}
                  if config.cache_peer_ciphertexts else None)
        labels = _driver_pass(mesh, driver_name, points_by_party, config,
                              value_bound, ledger, caches, executor)
        labels_by_party[driver_name] = labels.as_tuple()

    comparisons = sum(
        mesh.session_between(a, b).comparison_backend.invocations
        for index, a in enumerate(names) for b in names[index + 1:])
    return MultipartyRunResult(
        labels_by_party=labels_by_party,
        ledger=ledger,
        stats=mesh.merged_stats().snapshot(),
        comparisons=comparisons,
    )


def _pass_program(own_points: list, config: ProtocolConfig):
    """Algorithm 3+4 as a generator: the single protocol implementation.

    Yields each query point whose cross-party neighbour count the
    protocol needs (one yield per density test -- the seed test of
    Algorithm 3 and every BFS step of Algorithm 4), receives the summed
    peer total back via ``send``, and returns the finished
    :class:`ClusterLabels` through ``StopIteration.value``.

    Both drivers -- the synchronous :func:`_driver_pass` below and the
    daemon's message-granularity ``drive_pass_async`` -- step this same
    generator, so the clustering control flow (and therefore the exact
    sequence of secure queries) cannot diverge between runtimes.
    """
    labels = ClusterLabels(len(own_points))
    index = BruteForceIndex(own_points)
    eps_squared = config.eps_squared
    cluster_id = next_cluster_id(NOISE)
    for point_index in range(len(own_points)):
        if not labels.is_unclassified(point_index):
            continue
        seeds = index.region_query(index.points[point_index], eps_squared)
        peer_total = yield index.points[point_index]
        if len(seeds) + peer_total < config.min_pts:
            labels.change_cluster_id(point_index, NOISE)
            continue
        labels.change_cluster_ids(seeds, cluster_id)
        queue = deque(s for s in seeds if s != point_index)
        while queue:
            current = queue.popleft()
            result = index.region_query(index.points[current], eps_squared)
            peer_total = yield index.points[current]
            if len(result) + peer_total >= config.min_pts:
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
                 executor: PassExecutor) -> ClusterLabels:
    """Drive :func:`_pass_program` with blocking per-peer queries."""
    program = _pass_program(list(points_by_party[driver_name]), config)
    try:
        query_point = next(program)
        while True:
            total = _all_peer_counts(mesh, driver_name, points_by_party,
                                     query_point, config, value_bound,
                                     ledger, caches, executor)
            query_point = program.send(total)
    except StopIteration as done:
        return done.value


def _all_peer_counts(mesh: PartyMesh, driver_name: str,
                     points_by_party: dict[str, list],
                     query_point: tuple[int, ...], config: ProtocolConfig,
                     value_bound: int, ledger: LeakageLedger,
                     caches: dict[str, PeerCipherCache] | None,
                     executor: PassExecutor) -> int:
    """One secure neighbour count per peer, summed.

    The per-peer queries run through the pass executor; each records
    into a private sub-ledger that is merged here in deterministic peer
    order, so the disclosure sequence is identical however the queries
    were scheduled.
    """
    tasks = _build_peer_queries(mesh, driver_name, points_by_party,
                                query_point, config, value_bound, caches)
    return _merge_outcomes(executor.run_pass(tasks), ledger)


def _merge_outcomes(outcomes, ledger: LeakageLedger) -> int:
    """Fold pass outcomes (already in task order) into the run ledger."""
    total = 0
    for outcome in outcomes:
        ledger.extend(outcome.ledger)
        total += outcome.count
    return total


def _build_peer_queries(mesh: PartyMesh, driver_name: str,
                        points_by_party: dict[str, list],
                        query_point: tuple[int, ...],
                        config: ProtocolConfig, value_bound: int,
                        caches: dict[str, PeerCipherCache] | None,
                        ) -> list[PeerQuery]:
    """The scheduler tasks of one density test, in mesh peer order."""
    tasks = []
    for peer_name in mesh.peers_of(driver_name):
        peer_points = points_by_party[peer_name]
        if not peer_points:
            continue
        tasks.append(PeerQuery(
            peer=peer_name,
            run=_make_peer_task(mesh, driver_name, peer_name, query_point,
                                list(peer_points), config, value_bound,
                                caches),
            prepare=_make_prepare(mesh, driver_name, peer_name),
        ))
    return tasks


def _make_prepare(mesh: PartyMesh, driver_name: str, peer_name: str):
    """The query announcement, split from ``run`` so executors that may
    re-execute the query body (the restartable async path) announce it
    exactly once."""
    return lambda: mesh.begin_peer_query(driver_name, peer_name)


def _make_peer_task(mesh: PartyMesh, driver_name: str, peer_name: str,
                    query_point: tuple[int, ...], peer_points: list,
                    config: ProtocolConfig, value_bound: int,
                    caches: dict[str, PeerCipherCache] | None):
    """Bind one peer's query into a scheduler task closure."""
    session = mesh.session_between(driver_name, peer_name)
    driver = mesh.party_in_pair(driver_name, peer_name)
    peer = mesh.party_in_pair(peer_name, driver_name)
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
