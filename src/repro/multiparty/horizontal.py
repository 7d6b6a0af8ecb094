"""k-party privacy preserving DBSCAN over horizontally partitioned data.

Algorithm 3/4 generalized: each party drives a pass over its own points;
the density test for a point sums the local neighbour count with one
secure count per peer; expansion proceeds through own points only.  The
two-party protocol (:func:`~repro.core.horizontal.run_horizontal_dbscan`)
is this run at ``k = 2``, over parties ``alice`` and ``bob``.

Each per-peer secure count is :func:`secure_peer_neighbor_count`: **one
batched HDP region query** in which the driver's point is encrypted
once per peer (``O(d)`` encryptions regardless of the peer's point
count), all cross terms travel in a single round-trip, and the
threshold comparisons run as one amortized batch.  Labels and
leakage-ledger sequences equal a loop of the per-point
``hdp_within_eps`` reference (property-tested in ``tests/multiparty``).
With ``cache_peer_ciphertexts=True`` each driver pass keeps one
:class:`~repro.core.distance.PeerCipherCache` per peer, so a peer
point's encrypted coordinates cross the wire once per pass (the
linkable trade recorded by the ledger): the query on the driver's point
0 fills it, and the pass's other queries to that peer read it.

Order-free density tests: a point's secure count depends only on the
point, never on when the expansion asks for it, so each point asks one
query per peer per pass, each on its own
:class:`~repro.multiparty.mesh.PairStream`, and the Algorithm 3/4
expansion (:func:`~repro.clustering.expansion.expand_clusters`) reads
the count at every test of the point; the pass's
:mod:`~repro.multiparty.scheduler` executor hands a re-test the counts
it already got.  Here each test runs as the traversal reaches it; a
daemon asks every point's queries first.
Disclosure records are merged in (point, peer) order and each pair's
transcript and stats are reported in canonical order, so nothing
observable depends on the schedule.

Reference semantics: each party's labels equal
``union_density_dbscan(own_points, concatenation_of_all_peer_points)``
-- property-tested in ``tests/multiparty``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clustering.expansion import expand_clusters
from repro.clustering.labels import ClusterLabels
from repro.core.config import ProtocolConfig
from repro.core.distance import (
    PeerCipherCache,
    hdp_region_query,
    hdp_region_query_cached,
)
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.quantize import squared_distance_bound
from repro.multiparty.mesh import MeshError, PartyMesh
from repro.multiparty.scheduler import PassExecutor, PeerQuery
from repro.net.party import Party
from repro.smc.session import SmcSession


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

    labels = expand_clusters(
        points_by_party[driver_name], config.eps_squared,
        lambda point_index, own: own + density_test(point_index)
        >= config.min_pts)
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
    closure (a choreography: the executor drives or awaits it)."""
    stream = mesh.stream(driver_name, peer_name, point_index)
    session = stream.session
    driver = stream.parties[driver_name]
    peer = stream.parties[peer_name]
    cache = caches[peer_name] if caches is not None else None

    label = f"multiparty/{driver_name}-{peer_name}"

    async def run(sub_ledger: LeakageLedger) -> int:
        count = await secure_peer_neighbor_count(
            session, driver, query_point, peer, peer_points, config,
            value_bound, sub_ledger, cache, label=label,
            cached_label=f"{label}/cached")
        sub_ledger.record(f"multiparty/{driver_name}", driver_name,
                          Disclosure.NEIGHBOR_COUNT,
                          detail=f"peer {peer_name}: {count}")
        return count

    return run


async def secure_peer_neighbor_count(session: SmcSession, driver: Party,
                                     query_point: tuple[int, ...], peer: Party,
                                     peer_points: list[tuple[int, ...]],
                                     config: ProtocolConfig, value_bound: int,
                                     ledger: LeakageLedger,
                                     cache: PeerCipherCache | None = None, *,
                                     label: str, cached_label: str) -> int:
    """Steps 3/13 of Algorithm 4: ``|seedsB|`` as one batched HDP query.

    The single secure region count of every horizontal protocol: each
    per-peer query of the mesh above (two parties or more), and the
    responder side of the daemon runtime.  The whole query runs through
    :func:`~repro.core.distance.hdp_region_query` -- the peer presents
    its points in a fresh random order (``SetOfPointsOfBobPermutation``),
    so the driver's per-point bits are unlinkable across queries -- with
    one cross-term round-trip and one amortized comparison batch.  Bits
    and ledger records equal one :func:`~repro.core.distance.hdp_within_eps`
    per peer point, the seed-era reference the tests compare against.

    With a :class:`PeerCipherCache` (``cache_peer_ciphertexts=True``)
    the query runs through the cached twin instead: the peer's encrypted
    coordinates travel once per point per pass, the permutation is
    dropped (stable ids make it pointless), and the ledger records the
    linkable hits.  ``label`` / ``cached_label`` are the caller's
    transcript labels for the two variants.  The caller records the
    count's own disclosure.
    """
    if cache is not None:
        bits = await hdp_region_query_cached(
            session, driver, query_point, peer, list(peer_points),
            list(range(len(peer_points))), cache, config.eps_squared,
            value_bound, ledger=ledger,
            blind_cross_sum=config.blind_cross_sum,
            query_constant_blinding=config.query_constant_blinding,
            label=cached_label)
    else:
        bits = await hdp_region_query(
            session, driver, query_point, peer, list(peer_points),
            config.eps_squared, value_bound, ledger=ledger,
            blind_cross_sum=config.blind_cross_sum,
            query_constant_blinding=config.query_constant_blinding,
            label=label)
    return sum(bits)
