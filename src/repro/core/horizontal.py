"""Privacy preserving DBSCAN over horizontally partitioned data.

Algorithms 3 and 4 of the paper, as two symmetric passes through the
shared traversal (:func:`~repro.clustering.expansion.expand_clusters`):

- Alice drives a DBSCAN over *her* points in which every region query
  combines a local query (``seedsA``) with a secure query against Bob's
  freshly permuted points (``seedsB``, via Protocol HDP, steps 3/13 of
  Algorithm 4); the density test uses ``|seedsA| + |seedsB|`` but
  expansion proceeds through ``seedsA`` only.
- Bob then drives the symmetric pass over his points.

Each party ends with cluster numbers for its own records; the two
numberings are independent (see DESIGN.md Section 2, item 1 -- this is
what the published algorithm computes, *not* centralized DBSCAN, and the
plaintext model of it lives in
:func:`repro.clustering.union_density.union_density_dbscan`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.clustering.expansion import expand_clusters
from repro.core.config import ProtocolConfig
from repro.core.distance import (
    PeerCipherCache,
    hdp_region_query,
    hdp_region_query_cached,
)
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import HorizontalPartition
from repro.data.quantize import squared_distance_bound
from repro.net.channel import Channel, drive
from repro.net.party import Party, make_party_pair
from repro.smc.session import SmcSession, channel_for_config


@dataclass(frozen=True)
class HorizontalRunResult:
    """Output of a horizontal protocol run.

    Attributes:
        alice_labels / bob_labels: each party's cluster numbering over
            its own points.
        ledger: disclosure accounting for the whole run.
        stats: communication statistics snapshot (bytes, messages).
        comparisons: secure-comparison invocations across both passes.
    """

    alice_labels: tuple[int, ...]
    bob_labels: tuple[int, ...]
    ledger: LeakageLedger
    stats: dict
    comparisons: int


def run_horizontal_dbscan(partition: HorizontalPartition,
                          config: ProtocolConfig,
                          *, channel: Channel | None = None,
                          session: SmcSession | None = None,
                          ) -> HorizontalRunResult:
    """Run Algorithms 3 + 4 over a horizontal partition.

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

    alice_labels = expand_clusters(
        list(partition.alice_points), config.eps_squared,
        _density_test(session, alice, partition.alice_points, bob,
                      partition.bob_points, config, value_bound, ledger,
                      label="horizontal/alice_pass"))
    bob_labels = expand_clusters(
        list(partition.bob_points), config.eps_squared,
        _density_test(session, bob, partition.bob_points, alice,
                      partition.alice_points, config, value_bound, ledger,
                      label="horizontal/bob_pass"))

    return HorizontalRunResult(
        alice_labels=alice_labels.as_tuple(),
        bob_labels=bob_labels.as_tuple(),
        ledger=ledger,
        stats=alice.endpoint.stats.snapshot(),
        comparisons=session.comparison_backend.invocations,
    )


def _density_test(session: SmcSession, driver: Party,
                  driver_points: Sequence[tuple[int, ...]], peer: Party,
                  peer_points: Sequence[tuple[int, ...]],
                  config: ProtocolConfig, value_bound: int,
                  ledger: LeakageLedger, *,
                  label: str) -> Callable[[int, int], bool]:
    """One pass's density test (steps 3/13 of Algorithm 4):
    ``|seedsA| + |seedsB| >= MinPts``, with ``|seedsB|`` one secure
    query per test -- a re-tested point queries the peer again."""
    peer_points = list(peer_points)
    cache = PeerCipherCache() if config.cache_peer_ciphertexts else None

    def dense(point_index: int, own_count: int) -> bool:
        if not peer_points:
            return own_count >= config.min_pts
        count = drive(secure_peer_neighbor_count(
            session, driver, driver_points[point_index], peer, peer_points,
            config, value_bound, ledger, cache, label=f"{label}/hdp",
            cached_label=f"{label}/hdp_cached"))
        ledger.record(label, driver.name, Disclosure.NEIGHBOR_COUNT,
                      detail=f"peer neighbourhood size {count}")
        return own_count + count >= config.min_pts

    return dense


async def secure_peer_neighbor_count(session: SmcSession, driver: Party,
                                     query_point: tuple[int, ...], peer: Party,
                                     peer_points: list[tuple[int, ...]],
                                     config: ProtocolConfig, value_bound: int,
                                     ledger: LeakageLedger,
                                     cache: PeerCipherCache | None = None, *,
                                     label: str, cached_label: str) -> int:
    """Steps 3/13 of Algorithm 4: ``|seedsB|`` as one batched HDP query.

    The single secure region count of every horizontal protocol: the
    two-party passes above, each per-peer query of the k-party mesh, and
    the responder side of both distributed runtimes.  The whole query
    runs through :func:`~repro.core.distance.hdp_region_query` -- the
    peer presents its points in a fresh random order
    (``SetOfPointsOfBobPermutation``), so the driver's per-point bits are
    unlinkable across queries -- with one cross-term round-trip and one
    amortized comparison batch.  Bits and ledger records equal one
    :func:`~repro.core.distance.hdp_within_eps` per peer point, the
    seed-era reference the tests compare against.

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
