"""Enhanced privacy preserving DBSCAN over horizontal data (Section 5).

Same clustering output as Algorithms 3 + 4 (tested), strictly less
disclosure: instead of revealing how many of the peer's points fall in a
neighbourhood, each core-point test reveals a single bit -- whether the
peer holds at least ``k = MinPts - |own neighbours|`` points within Eps
(Theorem 11's statement).

The core test per own point ``A``:

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
      variants) through comparisons of
      ``(u_i - u_j)`` vs ``(v_i - v_j)``.
   c. One final comparison ``u_kth - Eps^2 <= v_kth`` -- the core bit.

A point's core bit depends only on the point, never on when the
traversal asks for it, so a pass computes every own point's bit first
and runs the interactive tests in lockstep: one round-trip shares every
tested point's distances, each selection step runs the next comparison
of every unfinished selection, and one more round-trip runs all the
final tests.  A pass with tested points takes ``2 + 2(S + 1)`` rounds on
the bitwise backend, ``S`` its longest selection's comparison count;
each comparison and each point's sharing keeps its own messages.
Expansion then proceeds exactly as in Algorithm 4, through own points
only (Algorithm 8), in the traversal every horizontal protocol shares
(:func:`~repro.clustering.expansion.expand_clusters`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clustering.expansion import expand_clusters
from repro.clustering.labels import ClusterLabels
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
    """Algorithms 7 + 8 for one driving party: every own point's core
    bit, then the expansion reads them."""
    core = _core_bits(session, driver, driver_points, peer, peer_points,
                      config, value_bound, ledger, label=label)
    return expand_clusters(driver_points, config.eps_squared,
                           lambda point_index, _own: core[point_index])


def _core_bits(session: SmcSession, driver: Party,
               driver_points: list[tuple[int, ...]], peer: Party,
               peer_points: list[tuple[int, ...]], config: ProtocolConfig,
               value_bound: int, ledger: LeakageLedger, *,
               label: str) -> list[bool]:
    """Section 5's "Updated Protocol": every own point's single-bit core
    test, the interactive ones in lockstep."""
    index = GridIndex(driver_points, config.eps_squared)
    needed = [config.min_pts
              - len(index.region_query(point, config.eps_squared))
              for point in driver_points]
    # k <= 0: own points already reach MinPts -- core, no interaction, no
    # disclosure.  k > n_peer: even all of the peer's points could not
    # reach MinPts -- not core, no interaction.
    core = [k <= 0 for k in needed]
    tested = [i for i, k in enumerate(needed) if 0 < k <= len(peer_points)]
    if not tested:
        return core

    shares = _share_distances(
        session, driver, [driver_points[i] for i in tested], peer,
        peer_points, value_bound, label=label)
    kth_indices = session.kth_smallest(
        driver, peer, shares, [needed[i] for i in tested],
        method=config.selection, label=f"{label}/kselect")

    # Final tests: dist_kth <= Eps^2  <=>  u_kth - Eps^2 <= v_kth.  Every
    # point's shares have the same public bounds, so one interval holds.
    lo, hi = shares[0].threshold_interval(config.eps_squared)
    outcomes = session.compare_leq_batch(
        driver, [vector.u_values[kth] - config.eps_squared
                 for vector, kth in zip(shares, kth_indices)],
        peer, [vector.v_values[kth]
               for vector, kth in zip(shares, kth_indices)],
        lo=lo, hi=hi, reveal_to="a", label=f"{label}/core_test")
    for point_index, outcome in zip(tested, outcomes):
        ledger.record(label, driver.name, Disclosure.ORDER_BIT,
                      detail=f"selection of rank {needed[point_index]} "
                             f"among {len(peer_points)} shared distances")
        ledger.record(label, driver.name, Disclosure.CORE_BIT,
                      detail=f"k={needed[point_index]}")
        core[point_index] = outcome.result
    return core


def _share_distances(session: SmcSession, driver: Party,
                     query_points: list[tuple[int, ...]], peer: Party,
                     peer_points: list[tuple[int, ...]], value_bound: int,
                     *, label: str) -> list[SharedValues]:
    """Section 5 distance sharing, each query point against a fresh
    permutation of the peer's points, all in one round-trip.

    ``alpha = (sum A_t^2, -2A_1, ..., -2A_m, 1)`` and
    ``beta_i = (1, B_i1, ..., B_im, sum B_it^2)`` give
    ``<alpha, beta_i> = dist^2(A, B_i)``; the Multiplication Protocol
    hands the driver ``u_i = dist^2 + v_i``.
    """
    mask_bound = session.config.mask_bound(value_bound)
    alphas = []
    betas = []
    masks = []
    for query_point in query_points:
        view = PermutedView.fresh(len(peer_points), peer.rng)
        alpha = [sum(c * c for c in query_point)]
        alpha.extend(-2 * c for c in query_point)
        alpha.append(1)
        alphas.append(alpha)
        point_betas = []
        point_masks = []
        for permuted_position in range(len(view)):
            peer_point = peer_points[view.true_index(permuted_position)]
            beta = [1]
            beta.extend(peer_point)
            beta.append(sum(c * c for c in peer_point))
            point_betas.append(beta)
            point_masks.append(peer.rng.randrange(mask_bound))
        betas.append(point_betas)
        masks.append(point_masks)

    u_values = session.scalar_products(driver, alphas, peer, betas, masks,
                                       label=f"{label}/share")
    return [SharedValues(u_values=tuple(point_u), v_values=tuple(point_v),
                         value_bound=value_bound, mask_bound=mask_bound)
            for point_u, point_v in zip(u_values, masks)]
