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

Every comparison of b and c declares its public gap: the two sides
differ by ``d_i - d_j`` or ``d_kth - Eps^2`` however large the masks
``v_i`` are, so the bitwise backend pays for ``bits(gap) + 1`` positions
(about ``bits(value_bound) + 1``), not for the masked interval
(DESIGN.md, "Comparisons at the gap width (Section 5)").

A point's core bit depends only on the point, never on when the
traversal asks for it, so the protocol computes every own point's bit
of both passes first and runs the interactive tests in lockstep, one
lane per pass: one step shares every tested point's distances of both
passes, each later step runs every comparison each unfinished selection
of either pass can ask at once, and a pass's final tests are its step
after its last selection step.  Every step is one lanes call, alice's
lane first: alice's requests, bob's requests and his answers to alice,
then alice's answers, so both passes' steps share their flights.  Pass
``p`` has ``P_p`` steps -- the sharing, ``S_p`` selection steps (its
longest selection's comparison count for the scan, its partition levels
for quickselect) and the final tests on the bitwise backend -- and with
both passes testing points a session takes ``2 + 2 max(P_A, P_B) +
[P_B >= P_A]`` rounds (DESIGN.md, "Overlapped Section 5 passes").  Each
comparison and each point's sharing keeps its own messages, labels and
fresh coins; the ledger records alice's pass, then bob's.
Expansion then proceeds exactly as in Algorithm 4, through own points
only (Algorithm 8), in the traversal every horizontal protocol shares
(:func:`~repro.clustering.expansion.expand_clusters`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.clustering.expansion import expand_clusters
from repro.clustering.neighborhoods import GridIndex
from repro.core.config import ProtocolConfig
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import HorizontalPartition
from repro.data.quantize import squared_distance_bound
from repro.net.channel import Channel, drive
from repro.net.party import Party, make_party_pair
from repro.smc.comparison import ComparisonLane
from repro.smc.kth_smallest import (
    Lane,
    kth_smallest_lane,
    pivot_stream,
    run_lockstep,
)
from repro.smc.permutation import PermutedView
from repro.smc.scalar_product import secure_scalar_products_lanes
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

    A pre-built ``session`` may be supplied so callers can read its
    channel afterwards; otherwise channel, parties, and session are
    created here.
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
    alice_points = list(partition.alice_points)
    bob_points = list(partition.bob_points)
    passes = [
        _party_pass(alice, alice_points, bob, bob_points, config,
                    "enhanced/alice_pass"),
        _party_pass(bob, bob_points, alice, alice_points, config,
                    "enhanced/bob_pass"),
    ]
    cores = drive(_core_bits(session, passes, config, value_bound, ledger))
    alice_labels, bob_labels = (
        expand_clusters(driving.driver_points, config.eps_squared,
                        lambda point_index, _own, core=core: core[point_index])
        for driving, core in zip(passes, cores))

    return EnhancedRunResult(
        alice_labels=alice_labels.as_tuple(),
        bob_labels=bob_labels.as_tuple(),
        ledger=ledger,
        stats=alice.endpoint.stats.snapshot(),
        comparisons=session.comparison_backend.invocations,
    )


@dataclass(frozen=True)
class _Pass:
    """One driving party's pass: its points against the peer's, the rank
    ``k = MinPts - |own neighbours|`` each own point needs from the peer,
    and the points whose core test needs the peer (``0 < k <= n_peer``)."""

    driver: Party
    driver_points: list[tuple[int, ...]]
    peer: Party
    peer_points: list[tuple[int, ...]]
    label: str
    needed: list[int]
    tested: list[int]


def _party_pass(driver: Party, driver_points: list[tuple[int, ...]],
                peer: Party, peer_points: list[tuple[int, ...]],
                config: ProtocolConfig, label: str) -> _Pass:
    index = GridIndex(driver_points, config.eps_squared)
    needed = [config.min_pts
              - len(index.region_query(point, config.eps_squared))
              for point in driver_points]
    # k <= 0: own points already reach MinPts -- core, no interaction, no
    # disclosure.  k > n_peer: even all of the peer's points could not
    # reach MinPts -- not core, no interaction.
    tested = [i for i, k in enumerate(needed) if 0 < k <= len(peer_points)]
    return _Pass(driver, driver_points, peer, peer_points, label, needed,
                 tested)


async def _core_bits(session: SmcSession, passes: list[_Pass],
                     config: ProtocolConfig, value_bound: int,
                     ledger: LeakageLedger) -> list[list[bool]]:
    """Section 5's "Updated Protocol": every own point's single-bit core
    test, for every pass; the interactive ones of all passes run in one
    lockstep, one lane per pass (DESIGN.md, "Overlapped Section 5
    passes")."""
    lanes = [driving for driving in passes if driving.tested]
    # Quickselect's pivots come from one stream per pass, forked from the
    # driver's coins before any lane draws, so they depend on neither
    # the backend's coin use nor the schedule.
    pivots = [pivot_stream(driving.driver)
              if config.selection == "quickselect" else None
              for driving in lanes]
    # Step 1 shares every pass's distances; every later step holds each
    # unfinished pass's next selection step or its final tests.
    shares = await _share_distances(session, lanes, value_bound)
    outcomes = await run_lockstep(session.comparison_backend, [
        _core_tests(driving, pass_shares, config, stream)
        for driving, pass_shares, stream in zip(lanes, shares, pivots)])
    bits = {driving.label: lane_bits
            for driving, lane_bits in zip(lanes, outcomes)}

    cores = []
    for driving in passes:
        core = [k <= 0 for k in driving.needed]
        for point_index, bit in zip(driving.tested,
                                    bits.get(driving.label, [])):
            k = driving.needed[point_index]
            ledger.record(driving.label, driving.driver.name,
                          Disclosure.ORDER_BIT,
                          detail=f"selection of rank {k} among "
                                 f"{len(driving.peer_points)} shared "
                                 f"distances")
            ledger.record(driving.label, driving.driver.name,
                          Disclosure.CORE_BIT, detail=f"k={k}")
            core[point_index] = bit
        cores.append(core)
    return cores


def _core_tests(driving: _Pass, shares: list[SharedValues],
                config: ProtocolConfig,
                pivots: random.Random | None) -> Lane:
    """One pass's comparisons as one lane: every tested point's k-th
    selection, then every tested point's final test; returns the core
    bits."""
    kth_indices = yield from kth_smallest_lane(
        driving.driver, driving.peer, shares,
        [driving.needed[i] for i in driving.tested],
        method=config.selection, pivots=pivots,
        label=f"{driving.label}/kselect")
    # Final tests: dist_kth <= Eps^2  <=>  u_kth - Eps^2 <= v_kth.  Every
    # point's shares have the same public bounds, so one interval holds;
    # the sides differ by dist_kth - Eps^2, so one gap bounds them.
    lo, hi = shares[0].threshold_interval(config.eps_squared)
    return (yield ComparisonLane(
        driving.driver, [vector.u_values[kth] - config.eps_squared
                         for vector, kth in zip(shares, kth_indices)],
        driving.peer, [vector.v_values[kth]
                       for vector, kth in zip(shares, kth_indices)],
        lo=lo, hi=hi, gap=shares[0].threshold_gap(config.eps_squared),
        label=f"{driving.label}/core_test"))


async def _share_distances(session: SmcSession, lanes: list[_Pass],
                           value_bound: int) -> list[list[SharedValues]]:
    """Section 5 distance sharing, each tested point of each pass against
    a fresh permutation of the peer's points, all in one lanes call: one
    lane per pass.

    ``alpha = (sum A_t^2, -2A_1, ..., -2A_m, 1)`` and
    ``beta_i = (1, B_i1, ..., B_im, sum B_it^2)`` give
    ``<alpha, beta_i> = dist^2(A, B_i)``; the Multiplication Protocol
    hands the driver ``u_i = dist^2 + v_i``, packed into one reply
    ciphertext per chunk of the peer's points.  Every point has ``sum
    A_t^2 <= q = value_bound / 4``, so every alpha and beta has squared
    norm at most ``q^2 + 4q + 1``: the public bound the packed layout
    needs (Cauchy-Schwarz bounds ``|<alpha, beta_i>|`` by it).
    """
    mask_bound = session.config.mask_bound(value_bound)
    quarter = value_bound // 4
    norm_bound = quarter * quarter + 4 * quarter + 1
    requests = []
    for driving in lanes:
        peer, peer_points = driving.peer, driving.peer_points
        alphas = []
        betas = []
        masks = []
        for point_index in driving.tested:
            query_point = driving.driver_points[point_index]
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
        requests.append(session.scalar_product_lane(
            driving.driver, alphas, peer, betas, masks,
            value_bound=norm_bound, mask_bound=mask_bound,
            label=f"{driving.label}/share"))

    products = await secure_scalar_products_lanes(requests,
                                                  engine=session.engine)
    return [[SharedValues(u_values=tuple(point_u), v_values=tuple(point_v),
                          value_bound=value_bound, mask_bound=mask_bound)
             for point_u, point_v in zip(u_values, request.masks)]
            for request, u_values in zip(requests, products)]
