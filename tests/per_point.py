"""The per-point region query: the reference the batched path must match.

The protocols run every secure region query through
:func:`repro.core.distance.hdp_region_query` (or its cached twin): one
batched cross-term exchange and one amortized comparison batch.  The
reference below is Section 4.2 as written -- one
:func:`~repro.core.distance.hdp_within_eps` per peer point, hence one
``compare_leq`` per point -- behind the same signatures, so a test can
call either directly or swap the reference into whole protocol runs with
:func:`per_point_queries`.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.core.distance import hdp_within_eps, hdp_within_eps_cached
from repro.multiparty import horizontal
from repro.smc.permutation import PermutedView


async def per_point_region_query(session, querier, querier_point, peer,
                                 peer_points, eps_squared, value_bound, *,
                                 ledger=None, blind_cross_sum=False,
                                 query_constant_blinding=False,
                                 label="hdp") -> list[bool]:
    """One HDP per peer point over a fresh permutation of the peer's
    points (Algorithm 4's ``SetOfPointsOfBobPermutation``).  Bits come
    back in presentation order, as the batched query returns them."""
    if query_constant_blinding:
        raise ValueError("the per-point HDP draws one offset per point; "
                         "it has no query-constant form")
    view = PermutedView.fresh(len(peer_points), peer.rng)
    return [await hdp_within_eps(session, querier, querier_point, peer,
                                 peer_points[view.true_index(position)],
                                 eps_squared, value_bound, ledger=ledger,
                                 blind_cross_sum=blind_cross_sum, label=label)
            for position in range(len(view))]


async def per_point_region_query_cached(session, querier, querier_point, peer,
                                        peer_points, point_ids, cache,
                                        eps_squared, value_bound, *,
                                        ledger=None, blind_cross_sum=False,
                                        query_constant_blinding=False,
                                        label="hdp_cached") -> list[bool]:
    """One cached HDP per peer point, in stable-id order."""
    if query_constant_blinding:
        raise ValueError("the per-point HDP draws one offset per point; "
                         "it has no query-constant form")
    return [await hdp_within_eps_cached(session, querier, querier_point,
                                        peer, point, point_id, cache,
                                        eps_squared, value_bound,
                                        ledger=ledger,
                                        blind_cross_sum=blind_cross_sum,
                                        label=label)
            for point_id, point in zip(point_ids, peer_points)]


@contextlib.contextmanager
def per_point_queries():
    """Run every horizontal protocol's region queries on the reference.

    The mesh -- two parties or more -- counts a peer's neighbours
    through ``repro.multiparty.horizontal.secure_peer_neighbor_count``,
    so replacing the two region queries it calls swaps the reference
    into every driver.
    """
    with mock.patch.multiple(
            horizontal, hdp_region_query=per_point_region_query,
            hdp_region_query_cached=per_point_region_query_cached):
        yield
