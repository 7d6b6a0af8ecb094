"""Equivalence tests for the batched HDP region query (the PR-1 tentpole).

The binding property: the batched pipeline must be *indistinguishable in
outcome* from the per-point reference (``tests/per_point.py``: one
Section 4.2 HDP per peer point) -- identical neighbor sets, identical
ledger disclosure sequences, across random workloads, seeds, and both
``blind_cross_sum`` modes.  Only wall-clock, message counts, and
encryption counts may differ.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.distance import (
    PeerCipherCache,
    hdp_region_query,
    hdp_region_query_cached,
    hdp_within_eps,
    hdp_within_eps_cached,
)
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import LeakageLedger
from repro.crypto.paillier import PaillierPublicKey
from repro.data.partitioning import HorizontalPartition
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession
from tests.per_point import (
    per_point_queries,
    per_point_region_query,
    per_point_region_query_cached,
)

VALUE_BOUND = 8 * 200 * 200
coordinate = st.integers(min_value=-60, max_value=60)
point2d = st.tuples(coordinate, coordinate)
points_list = st.lists(point2d, min_size=1, max_size=6)


def _session(seed=0, backend="bitwise"):
    channel = Channel()
    alice, bob = make_party_pair(channel, seed, seed + 1)
    # 128-bit keys: the equivalence properties under test do not depend
    # on key size, and tier-1 wall-clock does (benchmarks keep 256).
    session = SmcSession(alice, bob, SmcConfig(
        comparison=backend, key_seed=95, mask_sigma=8,
        paillier_bits=128))
    return channel, session


def _truth(querier_point, peer_points, eps_squared):
    return [sum((a - b) ** 2 for a, b in zip(querier_point, point))
            <= eps_squared for point in peer_points]


class TestRegionQueryAgainstPerPoint:
    """Function-level equivalence of one batched region query."""

    @settings(max_examples=10, deadline=None)
    @given(point2d, points_list, st.integers(min_value=0, max_value=20000),
           st.booleans(), st.integers(min_value=0, max_value=1000))
    def test_bits_and_ledger_match_per_point_loop(self, querier_point,
                                                  peer_points, eps_squared,
                                                  blind, seed):
        __, batched_session = _session(seed, backend="oracle")
        batched_ledger = LeakageLedger()
        bits = drive(hdp_region_query(
            batched_session, batched_session.alice, querier_point,
            batched_session.bob, peer_points, eps_squared, VALUE_BOUND,
            ledger=batched_ledger, blind_cross_sum=blind, label="q"))

        __, loop_session = _session(seed + 7, backend="oracle")
        loop_ledger = LeakageLedger()
        loop_bits = [drive(hdp_within_eps(
            loop_session, loop_session.alice, querier_point,
            loop_session.bob, point, eps_squared, VALUE_BOUND,
            ledger=loop_ledger, blind_cross_sum=blind, label="q"))
            for point in peer_points]

        # The batched bits come back in the peer's permuted order; the
        # neighbor *set* (multiset of bits, i.e. the count) must match
        # the per-point loop and the plaintext truth.
        truth = _truth(querier_point, peer_points, eps_squared)
        assert sorted(bits) == sorted(loop_bits) == sorted(truth)
        assert sum(bits) == sum(truth)
        # Identical disclosure sequences, event for event.
        assert batched_ledger.events == loop_ledger.events

    @settings(max_examples=10, deadline=None)
    @given(point2d, points_list, st.integers(min_value=0, max_value=20000),
           st.booleans(), st.integers(min_value=0, max_value=1000))
    def test_cached_bits_and_ledger_match_per_point_loop(
            self, querier_point, peer_points, eps_squared, blind, seed):
        ids = list(range(len(peer_points)))

        __, batched_session = _session(seed, backend="oracle")
        batched_ledger = LeakageLedger()
        bits = drive(hdp_region_query_cached(
            batched_session, batched_session.alice, querier_point,
            batched_session.bob, peer_points, ids, PeerCipherCache(),
            eps_squared, VALUE_BOUND, ledger=batched_ledger,
            blind_cross_sum=blind, label="q"))

        __, loop_session = _session(seed + 7, backend="oracle")
        loop_ledger = LeakageLedger()
        loop_cache = PeerCipherCache()
        loop_bits = [drive(hdp_within_eps_cached(
            loop_session, loop_session.alice, querier_point,
            loop_session.bob, point, point_id, loop_cache, eps_squared,
            VALUE_BOUND, ledger=loop_ledger, blind_cross_sum=blind,
            label="q")) for point_id, point in zip(ids, peer_points)]

        # Stable ids fix the order, so bits compare positionally here.
        assert bits == loop_bits == _truth(querier_point, peer_points,
                                           eps_squared)
        assert batched_ledger.events == loop_ledger.events

    def test_real_crypto_boundary_cases(self):
        """Bitwise backend on both sides of the eps boundary."""
        __, session = _session(3)
        peer_points = [(4, 6), (1, 2), (30, 40)]
        for eps_squared, expected_count in ((25, 2), (24, 1), (0, 1)):
            bits = drive(hdp_region_query(
                session, session.alice, (1, 2), session.bob, peer_points,
                eps_squared, VALUE_BOUND))
            assert sum(bits) == expected_count, eps_squared

    def test_real_crypto_blind_mode(self):
        __, session = _session(4)
        bits = drive(hdp_region_query(
            session, session.alice, (1, 2), session.bob,
            [(4, 6), (50, 50)], 25, VALUE_BOUND, blind_cross_sum=True))
        assert sum(bits) == 1

    def test_cached_real_crypto_reuses_uploads(self):
        channel, session = _session(5)
        cache = PeerCipherCache()
        peer_points = [(0, 3), (40, 0)]
        for _ in range(3):
            bits = drive(hdp_region_query_cached(
                session, session.alice, (0, 0), session.bob, peer_points,
                [0, 1], cache, 25, VALUE_BOUND, label="c"))
            assert bits == [True, False]
        uploads = [e for e in channel.transcript.entries
                   if e.label == "c/coords"]
        assert len(uploads) == 1 and len(cache) == 2

    def test_empty_peer_set(self):
        __, session = _session(6, backend="oracle")
        assert drive(hdp_region_query(session, session.alice, (0, 0),
                                      session.bob, [], 25, VALUE_BOUND)) == []

    def test_dimension_mismatch(self):
        from repro.core.distance import DistanceProtocolError
        __, session = _session(7, backend="oracle")
        with pytest.raises(DistanceProtocolError, match="dimension"):
            drive(hdp_region_query(session, session.alice, (0, 0), session.bob,
                                   [(1, 2, 3)], 25, VALUE_BOUND))


class TestBatchedComparisons:
    """PR-3 tentpole: the amortized DGK batch inside a region query must
    be indistinguishable in bits and disclosures from one comparison per
    point, under real crypto."""

    @settings(max_examples=6, deadline=None)
    @given(point2d, points_list, st.integers(min_value=0, max_value=20000),
           st.booleans(), st.integers(min_value=0, max_value=1000))
    def test_bits_and_ledger_match_per_point_comparisons(
            self, querier_point, peer_points, eps_squared, blind, seed):
        __, batched_session = _session(seed)
        batched_ledger = LeakageLedger()
        bits = drive(hdp_region_query(
            batched_session, batched_session.alice, querier_point,
            batched_session.bob, peer_points, eps_squared, VALUE_BOUND,
            ledger=batched_ledger, blind_cross_sum=blind, label="q"))

        __, loop_session = _session(seed)
        loop_ledger = LeakageLedger()
        loop_bits = drive(per_point_region_query(
            loop_session, loop_session.alice, querier_point,
            loop_session.bob, peer_points, eps_squared, VALUE_BOUND,
            ledger=loop_ledger, blind_cross_sum=blind, label="q"))

        # Same seeds -> same presentation permutation (the peer draws it
        # first), so the bits compare positionally, not just as a
        # multiset.
        assert bits == loop_bits
        assert sum(bits) == sum(_truth(querier_point, peer_points,
                                       eps_squared))
        assert batched_ledger.events == loop_ledger.events
        assert batched_session.comparison_backend.invocations \
            == loop_session.comparison_backend.invocations == len(peer_points)

    def test_cached_query_matches_per_point_comparisons(self):
        for blind in (False, True):
            results = []
            for query in (hdp_region_query_cached,
                          per_point_region_query_cached):
                __, session = _session(21)
                ledger = LeakageLedger()
                bits = drive(query(
                    session, session.alice, (1, 2), session.bob,
                    [(4, 6), (1, 2), (30, 40), (2, 3)], [0, 1, 2, 3],
                    PeerCipherCache(), 25, VALUE_BOUND, ledger=ledger,
                    blind_cross_sum=blind, label="q"))
                results.append((bits, ledger.events,
                                session.comparison_backend.invocations))
            assert results[0] == results[1], blind

    def test_constant_threshold_shares_one_bit_encryption(self):
        """blind_cross_sum=False keeps the threshold constant across the
        query, so the whole query produces exactly one x_bits message;
        the per-point reference produces one per peer point."""
        def count_x_bits(query):
            channel, session = _session(22)
            drive(query(session, session.alice, (0, 0), session.bob,
                        [(0, 3), (4, 0), (50, 50), (1, 1)], 25, VALUE_BOUND,
                        label="q"))
            return sum(1 for e in channel.transcript.entries
                       if e.label.endswith("/x_bits"))
        assert count_x_bits(hdp_region_query) == 1
        assert count_x_bits(per_point_region_query) == 4


class TestQuerierEncryptionCount:
    """Acceptance criterion: querier-side encryptions per region query are
    O(d) -- independent of the peer point count."""

    def _count_encryptions(self, n_peer: int, dimensions: int) -> dict:
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        session = SmcSession(alice, bob, SmcConfig(
            comparison="oracle", key_seed=96, mask_sigma=8))
        counts = {id(alice.rng): 0, id(bob.rng): 0}
        original = PaillierPublicKey.encrypt

        def counting_encrypt(self, plaintext, rng):
            counts[id(rng)] += 1
            return original(self, plaintext, rng)

        peer_points = [tuple(5 * i + t for t in range(dimensions))
                       for i in range(n_peer)]
        try:
            PaillierPublicKey.encrypt = counting_encrypt
            drive(hdp_region_query(session, alice, tuple(range(dimensions)),
                                   bob, peer_points, 100, VALUE_BOUND))
        finally:
            PaillierPublicKey.encrypt = original
        return {"querier": counts[id(alice.rng)],
                "peer": counts[id(bob.rng)]}

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_querier_encryptions_independent_of_peer_count(self, dimensions):
        for n_peer in (1, 4, 9):
            counts = self._count_encryptions(n_peer, dimensions)
            # Exactly one encryption per querier coordinate, regardless
            # of how many peer points the query covers.
            assert counts["querier"] == dimensions, (n_peer, counts)
            # The peer pays one blind encryption per point (plus its
            # rerandomizations, which are not encryptions).
            assert counts["peer"] == n_peer


class TestFullRunEquivalence:
    """Driver-level: batched pipeline vs the per-point reference."""

    def _config(self, cached=False, blind=False):
        return ProtocolConfig(
            eps=1.0, min_pts=3, scale=10,
            smc=SmcConfig(key_seed=97, mask_sigma=8, paillier_bits=128),
            alice_seed=11, bob_seed=12,
            cache_peer_ciphertexts=cached,
            blind_cross_sum=blind)

    def _random_partition(self, seed):
        rng = random.Random(seed)
        return HorizontalPartition(
            alice_points=tuple(
                (rng.randrange(0, 30), rng.randrange(0, 30))
                for _ in range(rng.randrange(1, 7))),
            bob_points=tuple(
                (rng.randrange(0, 30), rng.randrange(0, 30))
                for _ in range(rng.randrange(1, 7))))

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("blind", [False, True])
    def test_labels_and_ledger_bit_identical(self, cached, blind):
        for seed in (0, 1, 2):
            partition = self._random_partition(seed)
            config = self._config(cached=cached, blind=blind)
            batched = run_horizontal_dbscan(partition, config)
            with per_point_queries():
                legacy = run_horizontal_dbscan(partition, config)
            assert batched.alice_labels == legacy.alice_labels, seed
            assert batched.bob_labels == legacy.bob_labels, seed
            # The whole disclosure sequence -- same events, same order,
            # same labels, same details.
            assert batched.ledger.events == legacy.ledger.events, seed

    def test_grid_index_does_not_change_output(self):
        """The drivers' grid index yields the brute-force scan's labels
        (union-density DBSCAN is the plaintext model of each pass)."""
        partition = self._random_partition(3)
        config = self._config()
        result = run_horizontal_dbscan(partition, config)
        for own, other, labels in (
                (partition.alice_points, partition.bob_points,
                 result.alice_labels),
                (partition.bob_points, partition.alice_points,
                 result.bob_labels)):
            reference = union_density_dbscan(
                list(own), list(other), config.eps_squared, config.min_pts)
            assert reference.labels.as_tuple() == labels


class TestSessionCoins:
    def test_equal_coins_give_an_equal_wire(self):
        """Every factor is drawn online from the acting party's coins,
        so two sessions built from the same seeds answer a region query
        in the same presentation order over a bit-identical wire."""
        runs = []
        for _ in range(2):
            channel, session = _session(9)
            bits = drive(hdp_region_query(
                session, session.alice, (0, 0), session.bob,
                [(0, 3), (4, 0), (50, 50)], 25, VALUE_BOUND))
            runs.append((bits, [(entry.sender, entry.label, entry.value)
                                for entry in channel.transcript.entries]))
        assert runs[0] == runs[1]
        assert sorted(runs[0][0]) == [False, True, True]
