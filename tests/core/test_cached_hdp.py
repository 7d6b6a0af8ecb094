"""Tests for the cached-ciphertext HDP variant (the E12 ablation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.labels import canonicalize
from repro.core.config import ProtocolConfig
from repro.core.distance import (
    PeerCipherCache,
    hdp_region_query_cached,
    hdp_within_eps_cached,
)
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import HorizontalPartition
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.net.serialization import FixedWidthList
from repro.smc.scalar_product import ScalarProductError
from repro.smc.session import SmcConfig, SmcSession

VALUE_BOUND = 8 * 200 * 200
coordinate = st.integers(min_value=-60, max_value=60)
point2d = st.tuples(coordinate, coordinate)


def _session(seed=0):
    channel = Channel()
    alice, bob = make_party_pair(channel, seed, seed + 1)
    return channel, SmcSession(alice, bob, SmcConfig(key_seed=220,
                                                     mask_sigma=8,
                                                     paillier_bits=128))


class TestCachedDistanceProtocol:
    @settings(max_examples=10, deadline=None)
    @given(point2d, point2d, st.integers(min_value=0, max_value=20000))
    def test_agrees_with_plain_predicate(self, qp, pp, eps_squared):
        __, session = _session(1)
        cache = PeerCipherCache()
        result = drive(hdp_within_eps_cached(
            session, session.alice, qp, session.bob, pp, 0, cache,
            eps_squared, VALUE_BOUND))
        truth = sum((a - b) ** 2 for a, b in zip(qp, pp)) <= eps_squared
        assert result == truth

    def test_cache_hit_skips_coordinate_upload(self):
        channel, session = _session(2)
        cache = PeerCipherCache()
        for __ in range(3):
            drive(hdp_within_eps_cached(session, session.alice, (1, 2),
                                        session.bob, (4, 6), 0, cache, 25,
                                        VALUE_BOUND, label="c"))
        uploads = [e for e in channel.transcript.entries
                   if e.label == "c/coords"]
        assert len(uploads) == 1
        assert len(cache) == 1

    def test_distinct_points_cached_separately(self):
        __, session = _session(3)
        cache = PeerCipherCache()
        assert drive(hdp_within_eps_cached(session, session.alice, (0, 0),
                                           session.bob, (3, 4), 0, cache, 25,
                                           VALUE_BOUND))
        assert not drive(hdp_within_eps_cached(session, session.alice, (0, 0),
                                               session.bob, (30, 40), 1, cache,
                                               25, VALUE_BOUND))
        assert len(cache) == 2

    def test_ledger_records_linkable_hits(self):
        __, session = _session(4)
        cache = PeerCipherCache()
        ledger = LeakageLedger()
        drive(hdp_within_eps_cached(session, session.alice, (0, 0),
                                    session.bob,
                                    (3, 4), 7, cache, 25, VALUE_BOUND,
                                    ledger=ledger))
        assert ledger.count(Disclosure.LINKED_NEIGHBOR_ID,
                            learner="alice") == 1
        # A miss (out of range) is not a linkable hit.
        drive(hdp_within_eps_cached(session, session.alice, (0, 0),
                                    session.bob,
                                    (30, 40), 8, cache, 25, VALUE_BOUND,
                                    ledger=ledger))
        assert ledger.count(Disclosure.LINKED_NEIGHBOR_ID) == 1


class TestCachedFullProtocol:
    def _partition(self):
        # Clustered data so every point is queried during expansion --
        # the regime where caching actually pays.
        alice = tuple((i * 5, 0) for i in range(4))
        bob = tuple((i * 5, 3) for i in range(4))
        return HorizontalPartition(alice_points=alice, bob_points=bob)

    def _config(self, cached: bool) -> ProtocolConfig:
        return ProtocolConfig(
            eps=1.0, min_pts=3, scale=10,
            smc=SmcConfig(key_seed=221, mask_sigma=8, paillier_bits=128),
            alice_seed=5, bob_seed=6, cache_peer_ciphertexts=cached)

    def test_same_labels_as_base(self):
        base = run_horizontal_dbscan(self._partition(), self._config(False))
        cached = run_horizontal_dbscan(self._partition(), self._config(True))
        assert canonicalize(cached.alice_labels) \
            == canonicalize(base.alice_labels)
        assert canonicalize(cached.bob_labels) \
            == canonicalize(base.bob_labels)

    def test_saves_bytes_on_repeat_queries(self):
        base = run_horizontal_dbscan(self._partition(), self._config(False))
        cached = run_horizontal_dbscan(self._partition(), self._config(True))
        assert cached.stats["total_bytes"] < base.stats["total_bytes"]

    def test_introduces_linkability(self):
        base = run_horizontal_dbscan(self._partition(), self._config(False))
        cached = run_horizontal_dbscan(self._partition(), self._config(True))
        assert base.ledger.count(Disclosure.LINKED_NEIGHBOR_ID) == 0
        assert cached.ledger.count(Disclosure.LINKED_NEIGHBOR_ID) > 0


class TestCachedReplyFactors:
    """The cached variants' reply randomness: the per-point protocol's
    masked terms carry a fresh mask encryption (one factor each, no
    separate rerandomization); the batched variant adds only plaintext
    offsets to its packed chunks, so it keeps one rerandomization per
    reply ciphertext."""

    # 27-bit slots (VALUE_BOUND, masks below VALUE_BOUND << 8) in the
    # 128-bit keys' 127 plaintext bits.
    SLOTS = 4

    @staticmethod
    def _querier_factors(key_work, session) -> int:
        """Factors the querier alice drew under the peer bob's key."""
        peer_n = session.paillier_keys("bob").public_key.n
        return sum(n == peer_n and rng is session.alice.rng
                   for n, rng in zip(key_work["factors"],
                                     key_work["factor_rngs"]))

    def test_per_point_reply_draws_one_factor_per_coordinate(self,
                                                             key_work):
        __, session = _session(3)
        drive(hdp_within_eps_cached(session, session.alice, (1, 2, 3),
                                    session.bob, (4, 6, 8), 0,
                                    PeerCipherCache(), 25, VALUE_BOUND))
        assert self._querier_factors(key_work, session) == 3

    def test_batched_reply_keeps_one_rerandomization_per_chunk(self,
                                                              key_work):
        peer_points = [(4, 6), (1, 1), (0, 9), (3, 3), (5, 0), (2, 7),
                       (6, 1), (0, 0), (8, 8)]
        for n_peer in (1, 4, 5, 9):
            for moduli in key_work.values():
                moduli.clear()
            __, session = _session(4)
            bits = drive(hdp_region_query_cached(
                session, session.alice, (1, 2), session.bob,
                peer_points[:n_peer], list(range(n_peer)),
                PeerCipherCache(), 25, VALUE_BOUND))
            assert bits == [sum((a - b) ** 2 for a, b in zip((1, 2), point))
                            <= 25 for point in peer_points[:n_peer]]
            chunks = -(-n_peer // self.SLOTS)
            assert self._querier_factors(key_work, session) == chunks
            # The peer opens each chunk once, in one batch.
            peer_n = session.paillier_keys("bob").public_key.n
            assert key_work["decrypt"] == [(peer_n, chunks)], n_peer


class TestCachedReplyChecks:
    """The batched cached query's packed replies: the peer refuses a
    reply list of the wrong length before decrypting it, and each party
    refuses a point that could overflow a slot before anything is
    sent."""

    POINTS = [(4, 6), (1, 1), (0, 9), (3, 3), (5, 0)]

    def _query(self, session, querier_point=(1, 2), points=None):
        points = self.POINTS if points is None else points
        return drive(hdp_region_query_cached(
            session, session.alice, querier_point, session.bob, points,
            list(range(len(points))), PeerCipherCache(), 25, VALUE_BOUND,
            label="c"))

    def test_peer_checks_the_masked_sums(self):
        __, session = _session(5)
        send = session.alice.send
        session.alice.send = lambda label, value: send(
            label, FixedWidthList(value[:-1], value.width)
            if label == "c/masked_sums" else value)
        with pytest.raises(ScalarProductError,
                           match="c/masked_sums: expected 2 reply "
                                 "ciphertexts for 5 values, received 1"):
            self._query(session)

    @pytest.mark.parametrize("querier_point,points,match", [
        ((600, 0), None, "querier point"),
        ((1, 2), [(0, 0), (0, 600)], r"peer point\[1\]"),
    ])
    def test_a_point_above_the_bound_is_refused(self, querier_point,
                                                points, match):
        channel, session = _session(6)
        keys = len(channel.transcript.entries)   # the key exchange
        with pytest.raises(ScalarProductError, match=match):
            self._query(session, querier_point, points)
        assert len(channel.transcript.entries) == keys
