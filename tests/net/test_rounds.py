"""Tests for communication-round accounting."""

from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.net.stats import CommunicationStats
from repro.smc.session import SmcConfig, SmcSession


class TestRoundCounting:
    def test_empty(self):
        assert CommunicationStats().rounds == 0

    def test_consecutive_same_sender_is_one_round(self):
        stats = CommunicationStats()
        stats.record("alice", "bob", "a", 1)
        stats.record("alice", "bob", "b", 1)
        stats.record("alice", "bob", "c", 1)
        assert stats.rounds == 1

    def test_alternation_counts(self):
        stats = CommunicationStats()
        stats.record("alice", "bob", "a", 1)
        stats.record("bob", "alice", "b", 1)
        stats.record("alice", "bob", "c", 1)
        assert stats.rounds == 3

    def test_merge_adds_rounds(self):
        left = CommunicationStats()
        left.record("alice", "bob", "a", 1)
        right = CommunicationStats()
        right.record("x", "y", "b", 1)
        right.record("y", "x", "c", 1)
        left.merge(right)
        assert left.rounds == 3

    def test_snapshot_includes_rounds(self):
        stats = CommunicationStats()
        stats.record("alice", "bob", "a", 1)
        assert stats.snapshot()["rounds"] == 1


class TestProtocolRoundCounts:
    def test_multiplication_is_two_rounds_plus_setup(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=230))
        setup_rounds = channel.stats.rounds  # key exchange
        session.multiplication(alice, 3, bob, 4, 5)
        # One batch each way: request then reply.
        assert channel.stats.rounds == setup_rounds + 2

    def test_batched_dot_terms_stay_two_rounds(self):
        """The whole point of batching: m coordinates cost the same
        number of rounds as one."""
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=230))
        setup_rounds = channel.stats.rounds
        session.masked_dot_terms(alice, [1] * 10, bob, [2] * 10, [0] * 10)
        assert channel.stats.rounds == setup_rounds + 2

    def test_bitwise_comparison_two_rounds(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        session = SmcSession(alice, bob, SmcConfig(key_seed=230))
        setup_rounds = channel.stats.rounds
        session.compare_leq(alice, 3, bob, 7, lo=0, hi=10, reveal_to="a")
        assert channel.stats.rounds == setup_rounds + 2

    def test_enhanced_two_party_session_keeps_its_exchange(self):
        """The Section 5 protocol over one channel: the session's own
        key exchange opens it, and a 2 x 4 point run over three blobs
        costs 122 messages in 19 rounds.  Each pass has 8 steps (the
        sharing, 6 selection steps and the final core tests), and the
        two passes run them together, alice's lane first: 2 rounds for
        the exchange, 3 for the first step (alice | bob | alice), 2 for
        each of the other 7 (bob | alice, alice's next requests riding
        her answers) -- 2 + 2 * 8 + 1 = 19."""
        from repro.core import enhanced
        from repro.core.config import ProtocolConfig
        from repro.data.partitioning import HorizontalPartition

        config = ProtocolConfig(eps=1.2, min_pts=4, scale=100,
                                smc=SmcConfig(paillier_bits=256,
                                              key_seed=3))
        channel = Channel()
        alice, bob = make_party_pair(channel, 11, 12)
        session = SmcSession(alice, bob, config.smc)
        assert channel.stats.messages_for_phase("keys/") == 2
        assert channel.stats.rounds == 2
        result = enhanced.run_enhanced_horizontal_dbscan(
            HorizontalPartition(
                ((0, 10), (20, 0), (600, 610), (10, 600)),
                ((5, 25), (-15, 5), (590, 600), (0, 585))),
            config, session=session)
        assert result.stats["total_messages"] == 122
        assert result.stats["rounds"] == 19
