"""Tests for Yao's Millionaires' Problem Protocol (Algorithm 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_rsa_keypair
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.millionaires import (
    YmppError,
    _pairwise_separated,
    ympp_bit_parameter,
    ympp_less_than,
)

KEYS = cached_rsa_keypair(512, 801)


def _fresh_parties(seed: int = 0):
    return make_party_pair(Channel(), alice_seed=seed, bob_seed=seed + 1)


class TestCorrectness:
    @pytest.mark.parametrize("i,j", [
        (1, 2), (2, 1), (5, 5), (1, 1), (64, 64), (1, 64), (64, 1),
        (31, 32), (32, 31),
    ])
    def test_boundary_cases(self, i, j):
        alice, bob = _fresh_parties(i * 100 + j)
        assert drive(ympp_less_than(alice, i, bob, j, 64, KEYS)) == (i < j)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=1000))
    def test_random_pairs(self, i, j, seed):
        alice, bob = _fresh_parties(seed)
        assert drive(ympp_less_than(alice, i, bob, j, 50, KEYS)) == (i < j)

    def test_no_announce_same_result(self):
        alice, bob = _fresh_parties(7)
        assert drive(ympp_less_than(alice, 3, bob, 9, 16, KEYS,
                                    announce=False)) is True


class TestDomainValidation:
    def test_i_out_of_domain(self):
        alice, bob = _fresh_parties()
        with pytest.raises(YmppError, match="i=0"):
            drive(ympp_less_than(alice, 0, bob, 5, 10, KEYS))

    def test_j_out_of_domain(self):
        alice, bob = _fresh_parties()
        with pytest.raises(YmppError, match="j=11"):
            drive(ympp_less_than(alice, 5, bob, 11, 10, KEYS))

    def test_modulus_too_small(self):
        small_keys = cached_rsa_keypair(64, 802)
        alice, bob = _fresh_parties()
        with pytest.raises(YmppError, match="too small"):
            drive(ympp_less_than(alice, 1, bob, 2, 2 ** 40, small_keys))


class TestCommunicationShape:
    def test_message_sequence(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        drive(ympp_less_than(alice, 4, bob, 9, 16, KEYS, label="test"))
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["test/step2_shifted_cipher", "test/step5_prime",
                          "test/step5_sequence", "test/step7_conclusion"]

    def test_sequence_length_is_n0(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        n0 = 23
        drive(ympp_less_than(alice, 4, bob, 9, n0, KEYS, label="test"))
        sequence_entry = channel.transcript.with_label("test/step5_sequence")[0]
        assert len(sequence_entry.value) == n0

    def test_cost_linear_in_n0(self):
        def run_bytes(n0: int) -> int:
            channel = Channel()
            alice, bob = make_party_pair(channel, 1, 2)
            drive(ympp_less_than(alice, 1, bob, 2, n0, KEYS))
            return channel.stats.total_bytes

        small, large = run_bytes(16), run_bytes(64)
        # 4x the domain should cost roughly 4x the sequence bytes;
        # allow generous slack for the fixed-size messages.
        assert 2.0 < large / small < 6.0


class TestBitParameter:
    def test_monotone_in_domain(self):
        assert ympp_bit_parameter(1000) >= ympp_bit_parameter(10)

    def test_minimum(self):
        assert ympp_bit_parameter(2) == 32


class TestSeparation:
    def test_accepts_separated(self):
        assert _pairwise_separated([2, 5, 9], 101)

    def test_rejects_adjacent(self):
        assert not _pairwise_separated([2, 3, 9], 101)

    def test_rejects_wraparound_collision(self):
        # 100 and 0 differ by 1 mod 101.
        assert not _pairwise_separated([0, 50, 100], 101)

    def test_single_value(self):
        assert _pairwise_separated([7], 101)
