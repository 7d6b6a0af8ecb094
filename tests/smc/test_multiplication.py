"""Tests for the Multiplication Protocol (Algorithm 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.multiplication import MultiplicationError, secure_multiplication

KEYS = cached_paillier_keypair(256, 820)


def _fresh_parties(seed: int = 0):
    channel = Channel()
    alice, bob = make_party_pair(channel, seed, seed + 1)
    return channel, alice, bob


class TestCorrectness:
    @pytest.mark.parametrize("x,y,mask", [
        (0, 0, 0), (1, 1, 0), (7, 9, 100), (-7, 9, 100), (7, -9, -100),
        (-7, -9, 0), (12345, 67890, -999999), (1, 0, 5), (0, 1, -5),
    ])
    def test_cases(self, x, y, mask):
        __, alice, bob = _fresh_parties(abs(x) + abs(y))
        assert secure_multiplication(alice, x, bob, y, mask, KEYS) \
            == x * y + mask

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=-(2**40), max_value=2**40),
           st.integers(min_value=-(2**40), max_value=2**40),
           st.integers(min_value=-(2**40), max_value=2**40))
    def test_random_property(self, x, y, mask):
        __, alice, bob = _fresh_parties(1)
        assert secure_multiplication(alice, x, bob, y, mask, KEYS) \
            == x * y + mask

    def test_faithful_shared_r_mode(self):
        __, alice, bob = _fresh_parties(5)
        result = secure_multiplication(alice, 11, bob, 13, 7, KEYS,
                                       faithful_shared_r=True)
        assert result == 11 * 13 + 7


class TestOverflowProtection:
    def test_overflow_raises(self):
        __, alice, bob = _fresh_parties()
        huge = 1 << 130
        with pytest.raises(MultiplicationError, match="capacity"):
            secure_multiplication(alice, huge, bob, huge, 0, KEYS)


class TestWireBehaviour:
    def test_message_sequence_default(self):
        channel, alice, bob = _fresh_parties()
        secure_multiplication(alice, 3, bob, 4, 5, KEYS, label="m")
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["m/encrypted_x", "m/masked_product"]

    def test_message_sequence_faithful(self):
        channel, alice, bob = _fresh_parties()
        secure_multiplication(alice, 3, bob, 4, 5, KEYS, label="m",
                              faithful_shared_r=True)
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["m/encrypted_x", "m/shared_r", "m/masked_product"]

    def test_masker_sees_only_ciphertext(self):
        """The value on the wire decrypts to x but is not x itself."""
        channel, alice, bob = _fresh_parties()
        secure_multiplication(alice, 42, bob, 2, 0, KEYS, label="m")
        wire_value = channel.transcript.with_label("m/encrypted_x")[0].value
        assert wire_value != 42
        assert KEYS.private_key.decrypt_raw(wire_value) == 42

    def test_faithful_r_exposes_g_to_the_x(self):
        """The documented defect of Algorithm 2's shared r: with r on the
        wire the masker can strip the factor it selects and brute-force a
        small domain."""
        channel, alice, bob = _fresh_parties()
        secure_multiplication(alice, 42, bob, 2, 0, KEYS, label="m",
                              faithful_shared_r=True)
        cipher = channel.transcript.with_label("m/encrypted_x")[0].value
        shared_r = channel.transcript.with_label("m/shared_r")[0].value
        public = KEYS.public_key
        from repro.crypto.integer_math import mod_inverse
        g_to_x = (cipher * mod_inverse(public.randomness_factor(shared_r),
                                       public.n_squared)) % public.n_squared
        # Brute force the small domain, as a semi-honest masker could.
        recovered = next(x for x in range(100)
                         if public.raw_encrypt_constant(x) == g_to_x)
        assert recovered == 42

    def test_fresh_r_resists_the_same_attack(self):
        channel, alice, bob = _fresh_parties()
        secure_multiplication(alice, 42, bob, 2, 0, KEYS, label="m")
        cipher = channel.transcript.with_label("m/encrypted_x")[0].value
        public = KEYS.public_key
        assert all(public.raw_encrypt_constant(x) != cipher
                   for x in range(100))

    def test_runs_are_probabilistic(self):
        channel, alice, bob = _fresh_parties(9)
        secure_multiplication(alice, 3, bob, 4, 5, KEYS, label="a")
        secure_multiplication(alice, 3, bob, 4, 5, KEYS, label="b")
        first = channel.transcript.with_label("a/encrypted_x")[0].value
        second = channel.transcript.with_label("b/encrypted_x")[0].value
        assert first != second
