"""Tests for the Paillier cryptosystem, including the Section 3.7
homomorphic property equations as hypothesis properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    generate_paillier_keypair,
)

KEYS = cached_paillier_keypair(256, 900)
PUB = KEYS.public_key
PRIV = KEYS.private_key
RNG = random.Random(31337)

plaintexts = st.integers(min_value=0, max_value=2**120)
signed_values = st.integers(min_value=-(2**100), max_value=2**100)


class TestKeyGeneration:
    def test_modulus_size(self):
        assert PUB.bits in (255, 256)
        assert PUB.n_squared == PUB.n * PUB.n

    def test_default_g(self):
        assert PUB.g == PUB.n + 1

    def test_random_g_mode(self):
        keys = generate_paillier_keypair(128, random.Random(5), random_g=True)
        assert keys.public_key.g != keys.public_key.n + 1
        cipher = keys.public_key.encrypt(12345, random.Random(6))
        assert keys.private_key.decrypt(cipher) == 12345

    def test_too_small_raises(self):
        with pytest.raises(PaillierError, match="too small"):
            generate_paillier_keypair(32, random.Random(0))

    def test_deterministic_cache(self):
        # By value against the import-time keypair: other modules' keys
        # may have pushed it out of the bounded cache since.
        assert cached_paillier_keypair(256, 900) == KEYS
        assert cached_paillier_keypair(256, 900) \
            is cached_paillier_keypair(256, 900)

    def test_private_factors(self):
        assert PRIV.p * PRIV.q == PUB.n


class TestEncryptDecrypt:
    @settings(max_examples=30, deadline=None)
    @given(plaintexts)
    def test_roundtrip(self, message):
        cipher = PUB.encrypt(message, RNG)
        assert PRIV.decrypt(cipher) == message

    def test_out_of_range_raises(self):
        with pytest.raises(PaillierError, match="outside"):
            PUB.raw_encrypt(PUB.n, 2)

    def test_negative_raises(self):
        with pytest.raises(PaillierError, match="outside"):
            PUB.raw_encrypt(-1, 2)

    def test_probabilistic(self):
        a = PUB.encrypt(42, RNG)
        b = PUB.encrypt(42, RNG)
        assert a.value != b.value
        assert PRIV.decrypt(a) == PRIV.decrypt(b) == 42

    def test_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 901)
        cipher = other.public_key.encrypt(5, RNG)
        with pytest.raises(PaillierError, match="different key"):
            PRIV.decrypt(cipher)


class TestHomomorphicProperties:
    """The two Section 3.7 equations."""

    @settings(max_examples=30, deadline=None)
    @given(plaintexts, plaintexts)
    def test_homomorphic_addition(self, m1, m2):
        # D(E(m1) * E(m2) mod n^2) = m1 + m2 mod n
        combined = PUB.encrypt(m1, RNG) + PUB.encrypt(m2, RNG)
        assert PRIV.decrypt(combined) == (m1 + m2) % PUB.n

    @settings(max_examples=30, deadline=None)
    @given(plaintexts, st.integers(min_value=0, max_value=2**40))
    def test_homomorphic_scalar_multiplication(self, m1, m2):
        # D(E(m1)^m2 mod n^2) = m1 * m2 mod n
        scaled = PUB.encrypt(m1, RNG) * m2
        assert PRIV.decrypt(scaled) == (m1 * m2) % PUB.n

    @settings(max_examples=20, deadline=None)
    @given(plaintexts, st.integers(min_value=0, max_value=2**40))
    def test_plaintext_constant_addition(self, m1, constant):
        shifted = PUB.encrypt(m1, RNG) + constant
        assert PRIV.decrypt(shifted) == (m1 + constant) % PUB.n

    @settings(max_examples=20, deadline=None)
    @given(plaintexts, plaintexts)
    def test_subtraction(self, m1, m2):
        difference = PUB.encrypt(m1, RNG) - PUB.encrypt(m2, RNG)
        assert PRIV.decrypt(difference) == (m1 - m2) % PUB.n

    def test_add_requires_same_key(self):
        other = cached_paillier_keypair(256, 901)
        with pytest.raises(PaillierError, match="different keys"):
            __ = PUB.encrypt(1, RNG) + other.public_key.encrypt(2, RNG)

    def test_multiply_rejects_non_integer(self):
        with pytest.raises(PaillierError, match="integer"):
            __ = PUB.encrypt(1, RNG) * 2.5


class TestRerandomize:
    def test_preserves_plaintext_changes_ciphertext(self):
        original = PUB.encrypt(777, RNG)
        refreshed = original.rerandomize(RNG)
        assert refreshed.value != original.value
        assert PRIV.decrypt(refreshed) == 777

    @settings(max_examples=15, deadline=None)
    @given(plaintexts)
    def test_rerandomize_property(self, message):
        cipher = PUB.encrypt(message, RNG).rerandomize(RNG)
        assert PRIV.decrypt(cipher) == message


class TestSignedEncryption:
    @settings(max_examples=30, deadline=None)
    @given(signed_values)
    def test_signed_roundtrip(self, value):
        cipher = PUB.encrypt_signed(value, RNG)
        assert PRIV.decrypt_signed(cipher) == value

    def test_signed_overflow_raises(self):
        with pytest.raises(PaillierError, match="exceeds"):
            PUB.encrypt_signed(PUB.n, RNG)

    def test_signed_arithmetic(self):
        total = PUB.encrypt_signed(-50, RNG) + PUB.encrypt_signed(20, RNG)
        assert PRIV.decrypt_signed(total) == -30


class TestCiphertextBehaviour:
    def test_equality_and_hash(self):
        cipher = PUB.encrypt(9, RNG)
        clone = PaillierCiphertext(PUB, cipher.value)
        assert cipher == clone
        assert hash(cipher) == hash(clone)

    def test_repr_hides_value(self):
        assert "value" not in repr(PUB.encrypt(9, RNG))
