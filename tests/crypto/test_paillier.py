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


class TestOnlineFactors:
    """The one randomness path: each encryption and rerandomization
    takes exactly one factor, ``fresh_factor(rng)``, from the RNG it is
    handed -- nothing is drawn ahead of time or from another stream."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64))
    def test_a_factor_is_an_encryption_of_zero(self, seed):
        factor = PUB.fresh_factor(random.Random(seed))
        assert PRIV.decrypt(PaillierCiphertext(PUB, factor)) == 0
        assert PRIV.decrypt_raw_standard(factor) == 0

    def test_a_factor_spends_one_exponent_of_randomness_bits(self):
        rng, twin = random.Random(2), random.Random(2)
        assert PUB.fresh_factor(rng) == PUB.randomness_factor(
            twin.getrandbits(PUB.randomness_bits))
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("message", [0, 1, 17, PUB.n - 1, PUB.n // 2],
                             ids=["0", "1", "17", "n-1", "half-n"])
    def test_encrypt_takes_one_factor_from_its_rng(self, message):
        rng, twin = random.Random(3), random.Random(3)
        cipher = PUB.encrypt(message, rng)
        assert cipher.value == PUB.raw_encrypt_with_factor(
            message, PUB.fresh_factor(twin))
        assert rng.getstate() == twin.getstate()
        assert PRIV.decrypt(cipher) == message
        assert PRIV.decrypt_raw_standard(cipher.value) == message

    def test_encrypt_signed_takes_one_factor_from_its_rng(self):
        half = (PUB.n - 1) // 2
        for value in (-half, -1, 0, half):
            rng, twin = random.Random(4), random.Random(4)
            cipher = PUB.encrypt_signed(value, rng)
            assert cipher.value == PUB.raw_encrypt_with_factor(
                value % PUB.n, PUB.fresh_factor(twin))
            assert rng.getstate() == twin.getstate()
            assert PRIV.decrypt_signed(cipher) == value

    def test_rerandomize_takes_one_factor_from_its_rng(self):
        cipher = PUB.encrypt(123, random.Random(5))
        rng, twin = random.Random(6), random.Random(6)
        refreshed = cipher.rerandomize(rng)
        assert refreshed.value == (cipher.value * PUB.fresh_factor(twin)
                                   % PUB.n_squared)
        assert rng.getstate() == twin.getstate()
        assert PRIV.decrypt(refreshed) == 123

    def test_every_path_draws_the_next_factor_of_one_stream(self):
        """Encryptions, rerandomizations, batches and signed encryptions
        interleave on one stream, each taking the next factor."""
        rng = random.Random(7)
        first = PUB.encrypt(7, rng)
        second = first.rerandomize(rng)
        batch = PUB.encrypt_batch([8, 9], rng)
        signed = PUB.encrypt_signed(-10, rng)
        twin = random.Random(7)
        factors = [PUB.fresh_factor(twin) for _ in range(5)]
        assert rng.getstate() == twin.getstate()
        assert len(set(factors)) == 5
        assert first.value == PUB.raw_encrypt_with_factor(7, factors[0])
        assert second.value == first.value * factors[1] % PUB.n_squared
        assert [cipher.value for cipher in batch] == [
            PUB.raw_encrypt_with_factor(8, factors[2]),
            PUB.raw_encrypt_with_factor(9, factors[3])]
        assert signed.value == PUB.raw_encrypt_with_factor(
            -10 % PUB.n, factors[4])

    def test_equal_coins_give_equal_ciphertexts(self):
        """What lets a daemon's run be re-checked bit for bit in
        process: the ciphertexts are a function of the coins."""
        runs = [PUB.encrypt_batch([0, 5, 5, 99], random.Random(8))
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][1] != runs[0][2]


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
