"""Tests for the fixed-base tables and the Paillier batch entry points."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import generate_paillier_keypair
from repro.crypto.precompute import FixedBaseExp, PrecomputeError

KEYS = cached_paillier_keypair(256, 910)
PUB = KEYS.public_key
PRIV = KEYS.private_key


class TestBatchEntryPoints:
    def test_encrypt_decrypt_batch_roundtrip(self):
        rng = random.Random(10)
        messages = [0, 5, 999, PUB.n - 1]
        ciphers = PUB.encrypt_batch(messages, rng)
        assert PRIV.decrypt_batch(ciphers) == messages
        assert PRIV.decrypt_raw_batch([c.value for c in ciphers]) == messages


class TestFixedBaseExp:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_matches_builtin_pow(self, exponent):
        table = FixedBaseExp(base=1234567891011, modulus=(1 << 127) - 1,
                             max_bits=64)
        assert table.pow(exponent) == pow(1234567891011, exponent,
                                          (1 << 127) - 1)

    def test_boundaries(self):
        table = FixedBaseExp(base=7, modulus=1000003, max_bits=16, window=3)
        for exponent in (0, 1, 2, (1 << 16) - 1):
            assert table.pow(exponent) == pow(7, exponent, 1000003)
        with pytest.raises(PrecomputeError):
            table.pow(1 << 16)
        with pytest.raises(PrecomputeError):
            table.pow(-1)

    @pytest.mark.parametrize("window", [3, 6, 8])
    @pytest.mark.parametrize("max_bits", [1, 13, 61, 64, 160])
    def test_every_window_and_width(self, window, max_bits):
        """The window-8 path reads its digits from the exponent's bytes;
        every path agrees with ``pow`` at both ends of the range and
        refuses the first exponent past it."""
        modulus = (1 << 127) - 1
        table = FixedBaseExp(base=98765, modulus=modulus, max_bits=max_bits,
                             window=window)
        rng = random.Random(max_bits * window)
        for exponent in (0, 1, (1 << max_bits) - 1,
                         rng.getrandbits(max_bits), rng.getrandbits(max_bits)):
            assert table.pow(exponent) == pow(98765, exponent, modulus)
        with pytest.raises(PrecomputeError):
            table.pow(1 << max_bits)

    def test_invalid_parameters(self):
        with pytest.raises(PrecomputeError):
            FixedBaseExp(2, 1, 8)
        with pytest.raises(PrecomputeError):
            FixedBaseExp(2, 11, 0)
        with pytest.raises(PrecomputeError):
            FixedBaseExp(2, 11, 8, window=0)

    def test_random_g_keypair_uses_table_path(self):
        """End-to-end through Paillier: a random-g key encrypts via the
        fixed-base table and still round-trips."""
        keys = generate_paillier_keypair(128, random.Random(42),
                                        random_g=True)
        assert keys.public_key.g != keys.public_key.n + 1
        rng = random.Random(43)
        for message in (0, 1, 12345, keys.public_key.n - 1):
            cipher = keys.public_key.encrypt(message, rng)
            assert keys.private_key.decrypt(cipher) == message
