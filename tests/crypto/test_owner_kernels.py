"""Tests for the owner-side Paillier kernels.

Two kernels use what each party holds instead of the generic powmod:
the key owner's CRT encryption factor (``PaillierPrivateKey.nth_power``)
and negation by modular inverse (signed scalars in
``PaillierCiphertext.__mul__``).  Each must agree exactly with the
generic computation it replaces, and neither may put a value keyed by
the factorization into the process-wide powmod memo.  The DGK key
holder's zero test is tested in ``tests/crypto/test_dgk.py``; here only
its refusal on a sealed key inside a session.
"""

import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.encoding import SignedEncoder
from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.integer_math import cached_pow
from repro.crypto.keycache import cached_dgk_keypair
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    generate_paillier_keypair,
)
from repro.crypto.precompute import PrecomputeError, RandomnessPool
from repro.crypto.sealed import (
    PublicOnlyKeyError,
    seal_dgk_keypair,
    seal_paillier_keypair,
)
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import CryptoContext, SmcConfig, SmcSession

KEY_BITS = (64, 128, 256, 512, 1024, 2048)


@lru_cache(maxsize=None)
def _keys(bits: int, random_g: bool = False):
    """This module's own keys: the shared ``cached_paillier_keypair``
    LRU is bounded, and other modules check its entries by identity."""
    return generate_paillier_keypair(
        bits, random.Random(f"owner-kernels-{bits}"), random_g=random_g)


KEYS = _keys(256)
PUB = KEYS.public_key
PRIV = KEYS.private_key


def _parallel_engine():
    return ModexpEngine(workers=2, min_parallel_jobs=1)


class TestNthPower:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(KEY_BITS), st.booleans(),
           st.integers(min_value=0, max_value=2**2048))
    def test_equals_generic_powmod(self, bits, random_g, raw):
        if random_g and bits > 1024:
            bits = 1024  # spares a second 2048-bit keygen (~2 s)
        keys = _keys(bits, random_g)
        public = keys.public_key
        r = raw % public.n
        assert keys.private_key.nth_power(r) \
            == pow(r, public.n, public.n_squared)

    @pytest.mark.parametrize("bits", KEY_BITS)
    def test_units_from_the_key(self, bits):
        keys = _keys(bits)
        public = keys.public_key
        rng = random.Random(bits)
        for _ in range(3):
            r = public.random_unit(rng)
            assert keys.private_key.nth_power(r) \
                == pow(r, public.n, public.n_squared)

    def test_non_units_too(self):
        p, q = PRIV.p, PRIV.q
        for r in (0, p, 3 * p, q, 5 * q):
            assert PRIV.nth_power(r) == pow(r, PUB.n, PUB.n_squared)

    def test_random_g_key(self):
        keys = _keys(256, random_g=True)
        public = keys.public_key
        assert public.g != public.n + 1
        r = public.random_unit(random.Random(4))
        assert keys.private_key.nth_power(r) \
            == pow(r, public.n, public.n_squared)

    def test_sealed_key_refuses(self):
        sealed = seal_paillier_keypair(PUB, "peer").private_key
        with pytest.raises(PublicOnlyKeyError, match="nth_power"):
            sealed.nth_power(3)


class TestZeroTest:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sealed_key_raises_before_any_job(self, workers):
        """A comparison key holder with only a sealed DGK key fails at
        its zero test, and the session's engine runs no job first."""
        alice, bob = make_party_pair(Channel(), 1, 2)
        dgk = cached_dgk_keypair(256, 31)
        contexts = {
            alice.name: CryptoContext(
                paillier=KEYS,
                dgk=seal_dgk_keypair(dgk.public_key, alice.name)),
            bob.name: CryptoContext(paillier=_keys(128), dgk=dgk)}
        engine = ModexpEngine(workers=workers, min_parallel_jobs=1)
        session = SmcSession(alice, bob,
                             SmcConfig(comparison="bitwise", engine=engine),
                             preset_contexts=contexts)
        with pytest.raises(PublicOnlyKeyError, match="zero_test_batch"):
            session.compare_leq(alice, 3, bob, 5, lo=0, hi=7,
                                reveal_to="a")
        assert engine.report()["jobs"] == 0
        engine.close()


class TestSignedScalars:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64),
           st.integers(min_value=-(2**64), max_value=2**64))
    def test_decrypts_like_the_reduced_scalar(self, message, scalar):
        cipher = PUB.encrypt(message, random.Random(message))
        expected = (message * scalar) % PUB.n
        assert PRIV.decrypt(cipher * scalar) == expected
        assert PRIV.decrypt(cipher * (scalar % PUB.n)) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=-(2**64), max_value=2**64),
           st.integers(min_value=-(2**64), max_value=-1))
    def test_encoded_negative_scalars(self, value, scalar):
        encoder = SignedEncoder(PUB.n)
        cipher = PUB.encrypt(encoder.encode(value), random.Random(7))
        product = cipher * encoder.encode(scalar)
        assert encoder.decode(PRIV.decrypt(product)) == value * scalar

    def test_subtraction(self):
        rng = random.Random(5)
        left, right = PUB.encrypt(10, rng), PUB.encrypt(25, rng)
        assert PRIV.decrypt(left - right) == PUB.n - 15
        assert PRIV.decrypt(PUB.encrypt(1, rng) - PUB.encrypt(1, rng)) == 0

    def test_negation_changes_the_value_not_the_plaintext(self):
        """``E(m)^(k-n)`` and ``E(m)^k`` differ by ``E(m)^n``, an
        encryption of zero."""
        cipher = PUB.encrypt(42, random.Random(6))
        negated = cipher * -1
        full_width = pow(cipher.value, PUB.n - 1, PUB.n_squared)
        assert negated.value != full_width
        assert PRIV.decrypt(negated) \
            == PRIV.decrypt_raw(full_width) == PUB.n - 42
        assert (negated.value * pow(cipher.value, PUB.n, PUB.n_squared)) \
            % PUB.n_squared == full_width

    @pytest.mark.parametrize("value", [0, PRIV.p, 3 * PRIV.q])
    def test_non_unit_ciphertext_raises(self, value):
        cipher = PaillierCiphertext(PUB, value)
        with pytest.raises(PaillierError, match="unit"):
            cipher * -1
        with pytest.raises(PaillierError, match="unit"):
            PUB.encrypt(1, random.Random(0)) - cipher


class TestOwnerPools:
    def _pair(self, seed):
        return (RandomnessPool(PUB, random.Random(seed), PRIV),
                RandomnessPool(PUB, random.Random(seed)))

    def test_refill_and_misses_match_a_public_pool(self):
        owner, public = self._pair(1)
        owner.refill(4)
        public.refill(4)
        assert list(owner._factors) == list(public._factors)
        for _ in range(6):  # 4 pooled, then 2 on-demand misses
            assert owner.encryption_factor() == public.encryption_factor()
        assert owner.report() == public.report()

    @pytest.mark.parametrize("engine_factory", [
        lambda: ModexpEngine(workers=1), _parallel_engine])
    def test_engine_paths_match_a_public_pool(self, engine_factory):
        owner, public = self._pair(2)
        with engine_factory() as engine:
            engine.fill_pool(owner, 3)
            engine.fill_pool(public, 3)
            assert list(owner._factors) == list(public._factors)
            rng_a, rng_b = random.Random(3), random.Random(3)
            owned = engine.encrypt_batch(PUB, list(range(5)), rng_a, owner)
            plain = engine.encrypt_batch(PUB, list(range(5)), rng_b, public)
            assert owned == plain
            assert engine.encryption_factors(PUB, 4, rng_a, owner) \
                == engine.encryption_factors(PUB, 4, rng_b, public)
        assert owner.report() == public.report()

    def test_mismatched_private_key_rejected(self):
        other = _keys(128).private_key
        with pytest.raises(PrecomputeError, match="does not match"):
            RandomnessPool(PUB, random.Random(0), other)

    def test_session_gives_each_party_its_own_key_only(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        contexts = {alice.name: CryptoContext(paillier=KEYS),
                    bob.name: CryptoContext(paillier=_keys(128))}
        session = SmcSession(alice, bob, SmcConfig(),
                             preset_contexts=contexts)
        for actor in (alice.name, bob.name):
            for owner in (alice.name, bob.name):
                pool = session.pool(actor, owner)
                expected = (session.paillier_keys(owner).private_key
                            if actor == owner else None)
                assert pool.private_key is expected


class TestMemoStaysPublic:
    """Decryption and owner factors never touch the process-wide powmod
    memo, serially or through a fallen-back engine."""

    def _closed_engine(self):
        engine = _parallel_engine()
        engine.close()  # parallel-eligible batches run in-process
        return engine

    def test_no_memo_entries(self):
        rng = random.Random(8)
        values = [PUB.encrypt(m % PUB.n, rng).value for m in (0, 99, -198)]
        standard = dataclasses.replace(PRIV, hp=None, hq=None)
        pool = RandomnessPool(PUB, random.Random(9), PRIV)
        before = cached_pow.cache_info()
        PRIV.decrypt_raw(values[0])
        standard.decrypt_raw(values[0])
        PRIV.decrypt_raw_standard(values[1])
        for engine in (default_engine(), self._closed_engine()):
            engine.decrypt_raw_batch(PRIV, values)
            engine.decrypt_raw_batch(standard, values)
        pool.refill(2)
        pool.encryption_factor()
        pool.encryption_factor()
        pool.encryption_factor()  # a miss
        PRIV.nth_power(12345)
        assert cached_pow.cache_info() == before
