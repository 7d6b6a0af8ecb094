"""Tests for the kernels that use what each party holds.

Negation by modular inverse (signed scalars in
``PaillierCiphertext.__mul__``) must agree exactly with the generic
computation it replaces, and neither decryption nor any randomness
factor may put a value into the process-wide powmod memo.  The DGK key
holder's zero test is tested in ``tests/crypto/test_dgk.py``; here only
its refusal on a sealed key inside a session.  Randomness factors have
one kernel for every holder of a key: the owner's pools match a peer's
here, and the kernel itself is tested in
``tests/crypto/test_djn_factors.py``.
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
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.precompute import RandomnessPool
from repro.crypto.sealed import PublicOnlyKeyError, seal_dgk_keypair
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import CryptoContext, SmcConfig, SmcSession


@lru_cache(maxsize=None)
def _keys(bits: int):
    """This module's own keys: the shared ``cached_paillier_keypair``
    LRU is bounded, and other modules check its entries by identity."""
    return generate_paillier_keypair(
        bits, random.Random(f"owner-kernels-{bits}"))


KEYS = _keys(256)
PUB = KEYS.public_key
PRIV = KEYS.private_key


def _parallel_engine():
    return ModexpEngine(workers=2, min_parallel_jobs=1)


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
    """The key owner's pool and a pool on the same key rebuilt from its
    announced ``(n, g)`` -- what a peer holds -- draw identical factors
    from the same coins: the owner has no kernel of its own."""

    def _pair(self, seed):
        peer_view = PaillierPublicKey(n=PUB.n, g=PUB.g)
        return (RandomnessPool(KEYS.public_key, random.Random(seed)),
                RandomnessPool(peer_view, random.Random(seed)))

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
            owned = engine.encrypt_batch(
                owner.public_key, list(range(5)), rng_a, owner)
            plain = engine.encrypt_batch(
                public.public_key, list(range(5)), rng_b, public)
            assert owned == plain
            assert engine.encryption_factors(
                owner.public_key, 4, rng_a, owner) \
                == engine.encryption_factors(
                    public.public_key, 4, rng_b, public)
        assert owner.report() == public.report()


class TestMemoStaysPublic:
    """Decryption and randomness factors never touch the process-wide
    powmod memo, serially or through a fallen-back engine."""

    def _closed_engine(self):
        engine = _parallel_engine()
        engine.close()  # parallel-eligible batches run in-process
        return engine

    def test_no_memo_entries(self):
        rng = random.Random(8)
        standard = dataclasses.replace(PRIV, hp=None, hq=None)
        pool = RandomnessPool(PUB, random.Random(9))
        before = cached_pow.cache_info()
        values = [PUB.encrypt(m % PUB.n, rng).value for m in (0, 99, -198)]
        PRIV.decrypt_raw(values[0])
        standard.decrypt_raw(values[0])
        PRIV.decrypt_raw_standard(values[1])
        for engine in (default_engine(), self._closed_engine()):
            engine.decrypt_raw_batch(PRIV, values)
            engine.decrypt_raw_batch(standard, values)
            engine.fill_pool(pool, 2)
            engine.encrypt_batch(PUB, [1, 2, 3], rng, pool)
            engine.encryption_factors(PUB, 2, rng)
        pool.refill(2)
        pool.encryption_factor()
        pool.encryption_factor()
        pool.encryption_factor()  # a miss
        PUB.raw_encrypt(5, 12345)
        PaillierCiphertext(PUB, values[2]).rerandomize(rng)
        assert cached_pow.cache_info() == before
