"""Tests for the owner-side comparison kernels.

Three kernels use what each party holds instead of the generic powmod:
the key owner's CRT encryption factor (``PaillierPrivateKey.nth_power``),
the DGK key holder's zero test (``ModexpEngine.zero_test_batch``), and
negation by modular inverse (signed scalars in
``PaillierCiphertext.__mul__``).  Each must agree exactly with the
generic computation it replaces, and none may put a value keyed by the
factorization into the process-wide powmod memo.
"""

import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.encoding import SignedEncoder
from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.integer_math import cached_pow
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    generate_paillier_keypair,
)
from repro.crypto.precompute import PrecomputeError, RandomnessPool
from repro.crypto.sealed import PublicOnlyKeyError, seal_paillier_keypair
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.bitwise_comparison import (
    _BLIND_BITS,
    _witness_bound,
    dgk_greater_than,
    dgk_greater_than_batch,
)
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
# p is 32 bits here, below the witness bound of any DGK width: the zero
# test must also check q.
SMALL = _keys(64)


def _parallel_engine():
    return ModexpEngine(workers=2, min_parallel_jobs=1)


def _witness(keys, c_t: int, multiplier: int, rng) -> int:
    """A ciphertext of the witness plaintext ``c_t * multiplier``."""
    public = keys.public_key
    return public.encrypt((c_t * multiplier) % public.n, rng).value


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
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([SMALL, KEYS]),
           st.integers(min_value=1, max_value=48),
           st.data())
    def test_agrees_with_decryption(self, keys, bits, data):
        """Witness-shaped plaintexts: -2 <= c_t <= 3(bits-1), multiplier
        up to 2^_BLIND_BITS, both keys, several per batch."""
        c_t_values = data.draw(st.lists(
            st.integers(min_value=-2, max_value=3 * (bits - 1)),
            min_size=1, max_size=6))
        multipliers = data.draw(st.lists(
            st.integers(min_value=1, max_value=(1 << _BLIND_BITS) - 1),
            min_size=len(c_t_values), max_size=len(c_t_values)))
        rng = random.Random(bits)
        values = [_witness(keys, c_t, multiplier, rng)
                  for c_t, multiplier in zip(c_t_values, multipliers)]
        expected = [keys.private_key.decrypt_raw(value) == 0
                    for value in values]
        assert expected == [c_t == 0 for c_t in c_t_values]
        assert default_engine().zero_test_batch(
            keys.private_key, values, _witness_bound(bits)) == expected

    @pytest.mark.parametrize("keys", [KEYS, SMALL], ids=["256", "64"])
    def test_parallel_matches_serial(self, keys):
        rng = random.Random(4)
        values = [_witness(keys, c_t, 1 << 39, rng)
                  for c_t in (-2, -1, 0, 1, 0, 57)]
        expected = [False, False, True, False, True, False]
        assert default_engine().zero_test_batch(
            keys.private_key, values, _witness_bound(20)) == expected
        with _parallel_engine() as engine:
            assert engine.zero_test_batch(
                keys.private_key, values, _witness_bound(20)) == expected
            assert engine.report()["parallel_batches"] == 1

    def test_small_key_needs_the_q_check(self):
        """On a 64-bit key p is below the bound, so plaintext p (the
        witness c_t = 1, multiplier = p) passes the p test alone."""
        private = SMALL.private_key
        bound = _witness_bound(20)
        assert private.p < bound and private.p < 1 << _BLIND_BITS
        value = _witness(SMALL, 1, private.p, random.Random(1))
        assert pow(value, private.p - 1, private.crt.p_squared) == 1
        assert private.decrypt_raw(value) != 0
        assert default_engine().zero_test_batch(
            private, [value], bound) == [False]

    def test_random_g_key(self):
        keys = _keys(256, random_g=True)
        rng = random.Random(2)
        values = [_witness(keys, c_t, 12345, rng) for c_t in (-2, 0, 1, 9)]
        assert default_engine().zero_test_batch(
            keys.private_key, values, _witness_bound(4)) \
            == [False, True, False, False]

    def test_work_does_not_depend_on_the_answers(self):
        class RecordingEngine(ModexpEngine):
            def __init__(self):
                super().__init__(workers=1)
                self.calls = []

            def _execute(self, jobs, *, memo=True):
                self.calls.append((len(jobs), memo))
                return super()._execute(jobs, memo=memo)

        rng = random.Random(3)
        zeros = [_witness(KEYS, 0, 7, rng) for _ in range(5)]
        nonzeros = [_witness(KEYS, 2, 7, rng) for _ in range(5)]
        engine = RecordingEngine()
        assert engine.zero_test_batch(PRIV, zeros, 1 << 47) == [True] * 5
        assert engine.zero_test_batch(PRIV, nonzeros, 1 << 47) == [False] * 5
        assert engine.calls == [(5, False), (5, False)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sealed_key_raises_before_any_job(self, workers):
        sealed = seal_paillier_keypair(PUB, "peer").private_key
        engine = ModexpEngine(workers=workers, min_parallel_jobs=1)
        with pytest.raises(PublicOnlyKeyError, match="zero_test_batch"):
            engine.zero_test_batch(sealed, [1, 2, 3], 1 << 47)
        assert engine.report()["jobs"] == 0
        engine.close()

    def test_out_of_range_ciphertext_rejected(self):
        with pytest.raises(PaillierError, match="Z_"):
            default_engine().zero_test_batch(PRIV, [PUB.n_squared], 1 << 47)
        with _parallel_engine() as engine:
            with pytest.raises(PaillierError, match="Z_"):
                engine.zero_test_batch(PRIV, [-1], 1 << 47)


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
    """Decryption, the zero test and owner factors never touch the
    process-wide powmod memo, serially or through a fallen-back engine."""

    def _closed_engine(self):
        engine = _parallel_engine()
        engine.close()  # parallel-eligible batches run in-process
        return engine

    def test_no_memo_entries(self):
        rng = random.Random(8)
        values = [_witness(KEYS, c_t, 99, rng) for c_t in (0, 1, -2)]
        standard = dataclasses.replace(PRIV, hp=None, hq=None)
        pool = RandomnessPool(PUB, random.Random(9), PRIV)
        before = cached_pow.cache_info()
        PRIV.decrypt_raw(values[0])
        standard.decrypt_raw(values[0])
        PRIV.decrypt_raw_standard(values[1])
        for engine in (default_engine(), self._closed_engine()):
            engine.decrypt_raw_batch(PRIV, values)
            engine.decrypt_raw_batch(standard, values)
            engine.zero_test_batch(PRIV, values, 1 << 47)
            engine.zero_test_batch(SMALL.private_key, [1, 2], 1 << 47)
        pool.refill(2)
        pool.encryption_factor()
        pool.encryption_factor()
        pool.encryption_factor()  # a miss
        PRIV.nth_power(12345)
        assert cached_pow.cache_info() == before


class TestDgkKernels:
    @pytest.mark.parametrize("x,y", [(0, 0), (13, 9), (9, 13), (31, 31),
                                     (16, 15), (15, 16)])
    def test_per_point_correct_on_a_64_bit_key(self, x, y):
        holder, other = make_party_pair(Channel(), x, y + 50)
        assert dgk_greater_than(holder, x, other, y, 5, SMALL) == (x > y)

    @pytest.mark.parametrize("keys", [KEYS, SMALL], ids=["256", "64"])
    def test_parallel_engine_matches_serial(self, keys):
        ys = [0, 5, 12, 13, 14, 31]

        def run(engine):
            channel = Channel()
            holder, other = make_party_pair(channel, 21, 22)
            single = dgk_greater_than(holder, 13, other, 4, 5, keys,
                                      engine=engine)
            batch = dgk_greater_than_batch(holder, 13, other, ys, 5, keys,
                                           engine=engine)
            wire = [(e.sender, e.label, e.value)
                    for e in channel.transcript.entries]
            return single, batch, wire

        serial = run(None)
        with _parallel_engine() as engine:
            parallel = run(engine)
        assert serial == parallel
        assert serial[:2] == (True, [y < 13 for y in ys])
