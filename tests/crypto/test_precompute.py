"""Tests for the offline precomputation layer (pools, fixed bases)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError, generate_paillier_keypair
from repro.crypto.precompute import (
    FixedBaseExp,
    PrecomputeError,
    RandomnessPool,
)

KEYS = cached_paillier_keypair(256, 910)
PUB = KEYS.public_key
PRIV = KEYS.private_key


def _pool(seed=0):
    return RandomnessPool(PUB, random.Random(seed))


class TestRandomnessPool:
    def test_pooled_encryption_decrypts_identically_to_fresh(self):
        """The binding property: a pooled ciphertext is an ordinary
        ciphertext -- same plaintext back out, under either decrypt path."""
        pool = _pool(1)
        pool.refill(8)
        rng = random.Random(2)
        for message in (0, 1, 17, PUB.n - 1, PUB.n // 2):
            fresh = PUB.encrypt(message, rng)
            pooled = PUB.encrypt(message, rng, pool)
            assert PRIV.decrypt(pooled) == PRIV.decrypt(fresh) == message
            assert PRIV.decrypt_raw_standard(pooled.value) == message

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64))
    def test_pooled_encryption_roundtrip_property(self, message):
        pool = _pool(3)
        assert PRIV.decrypt(PUB.encrypt(message, pool.rng, pool)) == message

    def test_empty_pool_falls_back_and_counts_misses(self):
        pool = _pool(4)
        pool.refill(2)
        for _ in range(5):
            PUB.encrypt(9, pool.rng, pool)
        assert pool.pregenerated == 2
        assert pool.consumed == 5
        assert pool.misses == 3
        assert len(pool) == 0
        assert pool.report() == {"pregenerated": 2, "consumed": 5,
                                 "misses": 3, "available": 0}

    def test_prefilled_pool_has_zero_misses(self):
        pool = _pool(5)
        pool.refill(10)
        for _ in range(10):
            pool.encryption_factor()
        assert pool.misses == 0

    def test_factors_are_consumed_once(self):
        pool = _pool(6)
        pool.refill(4)
        factors = [pool.encryption_factor() for _ in range(4)]
        assert len(set(factors)) == 4  # never handed out twice

    def test_rerandomize_with_pool_preserves_plaintext(self):
        pool = _pool(7)
        pool.refill(3)
        cipher = PUB.encrypt(123, pool.rng)
        refreshed = cipher.rerandomize(pool.rng, pool)
        assert refreshed.value != cipher.value
        assert PRIV.decrypt(refreshed) == 123

    def test_pool_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 911)
        pool = RandomnessPool(other.public_key, random.Random(0))
        with pytest.raises(PaillierError, match="different key"):
            PUB.encrypt(1, pool.rng, pool)
        with pytest.raises(PaillierError, match="different key"):
            PUB.encrypt(1, pool.rng).rerandomize(pool.rng, pool)

    def test_negative_refill_rejected(self):
        with pytest.raises(PrecomputeError):
            _pool(8).refill(-1)

    def test_rerandomization_unit_draws_same_queue(self):
        pool = _pool(9)
        pool.refill(2)
        pool.rerandomization_unit()
        pool.encryption_factor()
        assert pool.consumed == 2 and pool.misses == 0


class TestAttemptLog:
    """A restarted query's pools hand its aborted attempt's factors out
    again, in draw order, instead of computing them twice."""

    def test_rewind_hands_out_the_same_factors_and_computes_none_twice(
            self, monkeypatch):
        computed = []
        fresh_factor = type(PUB).fresh_factor

        def counting(public, rng):
            factor = fresh_factor(public, rng)
            computed.append(factor)
            return factor

        monkeypatch.setattr(type(PUB), "fresh_factor", counting)
        pool = _pool(14)
        pool.refill(2)
        pool.log_draws()
        aborted = [pool.encryption_factor() for _ in range(5)]
        assert (pool.consumed, pool.misses, len(computed)) == (5, 3, 5)
        pool.rewind()
        assert (pool.consumed, pool.misses, len(pool)) == (0, 3, 5)
        restarted = [pool.encryption_factor() for _ in range(5)]
        assert restarted == aborted == computed
        assert (pool.consumed, pool.misses, len(computed)) == (5, 3, 5)
        # A longer attempt computes only the factors past the log.
        pool.rewind()
        longer = [pool.encryption_factor() for _ in range(7)]
        assert longer[:5] == aborted and longer[5:] == computed[5:]
        assert (pool.consumed, pool.misses, len(computed)) == (7, 5, 7)

    def test_rewinding_keeps_the_pool_s_factor_stream(self):
        """Rewinding changes when a factor is handed out again, never
        which factors the pool's stream produces."""
        plain, logged = _pool(15), _pool(15)
        expected = [plain.encryption_factor() for _ in range(4)]
        logged.log_draws()
        logged.encryption_factor()
        logged.rewind()
        assert [logged.encryption_factor() for _ in range(4)] == expected

    def test_a_new_log_gives_back_only_the_current_attempt_s_factors(self):
        """Each query starts its own log: a rewind returns what the
        current attempt drew, never a finished query's factors."""
        pool = _pool(16)
        pool.log_draws()
        finished = [pool.encryption_factor() for _ in range(2)]
        pool.log_draws()
        aborted = pool.encryption_factor()
        pool.rewind()
        assert (pool.consumed, pool.misses, len(pool)) == (2, 3, 1)
        later = [pool.encryption_factor() for _ in range(3)]
        assert later[0] == aborted
        assert not set(later) & set(finished)

    def test_rerandomization_units_share_the_log(self):
        pool = _pool(17)
        pool.log_draws()
        drawn = [pool.rerandomization_unit(), pool.encryption_factor()]
        pool.rewind()
        assert [pool.encryption_factor(), pool.rerandomization_unit()] \
            == drawn
        assert (pool.consumed, pool.misses) == (2, 2)

    def test_a_rewind_with_nothing_drawn_changes_nothing(self):
        """An attempt that parks before its first encryption leaves
        every pool as it found it."""
        plain, logged = _pool(18), _pool(18)
        plain.refill(3)
        logged.refill(3)
        logged.log_draws()
        logged.rewind()
        assert logged.report() == plain.report() == {
            "pregenerated": 3, "consumed": 0, "misses": 0, "available": 3}
        assert [logged.encryption_factor() for _ in range(4)] \
            == [plain.encryption_factor() for _ in range(4)]

    def test_rewind_without_a_log_is_refused(self):
        pool = _pool(19)
        pool.encryption_factor()
        with pytest.raises(PrecomputeError, match="log_draws"):
            pool.rewind()
        assert (pool.consumed, pool.misses, len(pool)) == (1, 1, 0)

    def test_engine_fill_queues_behind_a_rewound_attempt(self):
        """An offline fill after a rewind appends to the queue: the
        rewound factors still come first, and the pool hands out the
        same stream as a pool that never rewound."""
        from repro.crypto.engine import ModexpEngine

        plain, logged = _pool(20), _pool(20)
        expected = [plain.encryption_factor() for _ in range(5)]
        logged.log_draws()
        drawn = [logged.encryption_factor() for _ in range(2)]
        logged.rewind()
        ModexpEngine(workers=1).fill_pool(logged, 3)
        assert (logged.pregenerated, logged.misses, len(logged)) == (3, 2, 5)
        handed_out = [logged.encryption_factor() for _ in range(5)]
        assert handed_out[:2] == drawn
        assert handed_out == expected
        assert (logged.consumed, logged.misses) == (5, 2)


class TestBatchEntryPoints:
    def test_encrypt_decrypt_batch_roundtrip(self):
        rng = random.Random(10)
        messages = [0, 5, 999, PUB.n - 1]
        ciphers = PUB.encrypt_batch(messages, rng)
        assert PRIV.decrypt_batch(ciphers) == messages
        assert PRIV.decrypt_raw_batch([c.value for c in ciphers]) == messages

    def test_encrypt_batch_consumes_pool(self):
        pool = _pool(11)
        pool.refill(6)
        PUB.encrypt_batch([1, 2, 3], pool.rng, pool)
        assert pool.consumed == 3 and len(pool) == 3

    @pytest.mark.parametrize("workers,min_parallel", [(1, 32), (2, 2)])
    def test_empty_pool_misses_counted_through_engine_batch(
            self, workers, min_parallel):
        """The batch API's miss accounting: an engine encrypt_batch over
        an empty pool must count one consumed + one miss per plaintext
        (and still decrypt correctly), on both the serial path and the
        sharded path that collects misses into one modexp batch."""
        from repro.crypto.engine import ModexpEngine
        pool = _pool(12)
        messages = [3, 1, 4, 1, 5, 9]
        with ModexpEngine(workers=workers,
                          min_parallel_jobs=min_parallel) as engine:
            ciphers = engine.encrypt_batch(PUB, messages, pool.rng, pool)
        assert [PRIV.decrypt(c) for c in ciphers] == messages
        assert pool.report() == {"pregenerated": 0, "consumed": 6,
                                 "misses": 6, "available": 0}

    def test_partially_filled_pool_misses_only_the_shortfall(self):
        from repro.crypto.engine import ModexpEngine
        pool = _pool(13)
        pool.refill(2)
        with ModexpEngine(workers=2, min_parallel_jobs=2) as engine:
            engine.encrypt_batch(PUB, [7, 7, 7, 7, 7], pool.rng, pool)
        assert pool.report() == {"pregenerated": 2, "consumed": 5,
                                 "misses": 3, "available": 0}


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
