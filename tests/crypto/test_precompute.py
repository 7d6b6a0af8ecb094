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


class TestRandomnessService:
    """The daemon-wide broker: demand learning, leases, idle refill."""

    DIGEST_A = "a" * 64
    DIGEST_B = "b" * 64

    def _service(self, **kwargs):
        from repro.crypto.precompute import RandomnessService
        return RandomnessService(**kwargs)

    def test_released_demand_prefills_the_next_lease(self):
        service = self._service()
        first = service.lease("s1")
        pool = _pool(20)
        assert first.register_pool(pool, self.DIGEST_A, True) == 0
        for _ in range(5):
            pool.encryption_factor()   # all misses: cold first session
        report = service.release("s1")
        assert report["misses"] == 5 and report["hits"] == 0

        second = service.lease("s2")
        warm = _pool(21)
        assert second.register_pool(warm, self.DIGEST_A, True) == 5
        assert len(warm) == 5
        for _ in range(5):
            warm.encryption_factor()
        report = service.release("s2")
        assert report["misses"] == 0 and report["hits"] == 5
        assert report["prefilled"] == 5
        assert service.report()["sessions_served"] == 2

    def test_demand_scoped_by_digest_and_role(self):
        service = self._service()
        grant = service.lease("s1")
        owner_pool, peer_pool = _pool(22), _pool(23)
        grant.register_pool(owner_pool, self.DIGEST_A, True)
        grant.register_pool(peer_pool, self.DIGEST_A, False)
        for _ in range(3):
            owner_pool.encryption_factor()
        peer_pool.encryption_factor()
        service.release("s1")
        assert service.demand_for((self.DIGEST_A[:16], True)) == 3
        assert service.demand_for((self.DIGEST_A[:16], False)) == 1
        # A different keypair shares nothing.
        assert service.demand_for((self.DIGEST_B[:16], True)) == 0
        fresh = service.lease("s2")
        other_key = _pool(24)
        assert fresh.register_pool(other_key, self.DIGEST_B, True) == 0
        assert len(other_key) == 0

    def test_factor_values_never_cross_sessions(self):
        """Only demand *counts* transfer: two sessions' pools draw from
        their own RNG streams, so their factor values are disjoint."""
        service = self._service()
        grant = service.lease("s1")
        pool = _pool(25)
        grant.register_pool(pool, self.DIGEST_A, True)
        for _ in range(4):
            pool.encryption_factor()
        service.release("s1")

        one = service.lease("s2")
        two = service.lease("s3")
        pool_one, pool_two = _pool(26), _pool(27)
        one.register_pool(pool_one, self.DIGEST_A, True)
        two.register_pool(pool_two, self.DIGEST_A, True)
        drawn_one = {pool_one.encryption_factor() for _ in range(4)}
        drawn_two = {pool_two.encryption_factor() for _ in range(4)}
        assert not drawn_one & drawn_two
        # And a same-seeded pool reproduces its stream exactly: warmth
        # changes timing, never values.
        replay = _pool(26)
        replay.refill(4)
        assert {replay.encryption_factor() for _ in range(4)} == drawn_one

    def test_miss_accounting_stays_per_session(self):
        service = self._service()
        grant = service.lease("s1")
        pool = _pool(28)
        grant.register_pool(pool, self.DIGEST_A, True)
        for _ in range(2):
            pool.encryption_factor()
        service.release("s1")

        warm_grant = service.lease("warm")
        cold_grant = service.lease("cold")
        warm = _pool(29)
        warm_grant.register_pool(warm, self.DIGEST_A, True)
        cold = _pool(30)
        cold_grant.register_pool(cold, self.DIGEST_B, True)  # no demand
        for _ in range(2):
            warm.encryption_factor()
            cold.encryption_factor()
        warm_report = service.release("warm")
        cold_report = service.release("cold")
        assert warm_report["hits"] == 2 and warm_report["misses"] == 0
        assert cold_report["hits"] == 0 and cold_report["misses"] == 2

    def test_refill_step_skips_busy_leases(self):
        """Idle refill tops a pool up to the session's *remaining* need
        (learned demand minus factors consumed), one chunk per step,
        and never while a query is in flight."""
        service = self._service(refill_chunk=3)
        seed_demand = service.lease("s1")
        pool = _pool(31)
        seed_demand.register_pool(pool, self.DIGEST_A, True)
        for _ in range(8):
            pool.encryption_factor()
        service.release("s1")

        grant = service.lease("s2")
        prefilled = _pool(32)
        # Register with demand already learned: prefilled to 8.  Drawing
        # from the prefill leaves the remaining need covered.
        assert grant.register_pool(prefilled, self.DIGEST_A, True) == 8
        for _ in range(5):
            prefilled.encryption_factor()
        assert service.refill_step() == 0
        # A pool that missed its first 2 factors still needs 6.
        cold = _pool(33)
        grant.pools.append(((self.DIGEST_A[:16], True), cold))
        for _ in range(2):
            cold.encryption_factor()
        grant.busy += 1            # a restartable query is in flight
        assert service.refill_step() == 0
        grant.busy -= 1
        assert service.refill_step() == 3    # one chunk
        assert service.refill_step() == 3    # the remaining need
        assert service.refill_step() == 0    # at target
        assert len(prefilled) == 3 and len(cold) == 6
        assert grant.background_refilled == 6
        report = service.release("s2")
        assert report["background_refilled"] == 6

    def test_refill_idle_coroutine_tops_up_between_work(self):
        import asyncio

        service = self._service(refill_chunk=2, idle_interval_s=0.001)
        seed_demand = service.lease("s1")
        pool = _pool(33)
        seed_demand.register_pool(pool, self.DIGEST_A, True)
        for _ in range(4):
            pool.encryption_factor()
        service.release("s1")

        async def scenario():
            grant = service.lease("s2")
            empty = _pool(34)
            grant.pools.append(((self.DIGEST_A[:16], True), empty))
            refiller = asyncio.get_running_loop().create_task(
                service.refill_idle())
            try:
                async with asyncio.timeout(10):
                    while len(empty) < 4:
                        await asyncio.sleep(0.001)
            finally:
                refiller.cancel()
            assert grant.background_refilled == 4

        asyncio.run(scenario())

    def test_lease_lifecycle_errors(self):
        service = self._service()
        grant = service.lease("s1")
        with pytest.raises(PrecomputeError, match="already holds"):
            service.lease("s1")
        with pytest.raises(PrecomputeError, match="no lease"):
            service.release("unknown")
        service.release("s1")
        with pytest.raises(PrecomputeError, match="already released"):
            grant.register_pool(_pool(35), self.DIGEST_A, True)
        service.close()
        with pytest.raises(PrecomputeError, match="closed"):
            service.lease("s2")

    def test_invalid_refill_chunk(self):
        with pytest.raises(PrecomputeError, match="refill_chunk"):
            self._service(refill_chunk=0)

    def test_engine_fill_matches_serial_fill(self):
        from repro.crypto.engine import ModexpEngine

        with ModexpEngine(workers=2, min_parallel_jobs=2) as engine:
            service = self._service(engine=engine)
            pool = _pool(36)
            service.fill(pool, 5)
        serial = _pool(36)
        serial.refill(5)
        assert list(pool._factors) == list(serial._factors)
