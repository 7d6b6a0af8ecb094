"""Engine-vs-serial equivalence tests for the parallel modexp engine.

The binding property (the PR-2 tentpole contract): a
:class:`~repro.crypto.engine.ModexpEngine` never changes *what* is
computed -- pool fills, batch encryptions and batch decryptions must be
bit-identical to the seed-era serial loops under the same RNG state, for
every worker count and for the serial fallback.
"""

import dataclasses
import random

import pytest

from repro.crypto.engine import EngineError, ModexpEngine, default_engine
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError
from repro.crypto.precompute import RandomnessPool
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair

KEYS = cached_paillier_keypair(256, 920)
PUB = KEYS.public_key
PRIV = KEYS.private_key


def _parallel_engine(workers=2):
    """An engine that shards even tiny batches (exercises the pool path)."""
    return ModexpEngine(workers=workers, min_parallel_jobs=1)


class TestModexpBatch:
    def test_matches_builtin_pow_serial_and_parallel(self):
        rng = random.Random(0)
        jobs = [(rng.randrange(2, 1 << 64), rng.randrange(1, 1 << 32),
                 rng.randrange(2, 1 << 64)) for _ in range(40)]
        expected = [pow(b, e, m) for b, e, m in jobs]
        assert ModexpEngine(workers=1).modexp_batch(jobs) == expected
        with _parallel_engine() as engine:
            assert engine.modexp_batch(jobs) == expected
            assert engine.report()["parallel_batches"] == 1
            assert engine.report()["parallel_modexps"] == 40

    def test_empty_batch(self):
        assert ModexpEngine(workers=1).modexp_batch([]) == []

    def test_small_batches_stay_serial(self):
        engine = ModexpEngine(workers=2, min_parallel_jobs=64)
        engine.modexp_batch([(2, 10, 1000)] * 8)
        report = engine.report()
        assert report["parallel_batches"] == 0
        assert report["batches"] == 1 and report["jobs"] == 8

    def test_closed_engine_degrades_to_serial(self):
        engine = _parallel_engine()
        engine.close()
        assert engine.modexp_batch([(3, 5, 100)] * 4) == [pow(3, 5, 100)] * 4
        assert engine.report()["fallbacks"] == 1

    def test_validation(self):
        with pytest.raises(EngineError, match="workers"):
            ModexpEngine(workers=-1)
        with pytest.raises(EngineError, match="min_parallel_jobs"):
            ModexpEngine(min_parallel_jobs=0)
        with pytest.raises(EngineError, match="shards_per_worker"):
            ModexpEngine(shards_per_worker=0)

    def test_default_engine_is_serial_singleton(self):
        engine = default_engine()
        assert engine is default_engine()
        assert engine.workers == 1


class TestWarmUp:
    def test_serial_engine_never_warms(self):
        engine = ModexpEngine(workers=1)
        assert engine.warm_up() is False
        assert engine.report()["warmups"] == 0

    def test_closed_engine_never_warms(self):
        engine = _parallel_engine()
        engine.close()
        assert engine.warm_up() is False

    def test_warm_up_spawns_pool_without_changing_results(self):
        jobs = [(3, 5, 100)] * 4
        with _parallel_engine() as engine:
            warmed = engine.warm_up()
            report = engine.report()
            # Warm-up is pure lifecycle: no batches or jobs counted.
            assert report["batches"] == 0 and report["jobs"] == 0
            assert report["warmups"] == (1 if warmed else 0)
            assert engine.modexp_batch(jobs) == [pow(3, 5, 100)] * 4
        # On hosts that cannot spawn a pool, warm_up reports False and
        # the engine keeps running serially -- never an exception.
        assert isinstance(warmed, bool)

    def test_mesh_precompute_warms_each_engine_once(self):
        from repro.multiparty.mesh import PartyMesh
        from repro.smc.session import SmcConfig
        with _parallel_engine() as engine:
            mesh = PartyMesh(["a", "b", "c"],
                             SmcConfig(key_seed=81, engine=engine),
                             seeds=[1, 2, 3])
            mesh.precompute_pools(2)
            # Three pairwise sessions share one engine object; the mesh
            # offline phase warms it exactly once per precompute call.
            assert engine.report()["warmups"] <= 1


class TestPoolFillEquivalence:
    def _pools(self, seed):
        return (RandomnessPool(PUB, random.Random(seed)),
                RandomnessPool(PUB, random.Random(seed)))

    @pytest.mark.parametrize("count", [0, 1, 7, 40])
    def test_engine_fill_matches_serial_refill(self, count):
        serial_pool, engine_pool = self._pools(3)
        serial_pool.refill(count)
        with _parallel_engine() as engine:
            engine.fill_pool(engine_pool, count)
        assert [serial_pool.encryption_factor() for _ in range(count)] \
            == [engine_pool.encryption_factor() for _ in range(count)]
        assert serial_pool.pregenerated == engine_pool.pregenerated == count
        assert engine_pool.misses == 0

    def test_serial_engine_fill_matches_refill(self):
        serial_pool, engine_pool = self._pools(4)
        serial_pool.refill(12)
        ModexpEngine(workers=1).fill_pool(engine_pool, 12)
        assert list(serial_pool._factors) == list(engine_pool._factors)

    def test_session_precompute_uses_engine(self):
        from repro.smc.session import SmcConfig, SmcSession
        with _parallel_engine() as engine:
            session = SmcSession(
                *make_party_pair(Channel(), 1, 2),
                SmcConfig(key_seed=77, engine=engine))
            session.precompute_pools(6)
            report = session.pool_report()
        assert all(entry["pregenerated"] == 6 for entry in report.values())
        assert engine.report()["jobs"] >= 24  # 4 pools x 6 factors


class TestEncryptBatchEquivalence:
    MESSAGES = [0, 1, 17, PUB.n - 1, 123456789]

    def test_no_pool(self):
        serial = PUB.encrypt_batch(self.MESSAGES, random.Random(5))
        with _parallel_engine() as engine:
            pooled = engine.encrypt_batch(PUB, self.MESSAGES,
                                          random.Random(5))
        assert [c.value for c in serial] == [c.value for c in pooled]

    @pytest.mark.parametrize("prefilled", [0, 2, 5])
    def test_pool_with_misses(self, prefilled):
        """Engine consumption must mirror the serial pop/miss order."""
        serial_pool = RandomnessPool(PUB, random.Random(6))
        engine_pool = RandomnessPool(PUB, random.Random(6))
        serial_pool.refill(prefilled)
        engine_pool.refill(prefilled)
        serial = PUB.encrypt_batch(self.MESSAGES, serial_pool.rng,
                                   serial_pool)
        with _parallel_engine() as engine:
            parallel = engine.encrypt_batch(PUB, self.MESSAGES,
                                            engine_pool.rng, engine_pool)
        assert [c.value for c in serial] == [c.value for c in parallel]
        assert serial_pool.report() == engine_pool.report()

    def test_decrypts_back(self):
        with _parallel_engine() as engine:
            ciphers = engine.encrypt_batch(PUB, self.MESSAGES,
                                           random.Random(7))
        assert [PRIV.decrypt(c) for c in ciphers] == self.MESSAGES

    def test_pool_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 921)
        pool = RandomnessPool(other.public_key, random.Random(0))
        with pytest.raises(PaillierError, match="different key"):
            _parallel_engine().encrypt_batch(PUB, [1], random.Random(0),
                                             pool)


class TestEncryptionFactorsEquivalence:
    """The PR-4 satellite: masker-side encrypt/rerandomize factor
    batches (Section 5 share generation) drawn through the engine must
    be bit-identical to the serial interleaved sequence."""

    def _serial_factors(self, count, rng, pool):
        """The seed-era draw order: one factor per encrypt/rerandomize."""
        factors = []
        for _ in range(count):
            if pool is not None:
                factors.append(pool.encryption_factor())
            else:
                factors.append(PUB.fresh_factor(rng))
        return factors

    def test_no_pool(self):
        serial = self._serial_factors(10, random.Random(8), None)
        with _parallel_engine() as engine:
            batched = engine.encryption_factors(PUB, 10, random.Random(8))
        assert serial == batched

    @pytest.mark.parametrize("prefilled", [0, 3, 10])
    def test_pool_with_misses(self, prefilled):
        serial_pool = RandomnessPool(PUB, random.Random(9))
        engine_pool = RandomnessPool(PUB, random.Random(9))
        serial_pool.refill(prefilled)
        engine_pool.refill(prefilled)
        serial = self._serial_factors(6, serial_pool.rng, serial_pool)
        with _parallel_engine() as engine:
            batched = engine.encryption_factors(PUB, 6, engine_pool.rng,
                                                engine_pool)
        assert serial == batched
        assert serial_pool.report() == engine_pool.report()

    def test_pool_key_mismatch_raises(self):
        other = cached_paillier_keypair(256, 921)
        pool = RandomnessPool(other.public_key, random.Random(0))
        with pytest.raises(PaillierError, match="different key"):
            _parallel_engine().encryption_factors(PUB, 1, random.Random(0),
                                                  pool)

    def test_scalar_products_transcript_engine_vs_serial(self):
        """Section 5 sharing routed through the engine is bit-identical
        on the wire (same masker ciphertexts, same results)."""
        from repro.smc.scalar_product import secure_scalar_products_lanes
        from repro.smc.session import SmcConfig, SmcSession

        def run(engine):
            channel = Channel()
            session = SmcSession(
                *make_party_pair(channel, 31, 32),
                SmcConfig(paillier_bits=128, key_seed=922, engine=engine))
            [values] = drive(secure_scalar_products_lanes(
                [session.scalar_product_lane(
                    session.alice, [[3, -1, 4]], session.bob,
                    [[[1, 5, 9], [2, 6, 5], [0, 0, 1]]], [[7, 8, 9]])],
                engine=session.engine))
            wire = [(e.sender, e.label, e.value)
                    for e in channel.transcript.entries]
            return values, wire

        serial_values, serial_wire = run(None)
        with _parallel_engine() as engine:
            engine_values, engine_wire = run(engine)
        assert serial_values == engine_values
        assert serial_wire == engine_wire
        assert serial_values == [[3 - 5 + 36 + 7, 6 - 6 + 20 + 8, 4 + 9]]


class TestDecryptBatchEquivalence:
    def _ciphertexts(self, count=9):
        rng = random.Random(8)
        return [PUB.encrypt(rng.randrange(PUB.n), rng).value
                for _ in range(count)]

    def test_crt_split_matches_serial(self):
        values = self._ciphertexts()
        with _parallel_engine() as engine:
            assert engine.decrypt_raw_batch(PRIV, values) \
                == PRIV.decrypt_raw_batch(values)

    def test_standard_key_matches_serial(self):
        """Keys without CRT constants take the full-modulus job shape."""
        plain_key = dataclasses.replace(PRIV, hp=None, hq=None)
        values = self._ciphertexts()
        with _parallel_engine() as engine:
            assert engine.decrypt_raw_batch(plain_key, values) \
                == plain_key.decrypt_raw_batch(values) \
                == PRIV.decrypt_raw_batch(values)

    def test_out_of_range_ciphertext_rejected(self):
        with pytest.raises(PaillierError, match="Z_"):
            _parallel_engine().decrypt_raw_batch(PRIV, [PUB.n_squared])
        with pytest.raises(PaillierError, match="Z_"):
            ModexpEngine(workers=1).decrypt_raw_batch(PRIV, [-1])


@pytest.mark.slow
class TestWorkerScaling:
    """Heavier fills across worker counts -- excluded from tier-1."""

    def test_fill_identical_across_worker_counts(self):
        reference = RandomnessPool(PUB, random.Random(14))
        reference.refill(120)
        expected = list(reference._factors)
        for workers in (1, 2, 4):
            pool = RandomnessPool(PUB, random.Random(14))
            with ModexpEngine(workers=workers) as engine:
                engine.fill_pool(pool, 120)
            assert list(pool._factors) == expected, workers
