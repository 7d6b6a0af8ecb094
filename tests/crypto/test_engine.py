"""Engine-vs-serial equivalence tests for the parallel modexp engine.

The binding property (the PR-2 tentpole contract): a
:class:`~repro.crypto.engine.ModexpEngine` never changes *what* is
computed -- batch encryptions, factor batches and batch decryptions must
be bit-identical to the seed-era serial loops under the same RNG state,
for every worker count and for the serial fallback.
"""

import dataclasses
import random

import pytest

from repro.crypto.engine import EngineError, ModexpEngine, default_engine
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair

KEYS = cached_paillier_keypair(256, 920)
PUB = KEYS.public_key
PRIV = KEYS.private_key


def _parallel_engine(workers=2):
    """An engine that shards even tiny batches (exercises the workers)."""
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

    def test_fill_pool_is_a_stub(self):
        """The offline pools are gone: the name stays for the layered
        benchmark's probes only, and refuses to run."""
        with pytest.raises(EngineError, match="pools are gone"):
            ModexpEngine(workers=1).fill_pool(None, 3)

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


class TestEncryptBatchEquivalence:
    MESSAGES = [0, 1, 17, PUB.n - 1, 123456789]

    def test_no_pool(self):
        serial = PUB.encrypt_batch(self.MESSAGES, random.Random(5))
        with _parallel_engine() as engine:
            pooled = engine.encrypt_batch(PUB, self.MESSAGES,
                                          random.Random(5))
        assert [c.value for c in serial] == [c.value for c in pooled]

    def test_decrypts_back(self):
        with _parallel_engine() as engine:
            ciphers = engine.encrypt_batch(PUB, self.MESSAGES,
                                           random.Random(7))
        assert [PRIV.decrypt(c) for c in ciphers] == self.MESSAGES

    @pytest.mark.parametrize("count", [0, 2, 5])
    def test_leaves_the_rng_where_serial_encryption_does(self, count):
        """Every engine draws one factor per plaintext, in order, and
        counts one job each: the caller's next draw is the serial
        loop's."""
        messages = self.MESSAGES[:count]
        for engine in (ModexpEngine(workers=1), _parallel_engine()):
            with engine:
                rng, twin = random.Random(6), random.Random(6)
                ciphers = engine.encrypt_batch(PUB, messages, rng)
                report = engine.report()
            assert ciphers == [PUB.encrypt(m, twin) for m in messages]
            assert rng.getstate() == twin.getstate()
            assert (report["batches"], report["jobs"]) == (1, count)


class TestEncryptionFactorsEquivalence:
    """The PR-4 satellite: masker-side encrypt/rerandomize factor
    batches (Section 5 share generation) drawn through the engine must
    be bit-identical to the serial interleaved sequence."""

    def test_no_pool(self):
        """The seed-era draw order: one factor per encryption."""
        rng = random.Random(8)
        serial = [PUB.fresh_factor(rng) for _ in range(10)]
        with _parallel_engine() as engine:
            batched = engine.encryption_factors(PUB, 10, random.Random(8))
        assert serial == batched

    @pytest.mark.parametrize("count", [0, 3, 10])
    def test_leaves_the_rng_where_serial_draws_do(self, count):
        for engine in (ModexpEngine(workers=1), _parallel_engine()):
            with engine:
                rng, twin = random.Random(9), random.Random(9)
                factors = engine.encryption_factors(PUB, count, rng)
                report = engine.report()
            assert factors == [PUB.fresh_factor(twin) for _ in range(count)]
            assert rng.getstate() == twin.getstate()
            assert (report["batches"], report["jobs"]) == (1, count)

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

