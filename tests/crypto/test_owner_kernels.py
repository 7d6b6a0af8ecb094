"""Tests for the kernels that use what each party holds.

Negation by modular inverse (signed scalars in
``PaillierCiphertext.__mul__``) must agree exactly with the generic
computation it replaces, neither decryption nor any randomness factor
is a counted power, and no power is kept once computed.  The DGK key
holder's zero test is tested in ``tests/crypto/test_dgk.py``; here only
its refusal on a sealed key inside a session.  Randomness factors have
one kernel for every holder of a key: the owner's draws match a peer's
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
from repro.crypto.integer_math import powmod_cache_report
from repro.crypto.keycache import cached_dgk_keypair
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.sealed import PublicOnlyKeyError, seal_dgk_keypair
from repro.net.channel import Channel, drive
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
            drive(session.compare_leq(alice, 3, bob, 5, lo=0, hi=7,
                                      reveal_to="a"))
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


class TestOwnerFactors:
    """The key owner's public key and one rebuilt from its announced
    ``(n, g)`` -- what a peer holds -- draw identical factors from the
    same coins: the owner has no kernel of its own."""

    def _pair(self):
        return KEYS.public_key, PaillierPublicKey(n=PUB.n, g=PUB.g)

    def test_online_draws_match_a_public_view(self):
        owner, peer_view = self._pair()
        drawn = []
        for key in (owner, peer_view):
            rng = random.Random(1)
            cipher = key.encrypt(42, rng)
            drawn.append((key.fresh_factor(rng), cipher.value,
                          cipher.rerandomize(rng).value,
                          key.encrypt_signed(-42, rng).value,
                          rng.getstate()))
        assert drawn[0] == drawn[1]

    @pytest.mark.parametrize("engine_factory", [
        lambda: ModexpEngine(workers=1), _parallel_engine],
        ids=["serial", "parallel"])
    def test_engine_paths_match_a_public_view(self, engine_factory):
        owner, peer_view = self._pair()
        drawn = []
        with engine_factory() as engine:
            for key in (owner, peer_view):
                rng = random.Random(2)
                ciphers = engine.encrypt_batch(key, list(range(5)), rng)
                factors = engine.encryption_factors(key, 4, rng)
                drawn.append(([cipher.value for cipher in ciphers], factors,
                              rng.getstate()))
        assert drawn[0] == drawn[1]


class TestMemoStaysPublic:
    """Decryption and randomness factors are not counted powers,
    serially or through a fallen-back engine; the homomorphic scalar
    powers ``E(m)^k`` are counted and none is kept, though ``k`` is the
    masker's private coordinate or a packed reply's column of them
    (``counted_pow``'s docstring)."""

    def _closed_engine(self):
        engine = _parallel_engine()
        engine.close()  # parallel-eligible batches run in-process
        return engine

    def test_no_memo_entries(self):
        rng = random.Random(8)
        standard = dataclasses.replace(PRIV, hp=None, hq=None)
        before = powmod_cache_report()
        values = [PUB.encrypt(m % PUB.n, rng).value for m in (0, 99, -198)]
        PRIV.decrypt_raw(values[0])
        standard.decrypt_raw(values[0])
        PRIV.decrypt_raw_standard(values[1])
        for engine in (default_engine(), self._closed_engine()):
            engine.decrypt_raw_batch(PRIV, values)
            engine.decrypt_raw_batch(standard, values)
            engine.encrypt_batch(PUB, [1, 2, 3], rng)
            engine.encryption_factors(PUB, 2, rng)
        PUB.raw_encrypt(5, 12345)
        PaillierCiphertext(PUB, values[2]).rerandomize(rng)
        assert powmod_cache_report() == before

    def test_a_mesh_session_keeps_no_power(self):
        """A mesh session's masked replies raise the peers' ciphertexts
        to private columns: each power is counted, and none is kept."""
        from repro.core.config import ProtocolConfig
        from repro.multiparty.horizontal import (
            run_multiparty_horizontal_dbscan,
        )
        from repro.smc.session import SmcConfig

        points = {"p0": [(0, 0), (3, 1)], "p1": [(1, 0), (9, 9)],
                  "p2": [(0, 2), (2, 2)]}
        config = ProtocolConfig(
            eps=2.0, min_pts=3, scale=1,
            smc=SmcConfig(comparison="oracle", key_seed=232,
                          paillier_bits=128))
        before = powmod_cache_report()
        run_multiparty_horizontal_dbscan(points, config, seeds=[1, 2, 3])
        after = powmod_cache_report()
        assert after["misses"] > before["misses"]
        assert {key: after[key] for key in after if key != "misses"} \
            == {"hits": 0, "size": 0, "maxsize": 0, "evictions": 0}
