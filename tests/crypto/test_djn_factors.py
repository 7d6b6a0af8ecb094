"""Tests for the fixed-base Paillier randomness (DJN).

Every randomness factor is ``h_s^r mod n^2`` from the key's fixed-base
table, with ``h_s = (-x^2)^n mod n^2`` derived from a hash of ``n`` and
``r`` of ``k + 128`` bits.  A factor must be an encryption of zero at
every key size, ``h_s`` must be a public function of ``n`` (the same in
every process), a party holding its full key must encrypt exactly like
one holding only the sealed public half, from the same coins, and the
key's owner must not read a masker's coefficient out of a reply's
factor.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.engine import ModexpEngine
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierPublicKey,
    djn_base,
    generate_paillier_keypair,
)
from repro.crypto.precompute import PrecomputeError
from repro.crypto.sealed import seal_paillier_keypair
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import CryptoContext, SmcConfig, SmcSession

KEY_BITS = (64, 128, 256, 512, 1024, 2048)
SRC = Path(__file__).resolve().parents[2] / "src"


@lru_cache(maxsize=None)
def _keys(bits: int, random_g: bool = False):
    """This module's own keys (random-g keys stop at 1024 bits: a
    second 2048-bit keygen costs seconds and tests nothing new)."""
    return generate_paillier_keypair(
        bits, random.Random(f"djn-factors-{bits}"), random_g=random_g)


def _candidate(n: int, attempt: int) -> int:
    """The ``attempt``-th hash candidate for ``x``, from the definition:
    SHA-256 in counter mode over ``n``'s big-endian bytes, 128 bits
    wider than ``n``, reduced mod ``n``."""
    width = (n.bit_length() + 7) // 8
    stream = b""
    block = 0
    while len(stream) < width + 16:
        stream += hashlib.sha256(
            f"repro/djn-h_s|{attempt}|{block}|".encode()
            + n.to_bytes(width, "big")).digest()
        block += 1
    return int.from_bytes(stream, "big") % n


def _reference_base(n: int) -> int:
    """``(-x^2)^n mod n^2`` for the first candidate that is a unit."""
    attempt = 0
    while math.gcd(_candidate(n, attempt), n) != 1:
        attempt += 1
    x = _candidate(n, attempt)
    return pow(-x * x, n, n * n)


class TestFactorKernel:
    @pytest.mark.parametrize("bits,random_g", [
        *((bits, False) for bits in KEY_BITS),
        *((bits, True) for bits in KEY_BITS[:5])])
    def test_roundtrip_and_zero_factors(self, bits, random_g):
        keys = _keys(bits, random_g)
        public, private = keys.public_key, keys.private_key
        rng = random.Random(bits)
        for message in (0, 1, public.n - 1, rng.randrange(public.n)):
            cipher = public.encrypt(message, rng)
            assert private.decrypt(cipher) == message
            assert private.decrypt(cipher.rerandomize(rng)) == message
        for _ in range(3):
            assert private.decrypt_raw(public.fresh_factor(rng)) == 0
        assert private.decrypt_raw(public.randomness_factor(
            (1 << public.randomness_bits) - 1)) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(KEY_BITS[:5]), st.booleans(),
           st.integers(min_value=0, max_value=2**1024))
    def test_table_equals_generic_powmod(self, bits, random_g, raw):
        public = _keys(bits, random_g).public_key
        r = raw % (1 << public.randomness_bits)
        assert public.randomness_factor(r) \
            == pow(djn_base(public.n), r, public.n_squared)

    @pytest.mark.parametrize("bits", [64, 255, 256, 1023])
    def test_exponents_have_128_bits_beyond_the_key(self, bits):
        n = (1 << (bits - 1)) + 12345
        public = PaillierPublicKey(n=n, g=n + 1)
        assert public.randomness_bits == bits + 128
        assert public.fresh_factor(random.Random(3)) \
            == public.randomness_factor(
                random.Random(3).getrandbits(public.randomness_bits))

    def test_out_of_range_exponent_refused(self):
        public = _keys(256).public_key
        with pytest.raises(PrecomputeError, match="exponent"):
            public.randomness_factor(1 << public.randomness_bits)


class TestDjnBase:
    @pytest.mark.parametrize("bits", KEY_BITS)
    def test_matches_its_definition(self, bits):
        n = _keys(bits).public_key.n
        assert djn_base(n) == _reference_base(n)

    def test_same_in_a_fresh_process(self):
        n = _keys(512).public_key.n
        env = dict(os.environ, PYTHONPATH=str(SRC))
        printed = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.crypto.paillier import djn_base; "
             "print(djn_base(int(sys.argv[1])))", str(n)],
            env=env, check=True, capture_output=True, text=True).stdout
        assert int(printed) == djn_base(n)

    def test_non_unit_candidates_rejected(self):
        """For a modulus whose first candidate shares a factor with it,
        the base comes from the next unit candidate."""
        primes = [p for p in range(101, 400)
                  if all(p % d for d in range(2, int(p ** 0.5) + 1))]
        moduli = [p * q for p in primes for q in primes if p < q]
        n = next(m for m in moduli if math.gcd(_candidate(m, 0), m) != 1)
        assert djn_base(n) == _reference_base(n)
        assert math.gcd(_candidate(n, 0), n) != 1


class TestOneKernelForEveryHolder:
    """The key's owner and a party holding only its sealed public half
    draw the same factors from the same coins: no owner path exists."""

    def _sessions(self, owner_keys, workers):
        other = _keys(128)
        sessions = []
        for keys in (owner_keys,
                     seal_paillier_keypair(owner_keys.public_key, "alice")):
            alice, bob = make_party_pair(Channel(), 5, 6)
            contexts = {alice.name: CryptoContext(paillier=keys),
                        bob.name: CryptoContext(paillier=other)}
            engine = ModexpEngine(workers=workers, min_parallel_jobs=1)
            sessions.append(SmcSession(
                alice, bob, SmcConfig(engine=engine),
                preset_contexts=contexts))
        return sessions

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bits", [256, 1024])
    def test_full_and_sealed_keys_agree(self, bits, workers):
        keys = _keys(bits)
        public = keys.public_key
        produced = []
        for session in self._sessions(keys, workers):
            pool = session.pool("alice", "alice")
            session.precompute_pools({("alice", "alice"): 3})
            ciphers = session.engine.encrypt_batch(
                public, [0, 7, 99, 123456, 5], session.alice.rng, pool)
            factors = session.engine.encryption_factors(
                public, 2, session.alice.rng, pool)
            fresh = public.encrypt(11, session.alice.rng)
            produced.append(([c.value for c in ciphers], factors,
                             fresh.rerandomize(session.alice.rng).value,
                             pool.report()))
            session.engine.close()
        assert produced[0] == produced[1]
        assert produced[0][3]["misses"] == 4

    def test_session_pools_hold_public_keys_only(self):
        session = self._sessions(_keys(256), 1)[0]
        for (_actor, owner), pool in session.pools().items():
            assert pool.public_key == session.paillier_keys(owner).public_key
            assert not hasattr(pool, "private_key")


def _discrete_log(base: int, value: int, prime: int) -> int:
    """The smallest ``e >= 0`` with ``base^e == value mod prime``
    (baby-step giant-step; the test keys' primes have 32 bits)."""
    step = math.isqrt(prime) + 1
    baby = {}
    power = 1
    for j in range(step):
        baby.setdefault(power, j)
        power = power * base % prime
    stride = pow(base, -step, prime)
    for i in range(step):
        if value in baby:
            return i * step + baby[value]
        value = value * stride % prime
    raise AssertionError("value is not a power of base")


class TestOwnerView:
    """The key's owner decrypts a masked reply ``E(x)^y * E(s)`` built
    on its own ``E(x)``.  Knowing ``p`` and ``q``, it can take the
    reply factor's discrete logarithm to the base ``h_s``: the exponent
    ``r_x * y + r_s`` modulo the order of ``h_s``.  With ``ceil(k/2)``-bit
    exponents that is the whole integer and divided by its own ``r_x``
    it gives away ``y``; with the key's ``randomness_bits`` it is within
    ``2^-128`` of uniform."""

    def _owner_guesses(self, width: int, trials: int = 6):
        keys = _keys(64)
        public, private = keys.public_key, keys.private_key
        base = djn_base(public.n)
        orders = []
        for prime in (private.p, private.q):
            h = base % prime
            orders.append(_discrete_log(h, pow(h, -1, prime), prime) + 1)
        rng = random.Random("owner-view")
        outcomes = []
        for _ in range(trials):
            r_x = rng.getrandbits(width) | 1 << (width - 1)
            y = rng.getrandbits(16)
            own = PaillierCiphertext(public, public.raw_encrypt(5, r_x))
            mask = PaillierCiphertext(public, public.raw_encrypt(
                rng.randrange(public.n), rng.getrandbits(width)))
            reply = own * y + mask
            plain = private.decrypt(reply)
            factor = reply.value * pow(public.raw_encrypt_with_factor(
                plain, 1), -1, public.n_squared) % public.n_squared
            # CRT of the logarithms mod p and mod q: the exponent modulo
            # the order of h_s.
            exponent, modulus = 0, 1
            for prime, order in zip((private.p, private.q), orders):
                residue = _discrete_log(base % prime, factor % prime, prime)
                common = math.gcd(modulus, order)
                step = (residue - exponent) // common * pow(
                    modulus // common, -1, order // common) % (order // common)
                exponent += modulus * step
                modulus = modulus // common * order
            outcomes.append(exponent % modulus // r_x - y)
        return outcomes

    def test_reply_factor_hides_the_coefficient(self):
        public = _keys(64).public_key
        outcomes = self._owner_guesses(public.randomness_bits)
        assert not any(offset in (0, 1) for offset in outcomes)

    def test_half_width_exponents_would_reveal_it(self):
        """The attack above is real: at DJN's ``ceil(k/2)`` bits it
        recovers every coefficient (up to ``r_s // r_x``, 0 or 1)."""
        outcomes = self._owner_guesses((64 + 1) // 2)
        assert all(offset in (0, 1) for offset in outcomes)
