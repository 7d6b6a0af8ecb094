"""Tests for DGK's cryptosystem (``repro.crypto.dgk``).

The reference decryption here is a brute-force discrete logarithm in
the order-``u`` subgroup modulo p: ``E(m)^(v_p) mod p`` equals
``(g^(v_p))^(m mod u) mod p``, and ``u`` is small enough to tabulate.
"""

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.dgk as dgk_module
from repro.crypto.dgk import (
    DGK_U,
    MIN_DGK_BITS,
    DgkError,
    DgkKeySizeError,
    dgk_parameters,
    generate_dgk_keypair,
)
from repro.crypto.integer_math import powmod_cache_report
from repro.crypto.keycache import cached_dgk_keypair
from repro.crypto.primes import is_probable_prime
from repro.crypto.sealed import PublicOnlyKeyError, seal_dgk_keypair
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.bitwise_comparison import (
    BitwiseComparisonError,
    dgk_greater_than,
    dgk_greater_than_batch,
)
from repro.smc.session import SmcConfig, SmcSession

KEYS = cached_dgk_keypair(256, 31)
PUB = KEYS.public_key
PRIV = KEYS.private_key


@lru_cache(maxsize=None)
def _log_table(keys) -> dict[int, int]:
    """``(g^(v_p))^m mod p -> m`` for every ``m`` in ``Z_u``."""
    private = keys.private_key
    base = pow(keys.public_key.g, private.v_p, private.p)
    table, power = {}, 1
    for m in range(DGK_U):
        table[power] = m
        power = power * base % private.p
    return table


def _decrypt(keys, ciphertext: int) -> int:
    private = keys.private_key
    return _log_table(keys)[pow(ciphertext, private.v_p, private.p)]


def _encrypt_signed(public, value: int, rng) -> int:
    """``E(value)`` for a possibly negative ``value``, as the comparison
    forms it: a negative value is the inverse of its absolute value."""
    cipher = public.encrypt(abs(value), rng)
    return cipher if value >= 0 else pow(cipher, -1, public.n)


class TestKeyStructure:
    @pytest.mark.parametrize("bits", [128, 129, 256, 383, 512])
    def test_sizes_and_orders(self, bits):
        keys = generate_dgk_keypair(bits, random.Random(bits))
        public, private = keys.public_key, keys.private_key
        u, t, _ = dgk_parameters(bits)
        p, q, v_p, v_q = private.p, private.q, private.v_p, private.v_q
        assert public.n == p * q and p != q
        assert public.n.bit_length() == bits
        assert v_p != v_q
        for prime in (p, q, v_p, v_q):
            assert is_probable_prime(prime)
        assert v_p.bit_length() == v_q.bit_length() == t
        assert (p - 1) % (u * v_p) == 0 and (q - 1) % (u * v_q) == 0
        for element, factors in ((public.g, (u, v_p, v_q)),
                                 (public.h, (v_p, v_q))):
            order = math.prod(factors)
            assert pow(element, order, public.n) == 1
            for factor in factors:
                assert pow(element, order // factor, public.n) != 1

    @pytest.mark.parametrize("bits,t,r_bits", [
        (128, 32, 80), (256, 64, 160), (512, 128, 320), (640, 160, 400),
        (1024, 160, 400), (2048, 160, 400), (258, 64, 160), (260, 65, 163),
    ])
    def test_parameters_follow_the_key_size(self, bits, t, r_bits):
        assert dgk_parameters(bits) == (DGK_U, t, r_bits)

    @pytest.mark.parametrize("bits", [64, 100, MIN_DGK_BITS - 1])
    def test_keys_below_the_floor_raise_without_searching(self, bits):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(DgkKeySizeError, match=f"a {bits}-bit key"):
            generate_dgk_keypair(bits, rng)
        assert rng.getstate() == state
        with pytest.raises(DgkKeySizeError, match="at least 128 bits"):
            cached_dgk_keypair(bits, 1)

    def test_session_key_derivation_below_the_floor_raises(self):
        alice, bob = make_party_pair(Channel(), 1, 2)
        with pytest.raises(DgkKeySizeError):
            SmcSession(alice, bob, SmcConfig(paillier_bits=64, key_seed=4))
        alice, bob = make_party_pair(Channel(), 1, 2)
        SmcSession(alice, bob, SmcConfig(paillier_bits=64, key_seed=4,
                                         comparison="oracle"))


class TestHomomorphisms:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=DGK_U - 1),
           st.integers(min_value=0, max_value=DGK_U - 1),
           st.integers(min_value=-(2**20), max_value=2**20),
           st.integers(min_value=0, max_value=2**32))
    def test_operations_work_mod_u(self, a, b, k, seed):
        rng = random.Random(seed)
        n, g = PUB.n, PUB.g
        enc_a, enc_b = PUB.encrypt(a, rng), PUB.encrypt(b, rng)
        assert _decrypt(KEYS, enc_a) == a
        assert _decrypt(KEYS, enc_a * enc_b % n) == (a + b) % DGK_U
        assert _decrypt(KEYS, enc_a * pow(g, k, n) % n) == (a + k) % DGK_U
        assert _decrypt(KEYS, pow(enc_a, k, n)) == (a * k) % DGK_U
        assert _decrypt(KEYS, pow(enc_a, -1, n)) == -a % DGK_U
        assert _decrypt(KEYS, enc_a * PUB.randomizer(rng) % n) == a

    def test_plaintexts_outside_z_u_rejected(self):
        for plaintext in (-1, DGK_U):
            with pytest.raises(DgkError, match="plaintext"):
                PUB.encrypt(plaintext, random.Random(0))


class TestZeroTest:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=(DGK_U - 1) // 3),
           st.data())
    def test_agrees_with_decryption(self, bits, data):
        """Witness-shaped plaintexts: ``-2 <= c_t <= 3(bits-1)``, any
        multiplier in ``[1, u)``, several per batch."""
        c_t_values = data.draw(st.lists(
            st.integers(min_value=-2, max_value=3 * (bits - 1)),
            min_size=1, max_size=6))
        multipliers = data.draw(st.lists(
            st.integers(min_value=1, max_value=DGK_U - 1),
            min_size=len(c_t_values), max_size=len(c_t_values)))
        rng = random.Random(bits)
        values = [pow(_encrypt_signed(PUB, c_t, rng), multiplier, PUB.n)
                  * PUB.randomizer(rng) % PUB.n
                  for c_t, multiplier in zip(c_t_values, multipliers)]
        expected = [c_t == 0 for c_t in c_t_values]
        assert [_decrypt(KEYS, value) == 0 for value in values] == expected
        assert PRIV.zero_test_batch(values) == expected

    def test_multiples_of_u_count_as_zero(self):
        rng = random.Random(2)
        values = [pow(PUB.encrypt(m, rng), DGK_U, PUB.n) for m in (1, 7)]
        assert PRIV.zero_test_batch(values) == [True, True]

    def test_work_does_not_depend_on_the_answers(self, monkeypatch):
        calls = []

        def counting_pow(*args):
            calls.append(args[1:])
            return pow(*args)

        rng = random.Random(3)
        zeros = [PUB.encrypt(0, rng) for _ in range(5)]
        nonzeros = [PUB.encrypt(2, rng) for _ in range(5)]
        monkeypatch.setattr(dgk_module, "pow", counting_pow, raising=False)
        assert PRIV.zero_test_batch(zeros) == [True] * 5
        assert PRIV.zero_test_batch(nonzeros) == [False] * 5
        assert calls == [(PRIV.v_p, PRIV.p)] * 10

    @pytest.mark.parametrize("bad", [0, -1, PUB.n, PUB.n + 5, True, "7",
                                     1.0, None],
                             ids=["0", "-1", "n", "n+5", "True", "str",
                                  "float", "None"])
    def test_out_of_range_ciphertext_rejected(self, bad, monkeypatch):
        good = PUB.encrypt(0, random.Random(4))
        calls = []
        monkeypatch.setattr(dgk_module, "pow",
                            lambda *args: calls.append(args) or pow(*args),
                            raising=False)
        with pytest.raises(DgkError, match=r"outside \(0, n\)"):
            PRIV.zero_test_batch([good, bad])
        assert calls == []  # checked before any exponentiation

    def test_sealed_key_raises_before_any_job(self):
        sealed = seal_dgk_keypair(PUB, "peer")
        assert sealed.public_key == PUB
        assert not hasattr(sealed.private_key, "p")
        with pytest.raises(PublicOnlyKeyError, match="zero_test_batch"):
            sealed.private_key.zero_test_batch([PUB.encrypt(0,
                                                random.Random(5))])


class TestOwnerEncryption:
    """The key holder encrypts through CRT tables on its own primes:
    the same draw of ``r`` gives the public path's ciphertext, bit for
    bit, at every key size."""

    @pytest.mark.parametrize("bits", [128, 256, 1024])
    def test_owner_and_public_ciphertexts_are_equal(self, bits):
        keys = cached_dgk_keypair(bits, 31)
        public_rng, owner_rng = random.Random(bits), random.Random(bits)
        for plaintext in (0, 1, 1, 0, 2, DGK_U - 1):
            assert keys.private_key.encrypt(plaintext, owner_rng) \
                == keys.public_key.encrypt(plaintext, public_rng)
        assert owner_rng.getstate() == public_rng.getstate()

    @pytest.mark.parametrize("bits", [128, 256, 1024])
    def test_batch_equals_one_at_a_time(self, bits):
        keys = cached_dgk_keypair(bits, 31)
        plaintexts = [0, 1, 1, 0, 2, DGK_U - 1, 1]
        batch_rng, single_rng = random.Random(bits), random.Random(bits)
        assert keys.private_key.encrypt_batch(plaintexts, batch_rng) \
            == [keys.public_key.encrypt(m, single_rng) for m in plaintexts]
        assert batch_rng.getstate() == single_rng.getstate()

    def test_tables_live_on_the_private_key(self):
        tables = PRIV.crt
        assert tables is PRIV.crt
        assert (tables.p_table.modulus, tables.q_table.modulus) \
            == (PRIV.p, PRIV.q)
        assert tables.p_table.max_bits == PRIV.v_p.bit_length()

    def test_out_of_range_plaintext_rejected(self):
        with pytest.raises(DgkError, match="outside"):
            PRIV.encrypt(DGK_U, random.Random(1))
        with pytest.raises(DgkError, match="outside"):
            PRIV.encrypt_batch([0, 1, DGK_U], random.Random(1))

    def test_randomizer_table_is_shared_by_every_object_of_a_key(self):
        """An adopted copy of a key (a peer's announcement) looks the
        ``h^r`` table up once and shares it with the original."""
        copy = dgk_module.DgkPublicKey(n=PUB.n, g=PUB.g, h=PUB.h)
        assert copy.randomizer_table is PUB.randomizer_table
        assert PUB.randomizer_table.max_bits \
            == dgk_parameters(PUB.n.bit_length()).r_bits


class TestKeyCache:
    def test_deterministic(self):
        # By value: other suites may have pushed seed 31 out of the
        # 64-entry key cache since this module built KEYS.
        assert cached_dgk_keypair(256, 31) == KEYS
        assert KEYS == generate_dgk_keypair(
            256, random.Random(("dgk", 256, 31).__repr__()))

    def test_seeds_give_distinct_keys(self):
        assert (cached_dgk_keypair(256, 32).public_key.n
                != cached_dgk_keypair(256, 33).public_key.n)


class TestMemoStaysPublic:
    def test_no_memo_entries(self):
        """The comparison runs on its own tables and plain ``pow``: the
        power report, which counts the homomorphic Paillier scalar
        powers, does not move."""
        before = powmod_cache_report()
        rng = random.Random(6)
        values = [PUB.encrypt(bit, rng) for bit in (0, 1, 1)]
        PRIV.zero_test_batch(values)
        holder, other = make_party_pair(Channel(), 7, 8)
        drive(dgk_greater_than(holder, 13, other, 9, 5, KEYS))
        drive(dgk_greater_than_batch(holder, 13, other, [0, 20], 5, KEYS))
        assert powmod_cache_report() == before


class TestWidth:
    @pytest.mark.parametrize("bits", [(DGK_U - 1) // 3 + 1, 30000])
    def test_width_beyond_u_raises_before_sending(self, bits):
        channel = Channel()
        holder, other = make_party_pair(channel, 1, 2)
        with pytest.raises(BitwiseComparisonError, match="3 \\* bits < u"):
            drive(dgk_greater_than(holder, 1, other, 0, bits, KEYS))
        with pytest.raises(BitwiseComparisonError, match="3 \\* bits < u"):
            drive(dgk_greater_than_batch(holder, 1, other, [0], bits, KEYS))
        assert channel.transcript.entries == []
