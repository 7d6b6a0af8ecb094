"""DGK's additively homomorphic cryptosystem, for the secure comparison.

Damgard, Geisler and Kroigaard ("Efficient and Secure Comparison for
On-Line Auctions", ACISP 2007; correction in IJACT 2009) run their
comparison on a cryptosystem of their own, whose key holder can tell
whether a plaintext is zero without decrypting it:

- ``n = pq`` with ``u * v_p`` dividing ``p - 1`` and ``u * v_q``
  dividing ``q - 1``, where ``u`` is a small prime (the plaintext space
  is ``Z_u``) and ``v_p``, ``v_q`` are ``t``-bit primes;
- ``g`` has order ``u * v_p * v_q`` in ``Z_n^*`` and ``h`` has order
  ``v_p * v_q``;
- ``E(m) = g^m * h^r mod n`` with ``r`` of ``ceil(2.5 t)`` bits.

Ciphertexts multiply to add plaintexts mod ``u``: ``E(a) * E(b)``
encrypts ``a + b``, ``E(a) * g^k`` encrypts ``a + k``, ``E(a)^k``
encrypts ``k * a`` and ``E(a)^-1`` encrypts ``-a``.  ``h^(v_p)`` is 1
modulo p, and ``g^(v_p)`` has order ``u`` modulo p, so
``E(m)^(v_p) mod p`` is 1 exactly when ``u`` divides ``m``
(:meth:`DgkPrivateKey.zero_test_batch`): one ``t``-bit exponentiation
modulo a half-size prime, against a full decryption for Paillier.

Parameters (:func:`dgk_parameters`) are functions of the modulus size,
none of them a setting:

- ``u = 65537``.  A comparison of width ``l`` has witnesses in
  ``[-2, 3(l - 1)]``, so ``3 l < u`` makes "``u`` divides the
  witness" mean "the witness is 0" for every width up to 21,845.
- ``t = min(160, bits // 4)``.  160-bit ``v_p``, ``v_q`` are DGK's
  choice: the subgroup ``<h>`` of order ``v_p v_q`` then resists
  generic discrete-log attacks at the 80-bit level, and from 640 bits
  up ``bits // 4`` is no smaller.  Below 640 bits ``t`` shrinks with the
  key so that ``p - 1 = 2 u v_p r_p`` keeps room for the cofactor
  ``r_p``: at 256 bits ``t = 64`` and p has 128 bits, as much a toy as
  256-bit Paillier.
- ``r`` has ``ceil(2.5 t)`` bits: ``2t`` bits cover the order of ``h``
  and the extra ``t/2`` make ``h^r`` statistically close to uniform in
  ``<h>``.
- Keys have at least :data:`MIN_DGK_BITS` bits.  At 128 bits the
  structured prime search has about ``2^13`` cofactors to try per
  prime, at 96 bits about 40 (a couple of primes, if any), and at 64
  bits ``2 u v_p`` alone is wider than p, so no such prime exists
  (:class:`DgkKeySizeError`).

Nothing here touches the process-wide
:func:`~repro.crypto.integer_math.cached_pow` memo: encryption uses a
:class:`~repro.crypto.precompute.FixedBaseExp` table on ``h`` (cached
per public key, public values only) and plain ``pow``; the zero test,
keyed by ``p`` and ``v_p``, uses plain ``pow``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.crypto.integer_math import crt_pair
from repro.crypto.precompute import FixedBaseExp
from repro.crypto.primes import generate_prime, is_probable_prime

#: The plaintext modulus ``u`` (a prime), shared by every key size.
DGK_U = 65537

#: Smallest modulus :func:`generate_dgk_keypair` accepts (module docstring).
MIN_DGK_BITS = 128


class DgkError(ValueError):
    """Raised on out-of-range plaintexts or ciphertexts."""


class DgkKeySizeError(DgkError):
    """A DGK modulus below :data:`MIN_DGK_BITS` was requested."""

    def __init__(self, bits: int):
        super().__init__(
            f"a {bits}-bit key is too small for the DGK comparison: "
            f"keys need at least {MIN_DGK_BITS} bits (p - 1 must hold "
            f"2 * {DGK_U} * v_p with room to search for p)")


class DgkParameters(NamedTuple):
    """The size-derived parameters of one DGK key (module docstring)."""

    u: int       # plaintext modulus, a prime
    t: int       # bits of v_p and v_q
    r_bits: int  # bits of the randomness exponent r


def dgk_parameters(bits: int) -> DgkParameters:
    """``u``, ``t`` and the randomness width for a ``bits``-bit modulus."""
    if bits < MIN_DGK_BITS:
        raise DgkKeySizeError(bits)
    t = min(160, bits // 4)
    return DgkParameters(u=DGK_U, t=t, r_bits=(5 * t + 1) // 2)


@lru_cache(maxsize=16)
def _randomizer_table(h: int, n: int) -> FixedBaseExp:
    """The ``h^r`` table of one public key (public values only), for
    exponents of the key's randomness width."""
    return FixedBaseExp(h, n, dgk_parameters(n.bit_length()).r_bits,
                        window=8)


@dataclass(frozen=True)
class DgkPublicKey:
    """Public key ``(n, g, h)``; ciphertexts are plain ints mod ``n``."""

    n: int
    g: int
    h: int

    def randomizer(self, rng: random.Random) -> int:
        """``h^r mod n`` for a fresh ``r``: an encryption of zero, one
        table lookup per window of ``r``."""
        table = _randomizer_table(self.h, self.n)
        return table.pow(rng.getrandbits(table.max_bits))

    def encrypt(self, plaintext: int, rng: random.Random) -> int:
        """``E(m) = g^m * h^r mod n`` for ``m`` in ``[0, u)``."""
        if not 0 <= plaintext < DGK_U:
            raise DgkError(f"plaintext {plaintext} outside [0, {DGK_U})")
        return pow(self.g, plaintext, self.n) * self.randomizer(rng) % self.n

    @property
    def ciphertext_width(self) -> int:
        """Bytes of one ciphertext on the wire: ``ceil(bits(n) / 8)``."""
        return (self.n.bit_length() + 7) // 8

    def check_width(self, values):
        """``values``, refused unless it is a ciphertext list sent at
        :attr:`ciphertext_width` (a ``FixedWidthList`` of
        :mod:`repro.net.serialization`)."""
        if getattr(values, "width", None) != self.ciphertext_width:
            raise DgkError(f"DGK ciphertexts not at the key's "
                           f"{self.ciphertext_width}-byte width")
        return values

    def check_ciphertexts(self, values) -> list[int]:
        """``values`` as a list, each checked to be an int in ``(0, n)``."""
        values = list(values)
        for value in values:
            if type(value) is not int or not 0 < value < self.n:
                raise DgkError("DGK ciphertext outside (0, n)")
        return values


@dataclass(frozen=True)
class DgkPrivateKey:
    """The factorization with the orders ``v_p`` and ``v_q``."""

    public_key: DgkPublicKey
    p: int
    q: int
    v_p: int
    v_q: int

    def zero_test_batch(self, ciphertext_values) -> list[bool]:
        """Whether each ciphertext encrypts a multiple of ``u``.

        ``c^(v_p) mod p == 1`` (module docstring).  Every value is
        range-checked first, then every value is tested, with no early
        exit, so the work does not depend on the answers.
        """
        values = self.public_key.check_ciphertexts(ciphertext_values)
        p, v_p = self.p, self.v_p
        return [pow(value, v_p, p) == 1 for value in values]


@dataclass(frozen=True)
class DgkKeyPair:
    public_key: DgkPublicKey
    private_key: DgkPrivateKey


def _structured_prime(bits: int, factor: int, rng: random.Random) -> int:
    """A prime ``p = 2 * factor * r + 1`` of exactly ``bits`` bits with
    its top two bits set, as :func:`~repro.crypto.primes.generate_prime`
    forces them, so that two such primes multiply to ``2 * bits``
    bits."""
    step = 2 * factor
    low = -(-((3 << (bits - 2)) - 1) // step)
    high = ((1 << bits) - 2) // step
    while True:
        candidate = step * rng.randrange(low, high + 1) + 1
        if is_probable_prime(candidate, rng):
            return candidate


def _element_of_order(prime: int, factors: tuple[int, ...],
                      rng: random.Random) -> int:
    """An element of ``Z_prime^*`` whose order is the product of the
    distinct primes ``factors`` (each of which divides ``prime - 1``)."""
    order = math.prod(factors)
    while True:
        element = pow(rng.randrange(2, prime - 1), (prime - 1) // order,
                      prime)
        if all(pow(element, order // factor, prime) != 1
               for factor in factors):
            return element


def generate_dgk_keypair(bits: int, rng: random.Random) -> DgkKeyPair:
    """A DGK keypair whose modulus has exactly ``bits`` bits.

    Raises :class:`DgkKeySizeError` below :data:`MIN_DGK_BITS`.
    """
    u, t, _ = dgk_parameters(bits)
    v_p = generate_prime(t, rng)
    v_q = generate_prime(t, rng)
    while v_q == v_p:
        v_q = generate_prime(t, rng)
    p = _structured_prime(bits - bits // 2, u * v_p, rng)
    q = _structured_prime(bits // 2, u * v_q, rng)
    while q == p:
        q = _structured_prime(bits // 2, u * v_q, rng)
    g = crt_pair(_element_of_order(p, (u, v_p), rng), p,
                 _element_of_order(q, (u, v_q), rng), q)
    h = crt_pair(_element_of_order(p, (v_p,), rng), p,
                 _element_of_order(q, (v_q,), rng), q)
    public = DgkPublicKey(n=p * q, g=g, h=h)
    return DgkKeyPair(public_key=public,
                      private_key=DgkPrivateKey(public_key=public, p=p, q=q,
                                                v_p=v_p, v_q=v_q))
