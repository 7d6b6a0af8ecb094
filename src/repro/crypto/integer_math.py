"""Modular integer arithmetic primitives.

These are the number-theoretic building blocks for the Paillier
cryptosystem (Section 3.7 of the paper) and textbook RSA (used inside
Yao's Millionaires' Problem Protocol, Section 3.8).  Everything here is
deterministic pure-integer math; randomized routines live in
:mod:`repro.crypto.primes`.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=1 << 16)
def cached_pow(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` behind a bounded memo.

    A daemon query runs once, so within a session nothing repeats
    these arguments and the memo saves no work; it stays because the
    benchmark reads its report (:func:`powmod_cache_report`).  The
    function is pure, so memoization cannot change any result,
    transcript, or ledger.

    The memo lives as long as the process (a daemon's whole lifetime),
    so every kernel keyed by the factorization -- decryption above all
    -- uses plain ``pow`` instead.  Paillier randomness factors do not
    pass through it either: a factor is one mulmod per six exponent bits
    from its key's table (:mod:`repro.crypto.paillier`), so the memo
    holds no entry per factor.  Nothing of the DGK comparison
    (:mod:`repro.crypto.dgk`) enters it.  What remains are the
    homomorphic scalar powers ``E(m)^k`` -- and their exponents are not
    public: ``k`` is the masker's private coordinate, or a packed reply's
    column of them (:class:`~repro.smc.scalar_product.PackedLayout`),
    and the cached HDP's Horner shifts key an entry by a reply being
    built.  So each entry keeps a party's private values for the
    process's lifetime, up to ``maxsize`` entries; deleting the memo
    (ROADMAP direction 1) ends that retention.
    """
    return pow(base, exponent, modulus)


def powmod_cache_report() -> dict[str, int]:
    """Hit/miss/eviction accounting for the :func:`cached_pow` memo.

    ``evictions`` is derived: every miss inserts one entry, so entries
    beyond ``currsize`` were pushed out by the LRU bound.  Feeds the
    daemon's metrics collector and the ``repro stats`` summary.
    """
    info = cached_pow.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "maxsize": info.maxsize or 0,
        "evictions": max(0, info.misses - info.currsize),
    }


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.
    Iterative to avoid recursion limits on cryptographic-size integers.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def mod_inverse(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus``.

    Raises:
        ValueError: if ``a`` is not invertible (``gcd(a, modulus) != 1``)
            or the modulus is not positive.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def lcm(a: int, b: int) -> int:
    """Least common multiple; ``lambda = lcm(p-1, q-1)`` in Paillier keygen."""
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // math.gcd(a, b)


def crt_pair(residue_p: int, p: int, residue_q: int, q: int,
             inv_p_mod_q: int | None = None) -> int:
    """Chinese Remainder Theorem for two coprime moduli.

    Returns the unique ``x`` in ``[0, p*q)`` with ``x = residue_p (mod p)``
    and ``x = residue_q (mod q)``.  Used by the CRT-accelerated Paillier
    paths, which pass the key's cached ``p^-1 mod q`` as ``inv_p_mod_q``
    instead of paying an extended Euclid per call.
    """
    if inv_p_mod_q is None:
        g, inv_p_mod_q, _ = egcd(p, q)
        if g != 1:
            raise ValueError(f"moduli must be coprime, gcd({p}, {q}) = {g}")
    diff = (residue_q - residue_p) % q
    return (residue_p + p * ((diff * inv_p_mod_q) % q)) % (p * q)


def int_bit_length_bytes(value: int) -> int:
    """Number of bytes needed to store ``value`` (minimum one byte).

    The accounting channel uses this to charge protocols for the exact
    serialized size of each transmitted integer.
    """
    if value < 0:
        value = -value
    return max(1, (value.bit_length() + 7) // 8)


def isqrt_exact(value: int) -> int | None:
    """Integer square root if ``value`` is a perfect square, else ``None``."""
    if value < 0:
        return None
    root = math.isqrt(value)
    return root if root * root == value else None
