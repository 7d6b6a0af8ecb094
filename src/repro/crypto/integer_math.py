"""Modular integer arithmetic primitives.

These are the number-theoretic building blocks for the Paillier
cryptosystem (Section 3.7 of the paper) and textbook RSA (used inside
Yao's Millionaires' Problem Protocol, Section 3.8).  Everything here is
deterministic pure-integer math; randomized routines live in
:mod:`repro.crypto.primes`.
"""

from __future__ import annotations

import math
import threading


_powers_lock = threading.Lock()
_powers = 0


def counted_pow(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, counted for
    :func:`powmod_cache_report`.

    The homomorphic scalar powers ``E(m)^k`` come here.  Their exponents
    are not public -- ``k`` is the masker's private coordinate, or a
    packed reply's column of them
    (:class:`~repro.smc.scalar_product.PackedLayout`) -- so nothing of a
    call is kept: only the count of powers computed.  Decryption,
    randomness factors and the DGK comparison use plain ``pow`` or their
    keys' tables and are not counted.
    """
    global _powers
    with _powers_lock:
        _powers += 1
    return pow(base, exponent, modulus)


def powmod_cache_report() -> dict[str, int]:
    """The power accounting of :func:`counted_pow`, in the shape the
    daemon's ``repro_powmod_cache`` gauges and the benchmark read:
    ``misses`` counts the powers computed since the process started;
    ``hits``, ``size``, ``maxsize`` and ``evictions`` are 0, because no
    power is kept."""
    return {"hits": 0, "misses": _powers, "size": 0, "maxsize": 0,
            "evictions": 0}


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
