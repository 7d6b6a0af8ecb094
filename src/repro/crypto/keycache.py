"""Deterministic, memoized key generation for tests and benchmarks.

Key generation is by far the most expensive crypto operation; tests and
benchmarks that only care about protocol behaviour reuse keys through
this cache.  Keys are derived deterministically from ``(bits, seed)`` so
the cache never changes observable behaviour, only wall-clock time.

Production callers should generate keys directly via
:func:`repro.crypto.paillier.generate_paillier_keypair` with a
``random.Random`` seeded from ``secrets.randbits``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.crypto.dgk import DgkKeyPair, generate_dgk_keypair
from repro.crypto.paillier import PaillierKeyPair, generate_paillier_keypair
from repro.crypto.rsa import RsaKeyPair, generate_rsa_keypair


@lru_cache(maxsize=64)
def cached_paillier_keypair(bits: int, seed: int) -> PaillierKeyPair:
    """Deterministic Paillier keypair for ``(bits, seed)``."""
    return generate_paillier_keypair(bits, random.Random(("paillier", bits, seed).__repr__()))


@lru_cache(maxsize=64)
def cached_dgk_keypair(bits: int, seed: int) -> DgkKeyPair:
    """Deterministic DGK keypair for ``(bits, seed)``; sessions derive it
    at the same seeds as the Paillier keypair it travels with."""
    return generate_dgk_keypair(bits, random.Random(("dgk", bits, seed).__repr__()))


@lru_cache(maxsize=64)
def cached_rsa_keypair(bits: int, seed: int) -> RsaKeyPair:
    """Deterministic RSA keypair for ``(bits, seed)``."""
    return generate_rsa_keypair(bits, random.Random(("rsa", bits, seed).__repr__()))
