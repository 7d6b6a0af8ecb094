"""Cryptographic substrate built from scratch for the reproduction.

Implements everything Section 3.7/3.8 of the paper depends on:

- :mod:`repro.crypto.integer_math` -- modular arithmetic primitives.
- :mod:`repro.crypto.primes` -- Miller-Rabin prime generation.
- :mod:`repro.crypto.paillier` -- Paillier's additive homomorphic
  cryptosystem (Section 3.7), used by the Multiplication Protocol.
- :mod:`repro.crypto.rsa` -- textbook RSA, the trapdoor permutation
  plugged into Yao's Millionaires' Problem Protocol (Section 3.8).
- :mod:`repro.crypto.dgk` -- DGK's cryptosystem, on which the bitwise
  secure comparison (the large-domain substitute for YMPP) runs.
- :mod:`repro.crypto.encoding` -- signed/fixed-point encodings bridging
  real-valued records and the integer plaintext spaces.
- :mod:`repro.crypto.precompute` -- offline randomness pools and fixed
  bases (the offline/online split).
- :mod:`repro.crypto.engine` -- the parallel modexp engine executing
  pool refills and batch encrypt/decrypt as sharded worker jobs.
"""

from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.precompute import RandomnessPool
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.rsa import RsaKeyPair, generate_rsa_keypair
from repro.crypto.encoding import FixedPointEncoder, SignedEncoder

__all__ = [
    "ModexpEngine",
    "default_engine",
    "RandomnessPool",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_paillier_keypair",
    "RsaKeyPair",
    "generate_rsa_keypair",
    "FixedPointEncoder",
    "SignedEncoder",
]
