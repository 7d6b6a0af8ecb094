"""Sealed key halves: public-only key objects for remote parties.

The mirrored choreography (:mod:`repro.runtime.mirror`) runs in every
party process, but each process executes only the party it hosts: a
remote party's steps -- its decrypts included -- are skipped, and its
sends are replaced by the authentic frames from the wire.  A process
that derived every party's full keypair from the manifest ``key_seed``
would still hold usable private keys it has no business holding, there
for a compromised process to take.

This module makes key ownership *structural*.  A remote party's context
carries a :class:`SealedPaillierPrivateKey` and a
:class:`SealedDgkPrivateKey`: objects with the public half and an
owner tag but **no secret fields at all** -- there is nothing to steal
-- and every decrypt/sign entry point (the DGK zero test included)
raises :class:`PublicOnlyKeyError`, as does the engine's batch decrypt
(:meth:`repro.crypto.engine.ModexpEngine.decrypt_raw_batch`).  No
hosted step decrypts or zero-tests under a peer's key, so there is no
sanctioned exception: reaching a sealed key's secret is a missing
hosted guard.

Public keys for sealed contexts are captured from the authentic wire
exchange at session start and cross-checked against the manifest's
per-party public-key digests (:func:`public_key_digest`, one digest
over a party's Paillier and DGK public keys), so a party never trusts a
peer key it cannot verify against the run's trusted setup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.dgk import DgkKeyPair, DgkPublicKey
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPublicKey,
)


class PublicOnlyKeyError(RuntimeError):
    """A decrypt/sign was attempted on a sealed (public-only) key.

    Raised by every secret-consuming method of the sealed key classes
    and by the engine's batch decrypt.  Reaching this
    error means a code path tried to use a remote party's private key
    -- always a bug in the choreography (a step block missing its
    hosted guard) or a privacy violation, never recoverable.
    """

    def __init__(self, owner: str, operation: str):
        super().__init__(
            f"{operation} attempted on the sealed private key of "
            f"{owner!r}: this process holds only the public half "
            f"(private keys never leave their owner's process)")
        self.owner = owner
        self.operation = operation


@dataclass(frozen=True)
class SealedPaillierPrivateKey:
    """The shape of a Paillier private key with no secrets inside.

    Stands in for a remote party's :class:`PaillierPrivateKey` in the
    mirrored choreography.  It carries only the public key and the
    owning party's name; ``lam``/``mu``/``p``/``q`` do not exist as
    attributes, and every decrypt method raises
    :class:`PublicOnlyKeyError`.  The ``sealed`` flag is what
    :func:`is_sealed` tests for.
    """

    public_key: PaillierPublicKey
    owner: str
    sealed = True

    def decrypt_raw(self, ciphertext_value: int) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt_raw")

    def decrypt_raw_standard(self, ciphertext_value: int) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt_raw_standard")

    def decrypt(self, ciphertext) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt")

    def decrypt_raw_batch(self, ciphertext_values: list[int]) -> list[int]:
        raise PublicOnlyKeyError(self.owner, "decrypt_raw_batch")

    def decrypt_batch(self, ciphertexts: list) -> list[int]:
        raise PublicOnlyKeyError(self.owner, "decrypt_batch")

    def decrypt_signed(self, ciphertext) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt_signed")


@dataclass(frozen=True)
class SealedDgkPrivateKey:
    """Public-only stand-in for a remote party's DGK private key: the
    factorization and ``v_p``/``v_q`` do not exist as attributes, and
    the zero test raises :class:`PublicOnlyKeyError`."""

    public_key: DgkPublicKey
    owner: str
    sealed = True

    def zero_test_batch(self, ciphertext_values) -> list[bool]:
        raise PublicOnlyKeyError(self.owner, "zero_test_batch")


def is_sealed(private_key) -> bool:
    """True when ``private_key`` is a public-only sealed stand-in."""
    return bool(getattr(private_key, "sealed", False))


def seal_paillier_keypair(public_key: PaillierPublicKey,
                          owner: str) -> PaillierKeyPair:
    """A keypair whose private half is sealed -- usable for encryption
    and homomorphic arithmetic, never for decryption."""
    return PaillierKeyPair(
        public_key=public_key,
        private_key=SealedPaillierPrivateKey(public_key=public_key,
                                             owner=owner))


def seal_dgk_keypair(public_key: DgkPublicKey, owner: str) -> DgkKeyPair:
    """A DGK keypair usable for encryption and homomorphic arithmetic,
    never for the zero test."""
    return DgkKeyPair(
        public_key=public_key,
        private_key=SealedDgkPrivateKey(public_key=public_key, owner=owner))


def public_key_digest(paillier: PaillierPublicKey,
                      dgk: DgkPublicKey | None = None) -> str:
    """Canonical SHA-256 digest of a party's public keys.

    The manifest pins each party's expected public keys with this digest
    (computed by the orchestrator's trusted setup); sessions cross-check
    the wire-captured peer keys against it before trusting a ciphertext.
    Without a DGK key (the ``ympp`` and ``oracle`` comparisons derive
    none) the digest covers the Paillier key alone.
    """
    material = f"paillier|{paillier.n}|{paillier.g}"
    if dgk is not None:
        material += f"|dgk|{dgk.n}|{dgk.g}|{dgk.h}"
    return hashlib.sha256(material.encode()).hexdigest()
