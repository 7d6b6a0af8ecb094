"""The paper's Multiplication Protocol (Section 4.1, Algorithm 2).

Functionality: the *receiver* ("Alice" in Algorithm 2) has private ``x``;
the *masker* ("Bob") has private ``y`` and chooses a private mask ``v``.
The receiver obtains ``u = x*y + v`` and nothing else; the masker obtains
nothing.  Correctness is the homomorphic identity

    D( E(x)^y * E(v) )  =  x*y + v   (mod n)

All values are signed integers carried through the half-range encoding;
overflow past ``n/2`` raises instead of silently wrapping.

Two fidelity modes:

- default: every encryption uses fresh private randomness (standard
  Paillier usage, semantically secure).
- ``faithful_shared_r=True``: reproduces Algorithm 2 literally, where
  step 2 has the parties "collaborate to select a random r" that is then
  *sent to the masker* along with ``E(x; r)``.  Sharing the encryption
  randomness lets the masker strip ``r^n`` and recover ``g^x``, enabling
  a brute-force of small plaintext domains -- a write-up defect the
  DESIGN.md documents.  The mode exists so the leakage experiment (E7)
  can demonstrate the defect; nothing else uses it.
"""

from __future__ import annotations

from repro.crypto.encoding import SignedEncoder
from repro.crypto.paillier import PaillierCiphertext, PaillierKeyPair
from repro.crypto.precompute import RandomnessPool
from repro.net.party import Party


class MultiplicationError(ValueError):
    """Raised when operands would overflow the plaintext space."""


def secure_multiplication(receiver: Party, x: int, masker: Party, y: int,
                          mask: int, keypair: PaillierKeyPair, *,
                          label: str = "mult",
                          faithful_shared_r: bool = False,
                          receiver_pool: RandomnessPool | None = None,
                          masker_pool: RandomnessPool | None = None) -> int:
    """Run Algorithm 2; returns ``x*y + mask`` as learned by ``receiver``.

    Args:
        receiver: Algorithm 2's Alice -- holds ``x``, owns ``keypair``,
            obtains the result.
        x: receiver's private operand (signed).
        masker: Algorithm 2's Bob -- holds ``y`` and ``mask``.
        y: masker's private operand (signed).
        mask: masker's private mask ``v`` (signed).
        keypair: receiver's Paillier keys; public half already known to
            the masker (the session sends it once).
        label: transcript label prefix.
        faithful_shared_r: reproduce the paper's shared-randomness step
            literally (see module docstring).  This mode encrypts under
            an explicitly agreed ``r``, so pools never apply to it.
        receiver_pool / masker_pool: optional pregenerated randomness
            for the default mode's encryptions under the receiver's key.
    """
    public = keypair.public_key
    encoder = SignedEncoder(public.n)
    # The result x*y + mask must also fit the signed range; validate the
    # inputs' worst case up front so failures point at the real cause.
    if abs(x) * abs(y) + abs(mask) > encoder.half_range:
        raise MultiplicationError(
            f"|x*y + mask| can reach {abs(x) * abs(y) + abs(mask)}, beyond "
            f"the +/-{encoder.half_range} plaintext capacity; use larger keys"
        )

    # --- Steps 1-3 (receiver): send E(x) [, r]. ---------------------------
    if faithful_shared_r:
        shared_r = public.random_unit(receiver.rng)
        ciphertext = public.raw_encrypt(encoder.encode(x), shared_r)
        receiver.send(f"{label}/encrypted_x", ciphertext)
        receiver.send(f"{label}/shared_r", shared_r)
    else:
        ciphertext = public.encrypt(encoder.encode(x), receiver.rng,
                                    receiver_pool).value
        receiver.send(f"{label}/encrypted_x", ciphertext)

    # --- Steps 4-6 (masker): u' = E(x)^y * E(v). --------------------------
    received = PaillierCiphertext(public, masker.receive(f"{label}/encrypted_x"))
    if faithful_shared_r:
        r_value = masker.receive(f"{label}/shared_r")
        product = received * encoder.encode(y)
        masked_value = (
            product.value * public.raw_encrypt(encoder.encode(mask), r_value)
        ) % public.n_squared
        masker.send(f"{label}/masked_product", masked_value)
    else:
        product = received * encoder.encode(y)
        masked = product + public.encrypt(encoder.encode(mask),
                                          masker.rng, masker_pool)
        masker.send(f"{label}/masked_product",
                    masked.rerandomize(masker.rng, masker_pool).value)

    # --- Step 7 (receiver): decrypt. ---------------------------------------
    result_cipher = PaillierCiphertext(
        public, receiver.receive(f"{label}/masked_product"))
    return encoder.decode(keypair.private_key.decrypt(result_cipher))
