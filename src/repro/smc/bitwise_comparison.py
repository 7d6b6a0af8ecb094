"""DGK-style bitwise secure comparison over Paillier.

This is the large-domain substitute for YMPP (see DESIGN.md,
Substitutions).  YMPP transfers ``n0`` numbers per comparison, which is
infeasible when the compared values are fixed-point squared distances
living in a 2^40-sized domain; this protocol computes the identical
one-sided functionality with ``O(log n0)`` ciphertexts, following the
blueprint of Damgard-Geisler-Kroigaard (DGK 2007) instantiated on the
same Paillier cryptosystem the rest of the paper uses.

Functionality: the *key holder* has private ``x``, the *other party* has
private ``y``, both ``bits``-bit non-negative integers.  The key holder
learns whether ``x > y``; the other party learns nothing.

Protocol:

1. Key holder sends ``E(x_t)`` for each bit ``x_t`` (MSB first).
2. For each position ``t`` the other party homomorphically computes
   ``E(c_t)`` with ``c_t = x_t - y_t - 1 + 3 * w_t`` where
   ``w_t = sum_{s<t} (x_s XOR y_s)`` counts disagreeing higher bits;
   ``c_t = 0`` iff position ``t`` witnesses ``x > y`` (``x_t=1, y_t=0``,
   all higher bits equal).
3. The other party blinds each ``E(c_t)`` with a random multiplier,
   rerandomizes, shuffles, and returns the batch.
4. The key holder zero-tests every witness: some plaintext is 0  <=>
   ``x > y``.  It needs no plaintext, only zero-ness, which DGK's own
   cryptosystem decides with one exponentiation modulo a prime; here
   :meth:`~repro.crypto.engine.ModexpEngine.zero_test_batch` does the
   same with ``c^(p-1) mod p^2``, exact because a witness plaintext
   ``c_t * multiplier`` is smaller than ``p`` in absolute value
   (:func:`_witness_bound`).

What each role holds also makes steps 1-2 cheaper: the key holder's bit
encryptions draw from its owner pool (CRT factors, see
:mod:`repro.crypto.precompute`), and the other party's ``E(1 - x_t)``
negates by modular inverse (signed scalars, :mod:`repro.crypto.paillier`).

Amortized batches: :func:`dgk_greater_than_batch` compares one
key-holder value ``x`` against many other-party values ``y_1..y_k`` in a
single round-trip.  Step 1 runs **once** -- the key holder's bit
ciphertexts are shared by every comparison of the batch, which is sound
because they are semantically secure and carry no per-``y`` state --
while steps 2-3 run per ``y_i`` exactly as in the per-point protocol
(independent blinding multipliers, independent rerandomization, an
independent shuffle per point), and step 4 zero-tests all witness
batches in one engine sweep.  The predicate bits are bit-identical to ``k``
per-point runs; only the key holder's encryption count (``bits`` instead
of ``k * bits``) and the message count (2 instead of ``2k``) change.

Both forms run each party's steps only where it is hosted
(:attr:`~repro.net.party.Party.hosted`); a process that does not host
the key holder returns ``False`` placeholders for its predicate bits.
"""

from __future__ import annotations

from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.paillier import PaillierCiphertext, PaillierKeyPair
from repro.crypto.precompute import RandomnessPool
from repro.net.party import Party

# Blinding multipliers are drawn from [1, 2^_BLIND_BITS); they keep
# c_t * r_t nonzero mod n (|c_t| is tiny and n is cryptographic) while
# hiding the magnitude of nonzero c_t.  Step 4's zero test relies on the
# product staying below _witness_bound.
_BLIND_BITS = 40


class BitwiseComparisonError(ValueError):
    """Raised on out-of-domain inputs."""


def _check_domain(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise BitwiseComparisonError(f"{name}={value} outside [0, 2^{bits})")


def _bits_of(value: int, bits: int) -> list[int]:
    """``value``'s ``bits``-bit binary expansion, MSB first."""
    return [(value >> (bits - 1 - t)) & 1 for t in range(bits)]


def _witness_bound(bits: int) -> int:
    """Exclusive bound on ``|c_t * multiplier|`` for a ``bits``-wide
    comparison: ``-2 <= c_t <= 3 * (bits - 1)`` and
    ``multiplier < 2^_BLIND_BITS``."""
    return (3 * bits) << _BLIND_BITS


def _blinded_witnesses(public, received, complements, y_bits, rng,
                       pool) -> list[int]:
    """Steps 2-3 for one ``y``: blinded, shuffled witness ciphertexts.

    ``received`` are the key holder's bit ciphertexts (MSB first).
    ``complements`` maps a bit position to ``E(1 - x_t)``; positions are
    filled on first use and shared by every ``y`` of one call, since the
    negation (a modular inverse) does not depend on ``y``.  Runs
    the other party's RNG in exactly the per-point order (one multiplier
    and one rerandomization per bit, then one shuffle), so batched and
    per-point executions draw identical randomness for this half.
    """
    blinded: list[int] = []
    # running_w accumulates E(sum of XORs of strictly-higher bit positions).
    running_w = PaillierCiphertext(public, public.raw_encrypt_constant(0))
    for position, (enc_x_bit, y_bit) in enumerate(zip(received, y_bits)):
        # c_t = x_t - y_t - 1 + 3 * w_t, all under encryption.
        c = enc_x_bit + (-y_bit - 1) + running_w * 3
        multiplier = rng.randrange(1, 1 << _BLIND_BITS)
        masked = (c * multiplier).rerandomize(rng, pool)
        blinded.append(masked.value)
        # XOR under encryption: x ^ y = x when y=0, 1 - x when y=1.
        if y_bit == 0:
            xor_term = enc_x_bit
        else:
            xor_term = complements.get(position)
            if xor_term is None:
                xor_term = complements[position] = PaillierCiphertext(
                    public, public.raw_encrypt_constant(1)) - enc_x_bit
        running_w = running_w + xor_term
    rng.shuffle(blinded)
    return blinded


def dgk_greater_than(key_holder: Party, x: int, other: Party, y: int,
                     bits: int, keypair: PaillierKeyPair, *,
                     label: str = "dgk",
                     key_holder_pool: RandomnessPool | None = None,
                     other_pool: RandomnessPool | None = None,
                     engine: ModexpEngine | None = None) -> bool:
    """Decide ``x > y``; only ``key_holder`` (who owns ``keypair``) learns it.

    Args:
        key_holder: party holding ``x`` and the Paillier private key.
        x: key holder's value, in ``[0, 2^bits)``.
        other: party holding ``y``.
        y: other party's value, in ``[0, 2^bits)``.
        bits: public bit-width of the compared domain.
        keypair: key holder's Paillier keys; the public half is assumed
            already known to ``other`` (session exchanges it once).
        label: transcript label prefix.
        key_holder_pool / other_pool: optional pregenerated randomness
            for each party's encryptions under the key holder's key --
            the bit-encryption and blinding loops are the protocols'
            hottest powmod sites, and pools turn each into a mulmod.
        engine: optional :class:`~repro.crypto.engine.ModexpEngine`
            executing the bit-encryption batch and the witness zero
            test as sharded modexp jobs (bit-identical results; serial
            when omitted).
    """
    if bits < 1:
        raise BitwiseComparisonError(f"bits must be >= 1, got {bits}")
    _check_domain("x", x, bits)
    _check_domain("y", y, bits)

    public = keypair.public_key
    engine = engine or default_engine()

    # --- Step 1 (key holder): encrypt bits of x, MSB first. ---------------
    encrypted_bits = None
    if key_holder.hosted:
        encrypted_bits = [c.value for c in engine.encrypt_batch(
            public, _bits_of(x, bits), key_holder.rng, key_holder_pool)]
    key_holder.send(f"{label}/x_bits", encrypted_bits)

    # --- Steps 2-3 (other party): blinded witness ciphertexts. ------------
    blinded = None
    if other.hosted:
        received = [PaillierCiphertext(public, v)
                    for v in other.receive(f"{label}/x_bits")]
        blinded = _blinded_witnesses(public, received, {}, _bits_of(y, bits),
                                     other.rng, other_pool)
    other.send(f"{label}/witnesses", blinded)

    # --- Step 4 (key holder): zero-test every witness. ---------------------
    if not key_holder.hosted:
        return False
    witnesses = key_holder.receive(f"{label}/witnesses")
    return any(engine.zero_test_batch(keypair.private_key, witnesses,
                                      _witness_bound(bits)))


def dgk_greater_than_batch(key_holder: Party, x: int, other: Party,
                           ys: list[int], bits: int,
                           keypair: PaillierKeyPair, *,
                           label: str = "dgk",
                           key_holder_pool: RandomnessPool | None = None,
                           other_pool: RandomnessPool | None = None,
                           engine: ModexpEngine | None = None) -> list[bool]:
    """Decide ``x > y_i`` for every ``y_i``; only ``key_holder`` learns them.

    The amortized form of :func:`dgk_greater_than`: the key holder's bit
    ciphertexts are produced once and shared by every comparison, the
    other party evaluates one independently blinded and shuffled witness
    batch per ``y_i`` against them, and all witness batches travel (and
    are zero-tested) together.  One message in each direction regardless
    of ``len(ys)``; predicate bits identical to ``len(ys)`` per-point
    runs.
    """
    if bits < 1:
        raise BitwiseComparisonError(f"bits must be >= 1, got {bits}")
    _check_domain("x", x, bits)
    for y in ys:
        _check_domain("y", y, bits)
    if not ys:
        return []

    public = keypair.public_key
    engine = engine or default_engine()

    # --- Step 1 (key holder), once for the whole batch. --------------------
    encrypted_bits = None
    if key_holder.hosted:
        encrypted_bits = [c.value for c in engine.encrypt_batch(
            public, _bits_of(x, bits), key_holder.rng, key_holder_pool)]
    key_holder.send(f"{label}/x_bits", encrypted_bits)

    # --- Steps 2-3 (other party), per y, against the shared bits. ----------
    batches = None
    if other.hosted:
        received = [PaillierCiphertext(public, v)
                    for v in other.receive(f"{label}/x_bits")]
        complements: dict[int, PaillierCiphertext] = {}
        batches = [_blinded_witnesses(public, received, complements,
                                      _bits_of(y, bits), other.rng,
                                      other_pool)
                   for y in ys]
    other.send(f"{label}/witnesses", batches)

    # --- Step 4 (key holder): one zero-test sweep over every batch. --------
    if not key_holder.hosted:
        return [False] * len(ys)
    witness_batches = key_holder.receive(f"{label}/witnesses")
    flat = [value for batch in witness_batches for value in batch]
    zeros = engine.zero_test_batch(keypair.private_key, flat,
                                   _witness_bound(bits))
    return [any(zeros[index * bits:(index + 1) * bits])
            for index in range(len(witness_batches))]
