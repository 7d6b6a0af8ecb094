"""DGK bitwise secure comparison on DGK's own cryptosystem.

This is the large-domain substitute for YMPP (see DESIGN.md,
Substitutions).  YMPP transfers ``n0`` numbers per comparison, which is
infeasible when the compared values are fixed-point squared distances
living in a 2^40-sized domain; this protocol computes the identical
one-sided functionality with ``O(log n0)`` ciphertexts, following
Damgard-Geisler-Kroigaard (DGK 2007) on their cryptosystem
(:mod:`repro.crypto.dgk`): ciphertexts mod ``n`` over the plaintext
space ``Z_u``.

Functionality: the *key holder* has private ``x``, the *other party* has
private ``y``, both ``bits``-bit non-negative integers.  The key holder
learns whether ``x > y``; the other party learns nothing.

Protocol:

1. Key holder sends ``E(x_t)`` for each bit ``x_t`` (MSB first).
2. For each position ``t`` the other party homomorphically computes
   ``E(c_t)`` with ``c_t = x_t - y_t - 1 + 3 * w_t`` where
   ``w_t = sum_{s<t} (x_s XOR y_s)`` counts disagreeing higher bits;
   ``c_t = 0`` iff position ``t`` witnesses ``x > y`` (``x_t=1, y_t=0``,
   all higher bits equal).  In ciphertexts:
   ``E(c_t) = E(x_t) * g^(-y_t-1) * W_t^3 mod n`` with ``W_t`` the
   product of the ``E(x_s XOR y_s)``, and ``E(1 - x_t) = g * E(x_t)^-1``.
3. The other party raises each ``E(c_t)`` to a multiplier drawn
   uniformly from ``[1, u)``, rerandomizes it by ``h^r``, shuffles, and
   returns the batch.
4. The key holder zero-tests every witness
   (:meth:`~repro.crypto.dgk.DgkPrivateKey.zero_test_batch`): some
   plaintext is 0  <=>  ``x > y``.  Witnesses lie in ``[-2, 3(bits-1)]``,
   so with ``3 * bits < u`` a witness is 0 mod ``u`` only when it is 0,
   and a nonzero witness times a uniform multiplier is uniform in
   ``Z_u^*``.

The comparison draws no Paillier pool factors and runs no engine jobs:
its work is a table lookup and a short power per ciphertext.

Amortized batches: :func:`dgk_greater_than_batch` compares one
key-holder value ``x`` against many other-party values ``y_1..y_k`` in a
single round-trip.  Step 1 runs **once** -- the key holder's bit
ciphertexts are shared by every comparison of the batch, which is sound
because they are semantically secure and carry no per-``y`` state --
while steps 2-3 run per ``y_i`` exactly as in the per-point protocol
(independent blinding multipliers, independent rerandomization, an
independent shuffle per point), and step 4 zero-tests all witness
batches in one sweep.  The predicate bits are bit-identical to ``k``
per-point runs; only the key holder's encryption count (``bits`` instead
of ``k * bits``) and the message count (2 instead of ``2k``) change.

Both forms run each party's steps only where it is hosted
(:attr:`~repro.net.party.Party.hosted`); a process that does not host
the key holder returns ``False`` placeholders for its predicate bits.
"""

from __future__ import annotations

from repro.crypto.dgk import DGK_U, DgkKeyPair, DgkPublicKey
from repro.net.party import Party


class BitwiseComparisonError(ValueError):
    """Raised on out-of-domain inputs or widths DGK's ``u`` cannot hold."""


def _check_width(bits: int) -> None:
    if bits < 1:
        raise BitwiseComparisonError(f"bits must be >= 1, got {bits}")
    if 3 * bits >= DGK_U:
        raise BitwiseComparisonError(
            f"a {bits}-bit comparison needs 3 * bits < u = {DGK_U}")


def _check_domain(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise BitwiseComparisonError(f"{name}={value} outside [0, 2^{bits})")


def _bits_of(value: int, bits: int) -> list[int]:
    """``value``'s ``bits``-bit binary expansion, MSB first."""
    return [(value >> (bits - 1 - t)) & 1 for t in range(bits)]


def _encrypted_bits(public: DgkPublicKey, x: int, bits: int, rng) -> list[int]:
    """Step 1: ``E(x_t)``, MSB first."""
    return [public.encrypt(bit, rng) for bit in _bits_of(x, bits)]


def _checked_batch(public: DgkPublicKey, values, bits: int,
                   what: str) -> list[int]:
    """A received batch of ``bits`` ciphertexts, range-checked."""
    values = public.check_ciphertexts(values)
    if len(values) != bits:
        raise BitwiseComparisonError(
            f"expected {bits} {what}, received {len(values)}")
    return values


def _blinded_witnesses(public: DgkPublicKey, received: list[int],
                       complements: dict[int, int], y_bits: list[int],
                       rng) -> list[int]:
    """Steps 2-3 for one ``y``: blinded, shuffled witness ciphertexts.

    ``received`` are the key holder's bit ciphertexts (MSB first).
    ``complements`` maps a bit position to ``E(1 - x_t)``; positions are
    filled on first use and shared by every ``y`` of one call, since the
    negation (a modular inverse) does not depend on ``y``.  Runs the
    other party's RNG in exactly the per-point order (one multiplier and
    one rerandomization per bit, then one shuffle), so batched and
    per-point executions draw identical randomness for this half.
    """
    n, g = public.n, public.g
    g_inverse = pow(g, -1, n)
    # g^(-y_t - 1) for y_t = 0 and y_t = 1.
    shifts = (g_inverse, g_inverse * g_inverse % n)
    blinded: list[int] = []
    # running_w encrypts the XORs of strictly-higher bit positions.
    running_w = 1
    for position, (enc_x_bit, y_bit) in enumerate(zip(received, y_bits)):
        c = enc_x_bit * shifts[y_bit] % n * pow(running_w, 3, n) % n
        multiplier = rng.randrange(1, DGK_U)
        blinded.append(pow(c, multiplier, n) * public.randomizer(rng) % n)
        # XOR under encryption: x ^ y = x when y=0, 1 - x when y=1.
        if y_bit == 0:
            xor_term = enc_x_bit
        else:
            xor_term = complements.get(position)
            if xor_term is None:
                xor_term = complements[position] = (
                    g * pow(enc_x_bit, -1, n) % n)
        running_w = running_w * xor_term % n
    rng.shuffle(blinded)
    return blinded


def dgk_greater_than(key_holder: Party, x: int, other: Party, y: int,
                     bits: int, keypair: DgkKeyPair, *,
                     label: str = "dgk") -> bool:
    """Decide ``x > y``; only ``key_holder`` (who owns ``keypair``) learns it.

    Args:
        key_holder: party holding ``x`` and the DGK private key.
        x: key holder's value, in ``[0, 2^bits)``.
        other: party holding ``y``.
        y: other party's value, in ``[0, 2^bits)``.
        bits: public bit-width of the compared domain; ``3 * bits`` must
            stay below DGK's ``u``.
        keypair: key holder's DGK keys; the public half is assumed
            already known to ``other`` (the session exchanges it once).
        label: transcript label prefix.
    """
    _check_width(bits)
    _check_domain("x", x, bits)
    _check_domain("y", y, bits)
    public = keypair.public_key

    # --- Step 1 (key holder): encrypt bits of x, MSB first. ---------------
    encrypted_bits = None
    if key_holder.hosted:
        encrypted_bits = _encrypted_bits(public, x, bits, key_holder.rng)
    key_holder.send(f"{label}/x_bits", encrypted_bits)

    # --- Steps 2-3 (other party): blinded witness ciphertexts. ------------
    blinded = None
    if other.hosted:
        received = _checked_batch(public, other.receive(f"{label}/x_bits"),
                                  bits, "bit ciphertexts")
        blinded = _blinded_witnesses(public, received, {}, _bits_of(y, bits),
                                     other.rng)
    other.send(f"{label}/witnesses", blinded)

    # --- Step 4 (key holder): zero-test every witness. ---------------------
    if not key_holder.hosted:
        return False
    witnesses = _checked_batch(
        public, key_holder.receive(f"{label}/witnesses"), bits, "witnesses")
    return any(keypair.private_key.zero_test_batch(witnesses))


def dgk_greater_than_batch(key_holder: Party, x: int, other: Party,
                           ys: list[int], bits: int, keypair: DgkKeyPair, *,
                           label: str = "dgk") -> list[bool]:
    """Decide ``x > y_i`` for every ``y_i``; only ``key_holder`` learns them.

    The amortized form of :func:`dgk_greater_than`: the key holder's bit
    ciphertexts are produced once and shared by every comparison, the
    other party evaluates one independently blinded and shuffled witness
    batch per ``y_i`` against them, and all witness batches travel (and
    are zero-tested) together.  One message in each direction regardless
    of ``len(ys)``; predicate bits identical to ``len(ys)`` per-point
    runs.
    """
    _check_width(bits)
    _check_domain("x", x, bits)
    for y in ys:
        _check_domain("y", y, bits)
    if not ys:
        return []
    public = keypair.public_key

    # --- Step 1 (key holder), once for the whole batch. --------------------
    encrypted_bits = None
    if key_holder.hosted:
        encrypted_bits = _encrypted_bits(public, x, bits, key_holder.rng)
    key_holder.send(f"{label}/x_bits", encrypted_bits)

    # --- Steps 2-3 (other party), per y, against the shared bits. ----------
    batches = None
    if other.hosted:
        received = _checked_batch(public, other.receive(f"{label}/x_bits"),
                                  bits, "bit ciphertexts")
        complements: dict[int, int] = {}
        batches = [_blinded_witnesses(public, received, complements,
                                      _bits_of(y, bits), other.rng)
                   for y in ys]
    other.send(f"{label}/witnesses", batches)

    # --- Step 4 (key holder): one zero-test sweep over every batch. --------
    if not key_holder.hosted:
        return [False] * len(ys)
    witness_batches = key_holder.receive(f"{label}/witnesses")
    if len(witness_batches) != len(ys):
        raise BitwiseComparisonError(
            f"expected {len(ys)} witness batches, received "
            f"{len(witness_batches)}")
    flat = [value for batch in witness_batches
            for value in _checked_batch(public, batch, bits, "witnesses")]
    zeros = keypair.private_key.zero_test_batch(flat)
    return [any(zeros[index * bits:(index + 1) * bits])
            for index in range(len(ys))]
