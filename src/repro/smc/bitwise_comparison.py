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
   Each call inverts every ``E(x_t)`` with one modular inverse
   (Montgomery's batch inversion), whatever the ``y`` bits, so a bit
   ciphertext that is not a unit mod ``n`` fails the same way for every
   ``y``; ``g^-1`` and ``g^-2`` are computed once per key.
3. The other party raises each ``E(c_t)`` to a multiplier drawn
   uniformly from ``[1, u)``, rerandomizes it by ``h^r``, shuffles, and
   returns the batch.
4. The key holder zero-tests every witness
   (:meth:`~repro.crypto.dgk.DgkPrivateKey.zero_test_batch`): some
   plaintext is 0  <=>  ``x > y``.  Witnesses lie in ``[-2, 3(bits-1)]``,
   so with ``3 * bits < u`` a witness is 0 mod ``u`` only when it is 0,
   and a nonzero witness times a uniform multiplier is uniform in
   ``Z_u^*``.

The comparison draws no Paillier factors and runs no engine jobs:
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

Pairwise batches: :func:`dgk_greater_than_pairwise` runs many
independent comparisons -- each pair its own key-holder value, bit
ciphertexts and two messages -- phase by phase, so they share one
round-trip instead of taking one each.  Messages, bytes and each
party's coin draws equal a loop of :func:`dgk_greater_than`; only the
message order changes.

Gap batches: a :class:`GapLane` decides ``x_i <= y_i`` pairwise
under a public promise ``|x_i - y_i| <= gap``, on ``bits(gap) + 1``
positions whatever the values' range.  With ``l = bits(gap)``,
``z = y - x + 2^l`` lies in ``(0, 2^(l+1))``, so ``x <= y`` is bit ``l``
of ``z``.  The key holder holds ``A = (2^l - x) mod 2^(l+1)``, the other
party ``B = y mod 2^(l+1)``; bit ``l`` of ``z = A + B mod 2^(l+1)`` is
``A_l XOR B_l XOR c``, ``c`` the carry ``[A' + B' >= 2^l]`` out of the
low ``l`` bits ``A'``, ``B'``.  The key holder sends ``E`` of ``A'``'s
``l`` bits; the other party appends the trivial ``E(0) = 1`` for the
low bit of ``2A'`` and witnesses ``c = [2A' > 2(2^l - 1 - B')]`` when
``B_l = 0``, or -- reading the complements ``E(1 - x_t)`` as the key
holder's bits, which encrypt ``2(2^l - 1 - A') + 1`` -- ``not c =
[2(2^l - 1 - A') + 1 > 2B']`` when ``B_l = 1``.  The zero test gives
``c XOR B_l``, and the key holder outputs ``A_l XOR (c XOR B_l)``.  So
its view is one witness list holding a zero exactly when
``result XOR A_l``: a function of its output and its own input.

Lanes: :func:`dgk_leq_within_gap_lanes` runs several gap batches -- each
a :class:`GapLane` with its own key holder, other party, keys, gap and
label -- phase by phase across the lanes: every lane's ``x_bits``, then
every lane's ``witnesses``, then every lane's zero tests.  Each lane
keeps its messages, labels, coins and bits; only the order changes.
With one lane in each direction (the two passes of the Section 5
protocol) the senders run ``K1 | K2 O1 | O2``, so both lanes take the
three flights of one, and a next step's first request rides the last.

Every form runs each party's steps only where it is hosted
(:attr:`~repro.net.party.Party.hosted`); a process that does not host
the key holder returns ``False`` placeholders for its predicate bits.

Bit ciphertexts and witnesses travel as fixed-width lists
(:class:`~repro.net.serialization.FixedWidthList`) at the DGK key's
width, and a receiver refuses a batch sent at any other width.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.dgk import DGK_U, DgkKeyPair, DgkPublicKey
from repro.crypto.sealed import is_sealed
from repro.net.party import Party
from repro.net.serialization import FixedWidthList


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


def _encrypted_bits(keypair: DgkKeyPair, x: int, bits: int,
                    rng) -> FixedWidthList:
    """Step 1: ``E(x_t)``, MSB first, at the key's width.

    The key holder encrypts through its own primes, in one batch
    (:meth:`~repro.crypto.dgk.DgkPrivateKey.encrypt_batch`): the same
    ciphertexts from the same draws, by CRT.  A sealed key -- this
    process does not hold the key -- takes the public path."""
    public = keypair.public_key
    x_bits = _bits_of(x, bits)
    if is_sealed(keypair.private_key):
        encrypted = [public.encrypt(bit, rng) for bit in x_bits]
    else:
        encrypted = keypair.private_key.encrypt_batch(x_bits, rng)
    return FixedWidthList(encrypted, public.ciphertext_width)


def _checked_batch(public: DgkPublicKey, values, bits: int,
                   what: str) -> list[int]:
    """A received batch of ``bits`` ciphertexts, range-checked, counted,
    and refused unless it was sent at the key's width."""
    checked = public.check_ciphertexts(values)
    if len(checked) != bits:
        raise BitwiseComparisonError(
            f"expected {bits} {what}, received {len(checked)}")
    public.check_width(values)
    return checked


@lru_cache(maxsize=16)
def _shifts(g: int, n: int) -> tuple[int, int]:
    """``g^(-y_t - 1)`` for ``y_t = 0`` and ``y_t = 1`` under one key."""
    g_inverse = pow(g, -1, n)
    return g_inverse, g_inverse * g_inverse % n


def _complements(public: DgkPublicKey, received: list[int]) -> list[int]:
    """``E(1 - x_t) = g * E(x_t)^-1`` for every bit position, from one
    modular inverse (Montgomery's batch inversion).

    Every position is inverted, not only those where some ``y`` has a
    1 bit, so a non-unit bit ciphertext raises whatever the peer's bits
    are.
    """
    n, g = public.n, public.g
    prefix = [1]  # prefix[t]: the product of the first t ciphertexts
    for value in received:
        prefix.append(prefix[-1] * value % n)
    try:
        inverse = pow(prefix[-1], -1, n)
    except ValueError:
        raise BitwiseComparisonError(
            "a bit ciphertext is not a unit mod n") from None
    complements = [0] * len(received)
    for position in range(len(received) - 1, -1, -1):
        # Here inverse is prefix[position + 1]^-1.
        complements[position] = g * (inverse * prefix[position] % n) % n
        inverse = inverse * received[position] % n
    return complements


def _blinded_witnesses(public: DgkPublicKey, received: list[int],
                       complements: list[int], y_bits: list[int],
                       rng) -> FixedWidthList:
    """Steps 2-3 for one ``y``: blinded, shuffled witness ciphertexts,
    at the key's width.

    ``received`` are the key holder's bit ciphertexts (MSB first) and
    ``complements`` their ``E(1 - x_t)``, shared by every ``y`` of one
    call.  Runs the other party's RNG in exactly the per-point order
    (one multiplier and one rerandomization per bit, then one shuffle),
    so batched and per-point executions draw identical randomness for
    this half.  The shifts, the ``h^r`` table and its exponent width are
    looked up once per call.
    """
    n = public.n
    shifts = _shifts(public.g, n)
    table = public.randomizer_table
    randomizer, r_bits = table.pow, table.max_bits
    draw_multiplier, draw_r = rng.randrange, rng.getrandbits
    blinded: list[int] = []
    # running_w encrypts the XORs of strictly-higher bit positions.
    running_w = 1
    for enc_x_bit, complement, y_bit in zip(received, complements, y_bits):
        c = enc_x_bit * shifts[y_bit] % n * pow(running_w, 3, n) % n
        multiplier = draw_multiplier(1, DGK_U)
        blinded.append(pow(c, multiplier, n) * randomizer(draw_r(r_bits))
                       % n)
        # XOR under encryption: x ^ y = x when y=0, 1 - x when y=1.
        running_w = running_w * (complement if y_bit else enc_x_bit) % n
    rng.shuffle(blinded)
    return FixedWidthList(blinded, public.ciphertext_width)


async def dgk_greater_than(key_holder: Party, x: int, other: Party, y: int,
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
    [result] = await dgk_greater_than_pairwise(
        key_holder, [x], other, [y], bits, keypair, label=label)
    return result


async def dgk_greater_than_pairwise(key_holder: Party, xs: list[int],
                                    other: Party, ys: list[int], bits: int,
                                    keypair: DgkKeyPair, *,
                                    label: str = "dgk") -> list[bool]:
    """Decide ``x_i > y_i`` for every pair; only ``key_holder`` learns them.

    Every pair is its own :func:`dgk_greater_than` -- its own bit
    ciphertexts, witnesses and messages -- but the pairs advance phase
    by phase: the key holder sends every pair's ``x_bits``, the other
    party answers with every pair's ``witnesses``, and the key holder
    zero-tests them.  So any number of pairs takes one round trip, and
    each party draws its coins in the order a loop of single
    comparisons draws them.
    """
    _check_width(bits)
    if len(xs) != len(ys):
        raise BitwiseComparisonError(
            f"{len(xs)} key-holder values but {len(ys)} other values")
    for x, y in zip(xs, ys):
        _check_domain("x", x, bits)
        _check_domain("y", y, bits)
    public = keypair.public_key

    # --- Step 1 (key holder): encrypt bits of each x, MSB first. ----------
    for x in xs:
        encrypted_bits = None
        if key_holder.hosted:
            encrypted_bits = _encrypted_bits(keypair, x, bits,
                                             key_holder.rng)
        await key_holder.send(f"{label}/x_bits", encrypted_bits)

    # --- Steps 2-3 (other party): blinded witness ciphertexts. ------------
    for y in ys:
        blinded = None
        if other.hosted:
            received = _checked_batch(
                public, other.receive(f"{label}/x_bits"), bits,
                "bit ciphertexts")
            blinded = _blinded_witnesses(public, received,
                                         _complements(public, received),
                                         _bits_of(y, bits), other.rng)
        await other.send(f"{label}/witnesses", blinded)

    # --- Step 4 (key holder): zero-test every witness. ---------------------
    if not key_holder.hosted:
        return [False] * len(xs)
    results = []
    for _ in xs:
        witnesses = _checked_batch(
            public, key_holder.receive(f"{label}/witnesses"), bits,
            "witnesses")
        results.append(any(keypair.private_key.zero_test_batch(witnesses)))
    return results


@dataclass(frozen=True)
class GapLane:
    """One lane of :func:`dgk_leq_within_gap_lanes`: ``key_holder``
    decides ``x_i <= y_i`` for every pair against ``other``, under its
    own ``keypair``, the public promise ``|x_i - y_i| <= gap`` and its
    own label."""

    key_holder: Party
    xs: Sequence[int]
    other: Party
    ys: Sequence[int]
    gap: int
    keypair: DgkKeyPair
    label: str = "dgk"

    @property
    def low_bits(self) -> int:
        """``l = bits(gap)``: ``|x - y| < 2^l``."""
        return self.gap.bit_length()

    def check(self) -> None:
        if self.gap < 0:
            raise BitwiseComparisonError(f"gap must be >= 0, got {self.gap}")
        _check_width(self.low_bits + 1)
        if len(self.xs) != len(self.ys):
            raise BitwiseComparisonError(
                f"{len(self.xs)} key-holder values but {len(self.ys)} "
                f"other values")


async def dgk_leq_within_gap_lanes(lanes: Sequence[GapLane]
                                   ) -> list[list[bool]]:
    """Every lane's gap comparisons, phase by phase across the lanes
    (module docstring, "Lanes"): every key holder's ``x_bits`` in lane
    order, then every other party's ``witnesses``, then every key
    holder's zero tests.  Per pair the key holder sends ``bits(gap)``
    bit ciphertexts and the other party answers with ``bits(gap) + 1``
    witnesses; a broken promise gives the key holder a wrong bit and
    nothing more.  Every lane is checked before anything is sent.
    Returns each lane's bits, ``False`` placeholders where its key
    holder is not hosted.
    """
    for lane in lanes:
        lane.check()
    for lane in lanes:
        await _send_gap_bits(lane)
    for lane in lanes:
        await _send_gap_witnesses(lane)
    return [_gap_results(lane) for lane in lanes]


async def _send_gap_bits(lane: GapLane) -> None:
    """Step 1 (key holder): E of each ``A``'s low ``l`` bits, MSB first."""
    half = 1 << lane.low_bits
    for x in lane.xs:
        encrypted_bits = None
        if lane.key_holder.hosted:
            encrypted_bits = _encrypted_bits(
                lane.keypair, -x % half, lane.low_bits, lane.key_holder.rng)
        await lane.key_holder.send(f"{lane.label}/x_bits", encrypted_bits)


async def _send_gap_witnesses(lane: GapLane) -> None:
    """Steps 2-3 (other party): witnesses of ``c``, or of ``not c``."""
    public = lane.keypair.public_key
    low_bits = lane.low_bits
    half = 1 << low_bits
    for y in lane.ys:
        blinded = None
        if lane.other.hosted:
            # E(2A'): the received bits, then the trivial E(0) = 1.
            doubled = _checked_batch(
                public, lane.other.receive(f"{lane.label}/x_bits"),
                low_bits, "bit ciphertexts") + [1]
            complements = _complements(public, doubled)
            b = y % (2 * half)
            if b < half:  # B_l = 0: c = [2A' > 2(2^l - 1 - B')]
                blinded = _blinded_witnesses(
                    public, doubled, complements,
                    _bits_of(2 * (half - 1 - b), low_bits + 1),
                    lane.other.rng)
            else:  # B_l = 1: not c = [2(2^l - 1 - A') + 1 > 2B']
                blinded = _blinded_witnesses(
                    public, complements, doubled,
                    _bits_of(2 * (b - half), low_bits + 1), lane.other.rng)
        await lane.other.send(f"{lane.label}/witnesses", blinded)


def _gap_results(lane: GapLane) -> list[bool]:
    """Step 4 (key holder): ``c XOR B_l``, then bit ``l`` of ``z``."""
    if not lane.key_holder.hosted:
        return [False] * len(lane.xs)
    half = 1 << lane.low_bits
    results = []
    for x in lane.xs:
        witnesses = _checked_batch(
            lane.keypair.public_key,
            lane.key_holder.receive(f"{lane.label}/witnesses"),
            lane.low_bits + 1, "witnesses")
        flipped_carry = any(
            lane.keypair.private_key.zero_test_batch(witnesses))
        results.append(flipped_carry != ((half - x) % (2 * half) >= half))
    return results


async def dgk_greater_than_batch(key_holder: Party, x: int, other: Party,
                                 ys: list[int], bits: int,
                                 keypair: DgkKeyPair, *,
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
        encrypted_bits = _encrypted_bits(keypair, x, bits, key_holder.rng)
    await key_holder.send(f"{label}/x_bits", encrypted_bits)

    # --- Steps 2-3 (other party), per y, against the shared bits. ----------
    batches = None
    if other.hosted:
        received = _checked_batch(public, other.receive(f"{label}/x_bits"),
                                  bits, "bit ciphertexts")
        complements = _complements(public, received)
        batches = [_blinded_witnesses(public, received, complements,
                                      _bits_of(y, bits), other.rng)
                   for y in ys]
    await other.send(f"{label}/witnesses", batches)

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
