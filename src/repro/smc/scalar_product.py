"""Batched masked scalar products over Paillier.

Three call shapes the DBSCAN protocols need:

- :func:`secure_masked_dot_terms` -- the HDP inner loop (Section 4.2):
  the receiver holds one vector, the masker holds another plus per-
  coordinate masks; the receiver obtains each ``x_t * y_t + r_t``
  separately (the paper runs one Multiplication Protocol per attribute).

- :func:`secure_masked_dot_terms_batch` -- the batched region-query
  form: the holder's vector ``alpha`` is encrypted **once** and reused
  against every ``beta_i``, so the holder's encryptions are
  ``O(len(alpha))`` per call regardless of ``len(betas)``; the receiver
  ends with ``<alpha, beta_i> + offsets[i]`` -- exactly the cross sum
  Protocol HDP hands the non-querying party, for a whole region query
  in one message round-trip.

- :func:`secure_scalar_products` -- the Section 5 distance sharing: each
  of the receiver's vectors ``alpha`` is encrypted once, then for each
  of the masker's vectors ``beta_i`` the receiver obtains
  ``<alpha, beta_i> + v_i``.  This is the batched form of Algorithm 2
  that makes the enhanced protocol's ``u_i = dist^2 + v_i`` shares cost
  ``m + 2`` ciphertexts up front plus one per point; a pass's tested
  points share one round-trip.  Its lanes form,
  :func:`secure_scalar_products_lanes`, runs several receivers' sharings
  phase by phase across them, so the protocol's two passes -- one lane
  each, in opposite directions -- share one round-trip's flights.

All three accept optional :class:`~repro.crypto.precompute.RandomnessPool`
arguments -- one per (acting party, key) -- which move the randomness
factors of encryption into an offline phase.  Every ciphertext list
travels as a :class:`~repro.net.serialization.FixedWidthList` at the
key's width (``n^2``'s bytes), and every receiver refuses one sent at
any other width.

Rerandomization note: every reply the masker (or the batch receiver)
returns is a homomorphic combination of ciphertexts the other party
produced *times a fresh encryption* of the masker's mask or blind.
Factors multiply as ``h_s^r1 * h_s^r2 = h_s^(r1 + r2)``, and ``r2`` is
a fresh exponent of ``k + 128`` bits, so ``r1 * y + r2`` modulo the
order of ``h_s`` is within ``2^-128`` of uniform whatever ``r1 * y``
is: the reply's factor is as fresh as any encryption's, even to the
key's owner, who can take its discrete logarithm (DESIGN.md,
"Fixed-base Paillier randomness (DJN)"); a further ``rerandomize``
would only cost one more factor.  So each reply draws exactly one
factor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.crypto.encoding import SignedEncoder
from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.paillier import PaillierCiphertext, PaillierKeyPair
from repro.crypto.precompute import RandomnessPool
from repro.net.party import Party
from repro.net.serialization import FixedWidthList


class ScalarProductError(ValueError):
    """Raised on shape mismatches or plaintext-space overflow."""


def secure_masked_dot_terms(receiver: Party, x_vector: list[int],
                            masker: Party, y_vector: list[int],
                            masks: list[int], keypair: PaillierKeyPair, *,
                            label: str = "dot",
                            receiver_pool: RandomnessPool | None = None,
                            masker_pool: RandomnessPool | None = None,
                            engine: ModexpEngine | None = None,
                            ) -> list[int]:
    """Per-coordinate Multiplication Protocol batch (HDP inner loop).

    The receiver learns ``[x_t * y_t + r_t for t]``; the masker learns
    nothing.  One message each way carries the whole batch.
    """
    if not len(x_vector) == len(y_vector) == len(masks):
        raise ScalarProductError(
            f"length mismatch: x={len(x_vector)} y={len(y_vector)} "
            f"masks={len(masks)}"
        )
    public = keypair.public_key
    encoder = SignedEncoder(public.n)
    engine = engine or default_engine()

    width = public.ciphertext_width
    encrypted = FixedWidthList(
        [cipher.value for cipher in engine.encrypt_batch(
            public, [encoder.encode(x) for x in x_vector], receiver.rng,
            receiver_pool)], width)
    receiver.send(f"{label}/encrypted_vector", encrypted)

    received = public.check_width(
        masker.receive(f"{label}/encrypted_vector"))
    replies = FixedWidthList([], width)
    for value, y, mask in zip(received, y_vector, masks):
        product = PaillierCiphertext(public, value) * encoder.encode(y)
        # The fresh encryption of the mask is also the reply's only
        # rerandomization (the module docstring's note).
        masked = product + public.encrypt(encoder.encode(mask), masker.rng,
                                          masker_pool)
        replies.append(masked.value)
    masker.send(f"{label}/masked_terms", replies)

    results = public.check_width(receiver.receive(f"{label}/masked_terms"))
    return [encoder.decode(value)
            for value in engine.decrypt_raw_batch(keypair.private_key,
                                                  results)]


def secure_masked_dot_terms_batch(holder: Party, alpha: list[int],
                                  receiver: Party, betas: list[list[int]],
                                  offsets: list[int],
                                  keypair: PaillierKeyPair, *,
                                  blind_bound: int,
                                  label: str = "dotbatch",
                                  holder_pool: RandomnessPool | None = None,
                                  receiver_pool: RandomnessPool | None = None,
                                  engine: ModexpEngine | None = None,
                                  ) -> list[int]:
    """Batched region-query cross terms: receiver learns
    ``<alpha, beta_i> + offsets[i]`` for every ``beta_i``.

    The batched form of the HDP inner loop.  Flow (3 messages total):

    1. The holder (who owns ``keypair``) encrypts ``alpha`` once --
       ``len(alpha)`` ciphertexts, independent of ``len(betas)``.
    2. For each ``beta_i`` the receiver homomorphically accumulates
       ``E(<alpha, beta_i> + s_i)`` under the holder's key, with a
       private blind ``s_i`` drawn from ``[0, blind_bound]``, and
       returns the whole batch rerandomized.
    3. The holder decrypts, adds its per-``beta`` offset, and returns
       the sums; the receiver strips its blinds.

    The receiver ends with exactly the cross sum the per-point HDP
    produces (``<alpha, beta_i>`` when offsets are zero -- the paper's
    zero-sum-mask disclosure -- or offset-shifted in the blinded mode);
    the holder sees only blind-masked sums, statistically hidden by the
    same ``blind_bound`` sizing every other mask in the system uses.

    Each party's steps run only where it is hosted
    (:attr:`~repro.net.party.Party.hosted`); a non-hosted receiver's
    result is ``[0] * len(betas)``, a placeholder.
    """
    if len(betas) != len(offsets):
        raise ScalarProductError(
            f"{len(betas)} beta vectors but {len(offsets)} offsets")
    for index, beta in enumerate(betas):
        if len(beta) != len(alpha):
            raise ScalarProductError(
                f"beta[{index}] has length {len(beta)}, alpha has "
                f"{len(alpha)}"
            )
    if blind_bound < 1:
        raise ScalarProductError(
            f"blind_bound must be >= 1, got {blind_bound}")
    public = keypair.public_key
    encoder = SignedEncoder(public.n)
    engine = engine or default_engine()

    width = public.ciphertext_width
    encrypted_alpha = None
    if holder.hosted:
        encrypted_alpha = FixedWidthList(
            [cipher.value for cipher in engine.encrypt_batch(
                public, [encoder.encode(a) for a in alpha], holder.rng,
                holder_pool)], width)
    holder.send(f"{label}/encrypted_alpha", encrypted_alpha)

    blinds = []
    replies = None
    if receiver.hosted:
        received = [PaillierCiphertext(public, value) for value in
                    public.check_width(
                        receiver.receive(f"{label}/encrypted_alpha"))]
        replies = FixedWidthList([], width)
        for beta in betas:
            blind = receiver.rng.randrange(blind_bound + 1)
            blinds.append(blind)
            # Starting from a fresh encryption of the blind makes the
            # accumulated reply a fresh encryption (one factor, no
            # extra rerandomization).
            accumulator = public.encrypt(encoder.encode(blind),
                                         receiver.rng, receiver_pool)
            for cipher, coefficient in zip(received, beta):
                if coefficient:
                    accumulator = (accumulator
                                   + cipher * encoder.encode(coefficient))
            replies.append(accumulator.value)
    receiver.send(f"{label}/blinded_sums", replies)

    sums = None
    if holder.hosted:
        blinded = [encoder.decode(value) for value in
                   engine.decrypt_raw_batch(
                       keypair.private_key,
                       public.check_width(
                           holder.receive(f"{label}/blinded_sums")))]
        sums = [value + offset for value, offset in zip(blinded, offsets)]
    holder.send(f"{label}/cross_sums", sums)

    if not receiver.hosted:
        return [0] * len(betas)
    returned = receiver.receive(f"{label}/cross_sums")
    return [value - blind for value, blind in zip(returned, blinds)]


@dataclass(frozen=True)
class ScalarProductLane:
    """One lane of :func:`secure_scalar_products_lanes`: ``receiver``
    learns ``<alpha, beta_i> + v_i`` for every ``beta_i`` of every
    ``alpha``, under its own ``keypair``.

    Attributes:
        receiver: holds the ``alphas`` and the keypair; learns the
            masked products.
        alphas: receiver's vectors (signed ints).
        masker: holds the ``beta_i`` vectors and the masks ``v_i``.
        betas: per alpha, a list of vectors, each as long as the alpha.
        masks: per alpha, one signed mask per beta vector.
        keypair: receiver's Paillier keys.
        label: transcript label prefix.
        receiver_pool / masker_pool: optional randomness pools for each
            party's encryptions under the receiver's key.
    """

    receiver: Party
    alphas: Sequence[Sequence[int]]
    masker: Party
    betas: Sequence[Sequence[Sequence[int]]]
    masks: Sequence[Sequence[int]]
    keypair: PaillierKeyPair
    label: str = "sprod"
    receiver_pool: RandomnessPool | None = None
    masker_pool: RandomnessPool | None = None

    def check(self) -> None:
        if not len(self.alphas) == len(self.betas) == len(self.masks):
            raise ScalarProductError(
                f"{len(self.alphas)} alphas but {len(self.betas)} beta "
                f"lists and {len(self.masks)} mask lists")
        for alpha, group, group_masks in zip(self.alphas, self.betas,
                                             self.masks):
            if len(group) != len(group_masks):
                raise ScalarProductError(
                    f"{len(group)} beta vectors but {len(group_masks)} "
                    f"masks")
            for index, beta in enumerate(group):
                if len(beta) != len(alpha):
                    raise ScalarProductError(
                        f"beta[{index}] has length {len(beta)}, alpha has "
                        f"{len(alpha)}"
                    )


def secure_scalar_products(receiver: Party, alphas: list[list[int]],
                           masker: Party, betas: list[list[list[int]]],
                           masks: list[list[int]],
                           keypair: PaillierKeyPair, *,
                           label: str = "sprod",
                           receiver_pool: RandomnessPool | None = None,
                           masker_pool: RandomnessPool | None = None,
                           engine: ModexpEngine | None = None,
                           ) -> list[list[int]]:
    """Section 5 batched sharing: receiver learns ``<alpha, beta_i> + v_i``
    for every ``beta_i`` of every ``alpha``.

    Each receiver vector keeps its own two messages -- its encrypted
    ``alpha`` and the masker's replies -- but the receiver sends every
    encrypted vector before the masker replies, so any number of
    vectors shares one round-trip.  The one-lane call of
    :func:`secure_scalar_products_lanes`; the arguments are
    :class:`ScalarProductLane`'s, and ``engine`` an optional
    :class:`~repro.crypto.engine.ModexpEngine` executing the batch
    encryptions/decryptions as sharded jobs.
    """
    [products] = secure_scalar_products_lanes(
        [ScalarProductLane(receiver, alphas, masker, betas, masks, keypair,
                           label, receiver_pool, masker_pool)],
        engine=engine)
    return products


def secure_scalar_products_lanes(lanes: Sequence[ScalarProductLane], *,
                                 engine: ModexpEngine | None = None,
                                 ) -> list[list[list[int]]]:
    """Every lane's sharing, phase by phase across the lanes: every
    receiver's ``encrypted_alpha`` messages in lane order, then every
    masker's ``masked_products``, then every receiver's decryptions.

    Each lane keeps its messages, labels, key and pools; only the order
    changes.  With one lane in each direction (the two passes of the
    Section 5 protocol) the senders run ``R1 | R2 M1 | M2``: both lanes
    take the three flights of one.  Every lane is checked before
    anything is sent.
    """
    for lane in lanes:
        lane.check()
    engine = engine or default_engine()
    for lane in lanes:
        _send_encrypted_alphas(lane, engine)
    for lane in lanes:
        _send_masked_products(lane, engine)
    return [_masked_products(lane, engine) for lane in lanes]


def _send_encrypted_alphas(lane: ScalarProductLane,
                           engine: ModexpEngine) -> None:
    """The receiver encrypts every alpha in one engine batch and sends
    each as its own message."""
    public = lane.keypair.public_key
    encoder = SignedEncoder(public.n)
    encrypted = iter([cipher.value for cipher in engine.encrypt_batch(
        public, [encoder.encode(a) for alpha in lane.alphas for a in alpha],
        lane.receiver.rng, lane.receiver_pool)])
    for alpha in lane.alphas:
        lane.receiver.send(f"{lane.label}/encrypted_alpha",
                           FixedWidthList([next(encrypted) for _ in alpha],
                                          public.ciphertext_width))


def _send_masked_products(lane: ScalarProductLane,
                          engine: ModexpEngine) -> None:
    """The masker answers every encrypted alpha with one masked product
    per beta vector."""
    public = lane.keypair.public_key
    encoder = SignedEncoder(public.n)
    received = [[PaillierCiphertext(public, v)
                 for v in public.check_width(
                     lane.masker.receive(f"{lane.label}/encrypted_alpha"))]
                for _ in lane.alphas]
    # Masker-side powmods (one mask encryption per beta, the ``r^n``
    # halves) run as one sharded engine batch; the factors come back in
    # the serial draw order, so the produced ciphertexts are
    # bit-identical to the per-item loop.  The fresh mask encryption is
    # each reply's only rerandomization (the module docstring's note).
    factors = iter(engine.encryption_factors(
        public, sum(len(group) for group in lane.betas), lane.masker.rng,
        lane.masker_pool))
    for ciphers, group, group_masks in zip(received, lane.betas,
                                           lane.masks):
        replies = FixedWidthList([], public.ciphertext_width)
        for beta, mask in zip(group, group_masks):
            accumulator = PaillierCiphertext(
                public, public.raw_encrypt_with_factor(encoder.encode(mask),
                                                       next(factors)))
            for cipher, coefficient in zip(ciphers, beta):
                if coefficient:
                    accumulator = (accumulator
                                   + cipher * encoder.encode(coefficient))
            replies.append(accumulator.value)
        lane.masker.send(f"{lane.label}/masked_products", replies)


def _masked_products(lane: ScalarProductLane,
                     engine: ModexpEngine) -> list[list[int]]:
    """The receiver decrypts every reply in one engine batch."""
    public = lane.keypair.public_key
    encoder = SignedEncoder(public.n)
    replies = [public.check_width(
        lane.receiver.receive(f"{lane.label}/masked_products"))
        for _ in lane.alphas]
    decrypted = iter(engine.decrypt_raw_batch(
        lane.keypair.private_key,
        [value for group in replies for value in group]))
    return [[encoder.decode(next(decrypted)) for _ in group]
            for group in replies]
