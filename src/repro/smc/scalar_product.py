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
  ``m`` ciphertexts up front -- the cross terms' ``-2A``; each party
  adds its own squared norm outside (:mod:`repro.core.enhanced`) --
  plus one per chunk of points; a pass's tested points share one
  round-trip.  Its lanes form,
  :func:`secure_scalar_products_lanes`, runs several receivers' sharings
  phase by phase across them, so the protocol's two passes -- one lane
  each, in opposite directions -- share one round-trip's flights.

The two batched forms pack their replies (:class:`PackedLayout`): one
reply ciphertext carries a chunk of up to ``slots`` masked values, each
in its own ``width``-bit slot of the plaintext, so ``n`` values travel
in ``ceil(n / slots)`` ciphertexts and the key holder decrypts that
many, not ``n``.  The layout is a function of public bounds only --
``value_bound``, which bounds every vector's squared norm and so
``|<alpha, beta_i>|`` (Cauchy-Schwarz), and the mask or blind bound --
and each party refuses a vector or mask outside them before anything
is sent, so no slot can carry into the next.  The key holder reads
exactly the values it read one ciphertext at a time, in the same order,
and refuses a reply list that does not carry ``ceil(n / slots)``
ciphertexts (DESIGN.md, "Packed replies").

Every randomness factor is drawn online from the acting party's RNG
(:meth:`~repro.crypto.paillier.PaillierPublicKey.fresh_factor`).
Every ciphertext list travels as a
:class:`~repro.net.serialization.FixedWidthList` at the key's width
(``n^2``'s bytes), and every receiver refuses one sent at any other
width.

Rerandomization note: every reply the masker (or the batch receiver)
returns is a homomorphic combination of ciphertexts the other party
produced *times a fresh encryption* of the masker's mask or blind --
for a packed reply, of the chunk's packed masks.  Factors multiply as
``h_s^r1 * h_s^r2 = h_s^(r1 + r2)``, and ``r2`` is a fresh exponent of
``k + 128`` bits, so ``r1 * y + r2`` modulo the order of ``h_s`` is
within ``2^-128`` of uniform whatever ``r1 * y`` is: the reply's factor
is as fresh as any encryption's, even to the key's owner, who can take
its discrete logarithm (DESIGN.md, "Fixed-base Paillier randomness
(DJN)"); a further ``rerandomize`` would only cost one more factor.  So
each reply ciphertext draws exactly one factor, however many values it
packs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.crypto.encoding import SignedEncoder
from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPublicKey,
)
from repro.net.party import Party
from repro.net.serialization import FixedWidthList


class ScalarProductError(ValueError):
    """Raised on shape mismatches, plaintext-space overflow, or a reply
    list of the wrong length."""


@dataclass(frozen=True)
class PackedLayout:
    """How a packed reply lays a chunk of masked values into one
    plaintext.

    Slot ``j`` of a chunk is bits ``[j * width, (j + 1) * width)`` and
    holds ``v_j + value_bound``, where ``v_j = <alpha, beta_j> + m_j``
    with ``|<alpha, beta_j>| <= value_bound`` and the mask ``m_j`` in
    ``[0, mask_bound]``: a slot value in ``[0, 2 * value_bound +
    mask_bound]``, below ``2^width``.  ``slots`` such slots stay below
    ``2^(bits(n) - 1) <= n``, so a packed plaintext never wraps modulo
    ``n`` and no slot carries into the next.  ``n`` values travel in
    ``ceil(n / slots)`` ciphertexts, chunked in presentation order.
    """

    value_bound: int
    mask_bound: int
    width: int
    slots: int

    @classmethod
    def fit(cls, public: PaillierPublicKey, value_bound: int,
            mask_bound: int) -> "PackedLayout":
        """The layout under ``public`` for products bounded by
        ``value_bound`` and masks in ``[0, mask_bound]``; refused when
        not even one slot fits the key's plaintext space."""
        width = max(1, (2 * value_bound + mask_bound).bit_length())
        slots = (public.n.bit_length() - 1) // width
        if slots < 1:
            raise ScalarProductError(
                f"a {width}-bit reply slot does not fit a {public.bits}-bit "
                f"key's plaintext space; use larger keys")
        return cls(value_bound, mask_bound, width, slots)

    def check_vectors(self, vectors: Sequence[Sequence[int]],
                      what: str) -> None:
        """Refuse any vector whose squared norm exceeds ``value_bound``:
        two vectors within it have ``|<alpha, beta>| <= value_bound``."""
        for index, vector in enumerate(vectors):
            if sum(c * c for c in vector) > self.value_bound:
                raise ScalarProductError(
                    f"{what}[{index}] has a squared norm above "
                    f"value_bound {self.value_bound}")

    def check_masks(self, masks: Sequence[int], what: str) -> None:
        """Refuse any mask outside ``[0, mask_bound]``."""
        for index, mask in enumerate(masks):
            if not 0 <= mask <= self.mask_bound:
                raise ScalarProductError(
                    f"{what}[{index}] outside [0, {self.mask_bound}]")

    def ciphertexts(self, count: int) -> int:
        """Reply ciphertexts that carry ``count`` values."""
        return -(-count // self.slots)

    def chunks(self, count: int) -> list[range]:
        """Positions ``0 .. count - 1`` in chunks of at most ``slots``."""
        return [range(start, min(start + self.slots, count))
                for start in range(0, count, self.slots)]

    def shifted(self, values: Sequence[int]) -> int:
        """``sum_j values[j] * 2^(j * width)``: a chunk's column of
        signed coefficients as one exponent."""
        return sum(value << (j * self.width)
                   for j, value in enumerate(values))

    def pack(self, masks: Sequence[int]) -> int:
        """A chunk's masks, each raised by ``value_bound``, as one
        plaintext."""
        return self.shifted([mask + self.value_bound for mask in masks])

    def stacked(self, ciphers: Sequence[PaillierCiphertext]
                ) -> PaillierCiphertext:
        """``E(sum_j v_j * 2^(j * width))`` from a chunk's ``E(v_j)``,
        Horner-style from its last value: one ``2^width`` power per
        further slot."""
        stack = ciphers[-1]
        for cipher in reversed(ciphers[:-1]):
            stack = stack * (1 << self.width) + cipher
        return stack

    def unpack(self, plaintexts: Sequence[int], count: int) -> list[int]:
        """The ``count`` values of decrypted chunks, in order, each less
        ``value_bound``."""
        full = (1 << self.width) - 1
        return [((plaintext >> (j * self.width)) & full) - self.value_bound
                for plaintext, chunk in zip(plaintexts, self.chunks(count))
                for j in range(len(chunk))]

    def received(self, public: PaillierPublicKey, values, count: int,
                 label: str) -> list[int]:
        """A received reply list for ``count`` values, refused unless it
        was sent at the key's width and carries exactly
        :meth:`ciphertexts` of them."""
        public.check_width(values)
        expected = self.ciphertexts(count)
        if len(values) != expected:
            raise ScalarProductError(
                f"{label}: expected {expected} reply ciphertexts for "
                f"{count} values, received {len(values)}")
        return values


def _packed_reply(layout: PackedLayout, ciphers: list[PaillierCiphertext],
                  betas: Sequence[Sequence[int]],
                  masked: PaillierCiphertext) -> int:
    """One chunk's reply: ``masked`` (a fresh encryption of the chunk's
    packed masks) times each ``E(alpha_t)`` raised once to the chunk's
    packed column ``sum_j beta_{j,t} * 2^(j * width)``."""
    for t, cipher in enumerate(ciphers):
        coefficient = layout.shifted([beta[t] for beta in betas])
        if coefficient:
            masked = masked + cipher * coefficient
    return masked.value


def _received_sums(values, count: int, label: str) -> list[int]:
    """A received list of ``count`` plain sums, refused at any other
    length."""
    if not isinstance(values, list) or len(values) != count:
        received = (len(values) if isinstance(values, list)
                    else f"a {type(values).__name__}")
        raise ScalarProductError(
            f"{label}: expected {count} sums, received {received}")
    return values


async def secure_masked_dot_terms(receiver: Party, x_vector: list[int],
                                  masker: Party, y_vector: list[int],
                                  masks: list[int],
                                  keypair: PaillierKeyPair, *,
                                  label: str = "dot",
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
            public, [encoder.encode(x) for x in x_vector],
            receiver.rng)], width)
    await receiver.send(f"{label}/encrypted_vector", encrypted)

    received = public.check_width(
        masker.receive(f"{label}/encrypted_vector"))
    replies = FixedWidthList([], width)
    for value, y, mask in zip(received, y_vector, masks):
        product = PaillierCiphertext(public, value) * encoder.encode(y)
        # The fresh encryption of the mask is also the reply's only
        # rerandomization (the module docstring's note).
        masked = product + public.encrypt(encoder.encode(mask), masker.rng)
        replies.append(masked.value)
    await masker.send(f"{label}/masked_terms", replies)

    results = public.check_width(receiver.receive(f"{label}/masked_terms"))
    return [encoder.decode(value)
            for value in engine.decrypt_raw_batch(keypair.private_key,
                                                  results)]


async def secure_masked_dot_terms_batch(
        holder: Party, alpha: list[int], receiver: Party,
        betas: list[list[int]], offsets: list[int],
        keypair: PaillierKeyPair, *, value_bound: int, blind_bound: int,
        label: str = "dotbatch",
        engine: ModexpEngine | None = None) -> list[int]:
    """Batched region-query cross terms: receiver learns
    ``<alpha, beta_i> + offsets[i]`` for every ``beta_i``.

    The batched form of the HDP inner loop.  Flow (3 messages total):

    1. The holder (who owns ``keypair``) encrypts ``alpha`` once --
       ``len(alpha)`` ciphertexts, independent of ``len(betas)``.
    2. The receiver draws a private blind ``s_i`` from ``[0,
       blind_bound]`` for each ``beta_i`` and answers with packed replies
       (:class:`PackedLayout`): per chunk of betas, each ``E(alpha_t)``
       raised once to the chunk's packed column, times one fresh
       encryption of the chunk's packed blinds -- ``ceil(len(betas) /
       slots)`` ciphertexts, slot ``i`` holding ``<alpha, beta_i> + s_i``
       raised by ``value_bound``.
    3. The holder decrypts each chunk once, unpacks its slots, adds its
       per-``beta`` offset, and returns the sums; the receiver strips its
       blinds.

    ``value_bound`` bounds the squared norm of ``alpha`` and of every
    ``beta_i`` (so ``|<alpha, beta_i>| <= value_bound``); each party
    refuses its own vectors outside it before anything is sent.  The
    receiver ends with exactly the cross sum the per-point HDP produces
    (``<alpha, beta_i>`` when offsets are zero -- the paper's
    zero-sum-mask disclosure -- or offset-shifted in the blinded mode);
    the holder sees only blind-masked sums, one per slot, statistically
    hidden by the same ``blind_bound`` sizing every other mask in the
    system uses.

    Each party's steps run only where it is hosted
    (:attr:`~repro.net.party.Party.hosted`); a non-hosted receiver's
    result is ``[0] * len(betas)``, a placeholder.  The number of reply
    ciphertexts follows from the public shape ``len(betas)``.
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
    layout = PackedLayout.fit(public, value_bound, blind_bound)
    if holder.hosted:
        layout.check_vectors([alpha], "alpha")
    if receiver.hosted:
        layout.check_vectors(betas, "beta")
    encoder = SignedEncoder(public.n)
    engine = engine or default_engine()

    width = public.ciphertext_width
    encrypted_alpha = None
    if holder.hosted:
        encrypted_alpha = FixedWidthList(
            [cipher.value for cipher in engine.encrypt_batch(
                public, [encoder.encode(a) for a in alpha],
                holder.rng)], width)
    await holder.send(f"{label}/encrypted_alpha", encrypted_alpha)

    blinds = []
    replies = None
    if receiver.hosted:
        received = [PaillierCiphertext(public, value) for value in
                    public.check_width(
                        receiver.receive(f"{label}/encrypted_alpha"))]
        replies = FixedWidthList([], width)
        for chunk in layout.chunks(len(betas)):
            chunk_blinds = [receiver.rng.randrange(blind_bound + 1)
                            for _ in chunk]
            blinds.extend(chunk_blinds)
            # Starting from a fresh encryption of the packed blinds makes
            # the reply a fresh encryption (one factor, no extra
            # rerandomization).
            replies.append(_packed_reply(
                layout, received, [betas[i] for i in chunk],
                public.encrypt(layout.pack(chunk_blinds), receiver.rng)))
    await receiver.send(f"{label}/blinded_sums", replies)

    sums = None
    if holder.hosted:
        packed = layout.received(
            public, holder.receive(f"{label}/blinded_sums"), len(betas),
            f"{label}/blinded_sums")
        blinded = layout.unpack(
            engine.decrypt_raw_batch(keypair.private_key, packed),
            len(betas))
        sums = [value + offset for value, offset in zip(blinded, offsets)]
    await holder.send(f"{label}/cross_sums", sums)

    if not receiver.hosted:
        return [0] * len(betas)
    returned = _received_sums(receiver.receive(f"{label}/cross_sums"),
                              len(betas), f"{label}/cross_sums")
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
        masks: per alpha, one mask in ``[0, mask_bound]`` per beta
            vector.
        keypair: receiver's Paillier keys.
        label: transcript label prefix.
        value_bound: public bound on the squared norm of every alpha and
            every beta, hence on every ``|<alpha, beta_i>|``.
        mask_bound: public bound on the masks.
    """

    receiver: Party
    alphas: Sequence[Sequence[int]]
    masker: Party
    betas: Sequence[Sequence[Sequence[int]]]
    masks: Sequence[Sequence[int]]
    keypair: PaillierKeyPair
    label: str = "sprod"
    value_bound: int = field(kw_only=True)
    mask_bound: int = field(kw_only=True)

    def layout(self) -> PackedLayout:
        """The packed layout of this lane's replies."""
        return PackedLayout.fit(self.keypair.public_key, self.value_bound,
                                self.mask_bound)

    def check(self) -> None:
        """Refuse a shape mismatch, or a vector or mask outside the
        lane's bounds."""
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
        layout = self.layout()
        layout.check_vectors(self.alphas, "alpha")
        for group, group_masks in zip(self.betas, self.masks):
            layout.check_vectors(group, "beta")
            layout.check_masks(group_masks, "mask")


async def secure_scalar_products(receiver: Party, alphas: list[list[int]],
                                 masker: Party, betas: list[list[list[int]]],
                                 masks: list[list[int]],
                                 keypair: PaillierKeyPair, *,
                                 value_bound: int, mask_bound: int,
                                 label: str = "sprod",
                                 engine: ModexpEngine | None = None,
                                 ) -> list[list[int]]:
    """Section 5 batched sharing: receiver learns ``<alpha, beta_i> + v_i``
    for every ``beta_i`` of every ``alpha``.

    Each receiver vector keeps its own two messages -- its encrypted
    ``alpha`` and the masker's packed replies -- but the receiver sends
    every encrypted vector before the masker replies, so any number of
    vectors shares one round-trip.  The one-lane call of
    :func:`secure_scalar_products_lanes`; the arguments are
    :class:`ScalarProductLane`'s, and ``engine`` an optional
    :class:`~repro.crypto.engine.ModexpEngine` executing the batch
    encryptions/decryptions as sharded jobs.
    """
    [products] = await secure_scalar_products_lanes(
        [ScalarProductLane(receiver, alphas, masker, betas, masks, keypair,
                           label, value_bound=value_bound,
                           mask_bound=mask_bound)],
        engine=engine)
    return products


async def secure_scalar_products_lanes(lanes: Sequence[ScalarProductLane], *,
                                       engine: ModexpEngine | None = None,
                                       ) -> list[list[list[int]]]:
    """Every lane's sharing, phase by phase across the lanes: every
    receiver's ``encrypted_alpha`` messages in lane order, then every
    masker's ``masked_products``, then every receiver's decryptions.

    Each lane keeps its messages, labels and key; only the order
    changes.  With one lane in each direction (the two passes of the
    Section 5 protocol) the senders run ``R1 | R2 M1 | M2``: both lanes
    take the three flights of one.  Every lane is checked before
    anything is sent.
    """
    for lane in lanes:
        lane.check()
    engine = engine or default_engine()
    for lane in lanes:
        await _send_encrypted_alphas(lane, engine)
    for lane in lanes:
        await _send_masked_products(lane, engine)
    return [_masked_products(lane, engine) for lane in lanes]


async def _send_encrypted_alphas(lane: ScalarProductLane,
                                 engine: ModexpEngine) -> None:
    """The receiver encrypts every alpha in one engine batch and sends
    each as its own message."""
    public = lane.keypair.public_key
    encoder = SignedEncoder(public.n)
    encrypted = iter([cipher.value for cipher in engine.encrypt_batch(
        public, [encoder.encode(a) for alpha in lane.alphas for a in alpha],
        lane.receiver.rng)])
    for alpha in lane.alphas:
        await lane.receiver.send(f"{lane.label}/encrypted_alpha",
                           FixedWidthList([next(encrypted) for _ in alpha],
                                          public.ciphertext_width))


async def _send_masked_products(lane: ScalarProductLane,
                                engine: ModexpEngine) -> None:
    """The masker answers every encrypted alpha with its masked products
    packed, one reply ciphertext per chunk of beta vectors
    (:class:`PackedLayout`)."""
    public = lane.keypair.public_key
    layout = lane.layout()
    received = [[PaillierCiphertext(public, v)
                 for v in public.check_width(
                     lane.masker.receive(f"{lane.label}/encrypted_alpha"))]
                for _ in lane.alphas]
    # One factor per reply ciphertext (the packed masks' encryption's
    # ``r^n`` half), drawn in one engine batch in reply order.  The fresh
    # encryption of the packed masks is each reply's only
    # rerandomization (the module docstring's note).
    factors = iter(engine.encryption_factors(
        public, sum(layout.ciphertexts(len(group)) for group in lane.betas),
        lane.masker.rng))
    for ciphers, group, group_masks in zip(received, lane.betas,
                                           lane.masks):
        replies = FixedWidthList([], public.ciphertext_width)
        for chunk in layout.chunks(len(group)):
            masked = PaillierCiphertext(public, public.raw_encrypt_with_factor(
                layout.pack([group_masks[i] for i in chunk]), next(factors)))
            replies.append(_packed_reply(layout, ciphers,
                                         [group[i] for i in chunk], masked))
        await lane.masker.send(f"{lane.label}/masked_products", replies)


def _masked_products(lane: ScalarProductLane,
                     engine: ModexpEngine) -> list[list[int]]:
    """The receiver decrypts every reply ciphertext in one engine batch
    and unpacks each alpha's chunks."""
    public = lane.keypair.public_key
    layout = lane.layout()
    label = f"{lane.label}/masked_products"
    replies = [layout.received(public, lane.receiver.receive(label),
                               len(group), label)
               for group in lane.betas]
    decrypted = iter(engine.decrypt_raw_batch(
        lane.keypair.private_key,
        [value for group in replies for value in group]))
    return [layout.unpack([next(decrypted) for _ in chunks], len(group))
            for chunks, group in zip(replies, lane.betas)]
