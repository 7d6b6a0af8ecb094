"""Per-run SMC session: keys, configuration, and protocol entry points.

A :class:`SmcSession` is created once per distributed-DBSCAN run.  It

- generates (or deterministically caches) each party's Paillier, DGK
  and RSA key material,
- performs the one-time public-key exchange over the channel so key
  bytes are charged to the communication accounting exactly once
  (:func:`announce_public_keys` / :func:`receive_public_keys`, the
  announcement choreography the multi-party mesh and the daemons run
  per pair too),
- exposes the protocol primitives (comparison, multiplication, scalar
  products) with party lookup by name, so the DBSCAN layers never touch
  raw key objects.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass, field

from repro.crypto.dgk import DgkKeyPair, DgkPublicKey, generate_dgk_keypair
from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.keycache import (
    cached_dgk_keypair,
    cached_paillier_keypair,
    cached_rsa_keypair,
)
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.rsa import RsaKeyPair, generate_rsa_keypair
from repro.crypto.sealed import (
    is_sealed,
    public_key_digest,
    seal_dgk_keypair,
    seal_paillier_keypair,
)
from repro.net.channel import Channel, drive
from repro.net.party import Party
from repro.smc.comparison import (
    ComparisonOutcome,
    SecureComparison,
    make_comparison_backend,
)
from repro.smc.multiplication import secure_multiplication
from repro.smc.scalar_product import (
    ScalarProductLane,
    secure_masked_dot_terms,
    secure_masked_dot_terms_batch,
)


class SessionError(ValueError):
    """Raised on unknown parties or misconfiguration."""


@dataclass(frozen=True)
class SmcConfig:
    """Tunables for the cryptographic layer.

    Attributes:
        paillier_bits: modulus size of each party's Paillier key and,
            for the ``bitwise`` comparison, of its DGK key (at least
            128 bits there); 256 is comfortable for tests, 1024+
            realistic.
        rsa_bits: RSA modulus for YMPP (only generated when the ympp
            backend is selected).
        comparison: ``"bitwise"`` (default), ``"ympp"``, or ``"oracle"``.
        mask_sigma: statistical-hiding parameter; masks are drawn from
            ``[0, value_bound * 2^mask_sigma)``.
        faithful_shared_r: reproduce Algorithm 2's shared-randomness step
            literally (leakage demonstration only).
        key_seed: when set, key material is derived deterministically
            from this seed (and memoized) -- reproducible tests and
            benchmarks that should not pay key-generation time.
        engine: a :class:`~repro.crypto.engine.ModexpEngine` executing
            the Paillier layer's batch decryption and YMPP's RSA sweep;
            randomness factors and the DGK comparison run no engine
            jobs.  ``None`` uses the shared serial engine -- identical
            results, one process.  Supply ``ModexpEngine(workers=k)`` to
            shard those jobs across ``k`` worker processes.
    """

    paillier_bits: int = 256
    rsa_bits: int = 512
    comparison: str = "bitwise"
    mask_sigma: int = 16
    faithful_shared_r: bool = False
    key_seed: int | None = None
    engine: ModexpEngine | None = None

    def mask_bound(self, value_bound: int) -> int:
        """Mask interval size for hiding values bounded by ``value_bound``."""
        return max(2, value_bound) << self.mask_sigma


def channel_for_config(config: SmcConfig, left_name: str = "alice",
                       right_name: str = "bob") -> Channel:
    """Build one in-process link's channel between the two named parties.

    The two-party runners, each pairwise link of the k-party mesh and
    the benchmark harness build their channels here; every config gets
    the same :class:`~repro.net.transport.InProcessTransport` fabric.
    """
    return Channel(left_name=left_name, right_name=right_name)


@dataclass
class CryptoContext:
    """One party's key material.

    ``dgk`` exists for the ``bitwise`` comparison only; its public half
    travels in the same announcement as the Paillier key.
    ``expected_digest`` is set on sealed peer contexts: the manifest's
    pinned public-key digest that the wire-announced keys must match
    before the session trusts them (``None`` skips the pin -- legacy
    manifests without ``key_digests``).
    """

    paillier: PaillierKeyPair
    rsa: RsaKeyPair | None = None
    dgk: DgkKeyPair | None = None
    expected_digest: str | None = None

    @property
    def pending(self) -> bool:
        """A sealed peer context whose placeholder keys still wait for
        the owner's announcement: a session refuses to encrypt or
        compare under a pending key
        (:meth:`SmcSession.peer_keys_adopted`)."""
        return self.paillier.public_key.n == 0


def sealed_peer_context(owner: str, expected_digest: str | None = None, *,
                        with_dgk: bool = False) -> CryptoContext:
    """Key context for a party that is *remote* in this process.

    Holds sealed keypairs with placeholder public keys (the context is
    ``pending``) until :func:`receive_public_keys` captures the owner's
    authentic public keys from the wire (the mirrored choreography
    discards the placeholder send unserialized, so the placeholder
    never reaches any peer).  The private halves never exist here at
    all.  ``with_dgk`` expects a DGK key in the announcement (the
    ``bitwise`` comparison).
    """
    placeholder = PaillierPublicKey(n=0, g=0)
    dgk = (seal_dgk_keypair(DgkPublicKey(n=0, g=0, h=0), owner)
           if with_dgk else None)
    return CryptoContext(paillier=seal_paillier_keypair(placeholder, owner),
                         dgk=dgk, expected_digest=expected_digest)


async def announce_public_keys(party: Party,
                               context: CryptoContext) -> None:
    """Send ``party``'s public keys to its peer.

    The Paillier announcement is ``[n, g]``, followed by the DGK public
    key ``n, g, h`` when the context has one; an RSA key follows as
    ``keys/rsa_pub``.  For a party this process does not host (a
    sealed peer context on a mirror channel) the call only marks where
    the mirror substitutes the authentic announcement from the wire.
    """
    public = context.paillier.public_key
    announcement = [public.n, public.g]
    if context.dgk is not None:
        dgk = context.dgk.public_key
        announcement += [dgk.n, dgk.g, dgk.h]
    await party.send("keys/paillier_pub", announcement)
    if context.rsa is not None:
        await party.send("keys/rsa_pub",
                   [context.rsa.public_key.n, context.rsa.public_key.e])


def receive_public_keys(receiver: Party, owner: str,
                        context: CryptoContext, key_bits: int) -> None:
    """``receiver`` takes ``owner``'s announcement off its channel.

    A sealed ``context`` (the owner is remote) adopts the announced
    keys once they pass the shape and pinned-digest checks
    (:meth:`SmcSession._adopt_peer_public`); until then it stays
    ``pending``.
    """
    announced = receiver.receive("keys/paillier_pub")
    if context.rsa is not None:
        receiver.receive("keys/rsa_pub")
    if is_sealed(context.paillier.private_key):
        SmcSession._adopt_peer_public(owner, context, announced, key_bits)


async def exchange_public_keys(alice: Party, bob: Party,
                               contexts: dict[str, CryptoContext],
                               key_bits: int) -> None:
    """One pair's key exchange on one channel: ``alice`` announces,
    then ``bob``, then each hosted party takes the other's keys.

    The accounting records the left party's announcement, then the
    right party's.  A daemon runs the same two functions with one
    mirror channel per announcer, so neither side's announcement waits
    for the other's (``repro.runtime.daemon``).
    """
    for party in (alice, bob):
        await announce_public_keys(party, contexts[party.name])
    for owner, receiver in ((alice, bob), (bob, alice)):
        if receiver.hosted:
            receive_public_keys(receiver, owner.name,
                                contexts[owner.name], key_bits)


def _derive_context(config: SmcConfig, *, seed: int | None = None,
                   rng: random.Random | None = None) -> CryptoContext:
    """One party's keys: from the key cache at ``seed``, else from
    ``rng``.  RSA keys exist for ``ympp`` and DGK keys for ``bitwise``;
    both use the modulus sizes of ``config``.  The DGK key is derived
    last, so the Paillier and RSA keys do not depend on the comparison.
    """
    if seed is not None:
        paillier = cached_paillier_keypair(config.paillier_bits, seed)
        rsa = (cached_rsa_keypair(config.rsa_bits, seed)
               if config.comparison == "ympp" else None)
        dgk = (cached_dgk_keypair(config.paillier_bits, seed)
               if config.comparison == "bitwise" else None)
    else:
        paillier = generate_paillier_keypair(config.paillier_bits, rng)
        rsa = (generate_rsa_keypair(config.rsa_bits, rng)
               if config.comparison == "ympp" else None)
        dgk = (generate_dgk_keypair(config.paillier_bits, rng)
               if config.comparison == "bitwise" else None)
    return CryptoContext(paillier=paillier, rsa=rsa, dgk=dgk)


class FullKeyProvider:
    """Key provider of the in-process trust model: every party's full
    keypair exists in this interpreter.

    ``key_seed_stride`` preserves the historical per-surface seed
    layout (the mesh derives slot keys at ``100 * key_seed + slot``),
    so providers and the legacy inline derivation produce bit-identical
    keys.
    """

    def __init__(self, config: SmcConfig, *, key_seed_stride: int = 100):
        self.config = config
        self.key_seed_stride = key_seed_stride

    def context_for(self, name: str, slot: int,
                    rng: random.Random | None = None) -> CryptoContext:
        cfg = self.config
        if cfg.key_seed is not None:
            return _derive_context(
                cfg, seed=self.key_seed_stride * cfg.key_seed + slot)
        if rng is None:
            raise SessionError(
                f"key generation for {name!r} needs an RNG when "
                f"key_seed is unset")
        return _derive_context(cfg, rng=rng)


class SealedKeyProvider:
    """Key provider of the distributed trust model: this process derives
    only ``own_name``'s keypair; every peer gets a sealed public-only
    context, pinned to the manifest's per-party public-key digest and
    completed from the authentic wire announcement at session start.
    """

    def __init__(self, config: SmcConfig, own_name: str,
                 key_digests: dict[str, str] | None = None, *,
                 key_seed_stride: int = 100):
        self.config = config
        self.own_name = own_name
        self.key_digests = dict(key_digests or {})

        self._own_provider = FullKeyProvider(
            config, key_seed_stride=key_seed_stride)

    def context_for(self, name: str, slot: int,
                    rng: random.Random | None = None) -> CryptoContext:
        if name != self.own_name:
            return sealed_peer_context(
                name, self.key_digests.get(name),
                with_dgk=self.config.comparison == "bitwise")
        return self._own_provider.context_for(name, slot, rng)


@dataclass
class SmcSession:
    """Protocol session between two parties over one channel.

    Without ``preset_contexts`` the session derives both parties' keys
    and exchanges them on its channel (:func:`exchange_public_keys`).
    ``preset_contexts`` maps each party name to key material that
    already crossed: the multi-party mesh reuses one keypair per
    physical party across all of its pairwise sessions and announces it
    once per pair, so a session built on preset contexts runs no
    exchange.  A sealed peer context may still be ``pending`` then --
    a daemon builds its streams before the peer's announcement lands
    and calls :meth:`peer_keys_adopted` once it has.
    """

    alice: Party
    bob: Party
    config: SmcConfig = field(default_factory=SmcConfig)
    preset_contexts: dict | None = None

    def __post_init__(self):
        if self.alice.name == self.bob.name:
            raise SessionError("parties must have distinct names")
        if self.preset_contexts is not None:
            self._contexts = {party.name: self.preset_contexts[party.name]
                              for party in (self.alice, self.bob)}
        else:
            self._contexts = {
                self.alice.name: self._make_context(self.alice, slot=0),
                self.bob.name: self._make_context(self.bob, slot=1),
            }
            drive(exchange_public_keys(self.alice, self.bob, self._contexts,
                                       self.config.paillier_bits))
        # No coin is drawn here: each Paillier factor is drawn by the
        # protocol step that needs it, from the acting party's RNG.
        self.engine: ModexpEngine = self.config.engine or default_engine()
        self.comparison_backend: SecureComparison = self._comparison_backend()

    def _comparison_backend(self) -> SecureComparison:
        """The configured backend over the contexts' current keys; a
        pending peer gets no DGK key, so comparing under it fails."""
        alice_ctx = self._contexts[self.alice.name]
        bob_ctx = self._contexts[self.bob.name]
        rsa_keys = ({self.alice.name: alice_ctx.rsa,
                     self.bob.name: bob_ctx.rsa}
                    if alice_ctx.rsa is not None and bob_ctx.rsa is not None
                    else None)
        return make_comparison_backend(
            self.config.comparison,
            rsa_keys=rsa_keys,
            dgk_keys={name: None if context.pending else context.dgk
                      for name, context in self._contexts.items()},
            engine=self.engine,
        )

    def peer_keys_adopted(self, owner: str) -> None:
        """Re-point this session's comparison backend at ``owner``'s
        keys, adopted from its announcement after the session was built
        (its invocation count carries over); refuses a key still
        pending."""
        self.paillier_keys(owner)
        invocations = self.comparison_backend.invocations
        self.comparison_backend = self._comparison_backend()
        self.comparison_backend.invocations = invocations

    # -- key management ----------------------------------------------------

    def _make_context(self, party: Party, slot: int) -> CryptoContext:
        cfg = self.config
        if cfg.key_seed is not None:
            return _derive_context(cfg, seed=2 * cfg.key_seed + slot)
        return _derive_context(cfg, rng=party.rng)

    @staticmethod
    def _adopt_peer_public(owner: str, context: CryptoContext, announced,
                           key_bits: int) -> None:
        """Check a sealed peer's announcement, then adopt its keys.

        Every modulus must have ``key_bits`` bits, the Paillier ``g``
        must lie in ``(1, n^2)`` and the DGK ``g`` and ``h`` in
        ``(1, n)``; ``bool`` parts are refused.  The shape is checked
        before the digest, so a legacy manifest without ``key_digests``
        cannot run on a degenerate key.
        """
        expected = "[n, g, dgk_n, dgk_g, dgk_h]" if context.dgk else "[n, g]"
        if (not isinstance(announced, list)
                or len(announced) != (5 if context.dgk else 2)
                or not all(type(part) is int for part in announced)):
            raise SessionError(
                f"malformed public-key announcement from {owner!r}: "
                f"expected {expected} of ints")
        n, g, *dgk = announced
        sized = range(1 << (key_bits - 1), 1 << key_bits)
        if (n not in sized or not 1 < g < n * n
                or (dgk and (dgk[0] not in sized
                             or not 1 < dgk[1] < dgk[0]
                             or not 1 < dgk[2] < dgk[0]))):
            raise SessionError(
                f"malformed public-key announcement from {owner!r}: "
                f"expected {key_bits}-bit moduli with g, h inside them")
        public = PaillierPublicKey(n=n, g=g)
        dgk_public = DgkPublicKey(*dgk) if dgk else None
        if context.expected_digest is not None:
            digest = public_key_digest(public, dgk_public)
            if not hmac.compare_digest(digest, context.expected_digest):
                raise SessionError(
                    f"public key announced by {owner!r} does not match "
                    f"the manifest's pinned digest ({digest[:12]}... vs "
                    f"{context.expected_digest[:12]}...); refusing the "
                    f"session")
        context.paillier = seal_paillier_keypair(public, owner)
        if dgk_public is not None:
            context.dgk = seal_dgk_keypair(dgk_public, owner)

    def party(self, name: str) -> Party:
        if name == self.alice.name:
            return self.alice
        if name == self.bob.name:
            return self.bob
        raise SessionError(f"unknown party {name!r}")

    def peer_of(self, name: str) -> Party:
        return self.bob if name == self.alice.name else self.alice

    def _context(self, name: str) -> CryptoContext:
        context = self._contexts[self.party(name).name]
        if context.pending:
            raise SessionError(
                f"{name!r} has not announced its keys yet: nothing is "
                f"encrypted or compared under them before its "
                f"announcement is adopted")
        return context

    def paillier_keys(self, name: str) -> PaillierKeyPair:
        return self._context(name).paillier

    def pool_report(self) -> dict:
        """Empty: the offline randomness pools are gone.  Kept only
        because the layered benchmark's harness still reads it (ROADMAP
        direction 1)."""
        return {}

    # -- protocol entry points ----------------------------------------------

    async def compare_leq(self, a_party: Party, a: int, b_party: Party,
                          b: int, *, lo: int, hi: int,
                          reveal_to: str = "both",
                          label: str = "cmp") -> ComparisonOutcome:
        """Secure ``a <= b`` through the configured backend."""
        return await self.comparison_backend.leq(
            a_party, a, b_party, b, lo=lo, hi=hi, reveal_to=reveal_to,
            label=label)

    async def compare_leq_batch(self, a_party: Party, a_values: list[int],
                                b_party: Party, b_values: list[int], *,
                                lo: int, hi: int, reveal_to: str = "both",
                                amortize: bool = False,
                                label: str = "cmp") -> list[ComparisonOutcome]:
        """Batched ``a_i <= b_i``: one invocation per pair.  With
        ``amortize`` the caller declares the learning party's side
        constant (public protocol structure), letting the backend share
        one bit-encryption and round-trip across the whole batch -- see
        :meth:`SecureComparison.leq_batch`."""
        return await self.comparison_backend.leq_batch(
            a_party, a_values, b_party, b_values, lo=lo, hi=hi,
            reveal_to=reveal_to, amortize=amortize, label=label)

    async def multiplication(self, receiver: Party, x: int, masker: Party,
                             y: int, mask: int, *,
                             label: str = "mult") -> int:
        """Algorithm 2: receiver learns ``x*y + mask``."""
        return await secure_multiplication(
            receiver, x, masker, y, mask,
            self.paillier_keys(receiver.name), label=label,
            faithful_shared_r=self.config.faithful_shared_r)

    async def masked_dot_terms(self, receiver: Party, x_vector: list[int],
                               masker: Party, y_vector: list[int],
                               masks: list[int], *,
                               label: str = "dot") -> list[int]:
        """HDP inner loop: receiver learns each ``x_t*y_t + r_t``."""
        return await secure_masked_dot_terms(
            receiver, x_vector, masker, y_vector, masks,
            self.paillier_keys(receiver.name), label=label,
            engine=self.engine)

    async def masked_dot_terms_batch(self, holder: Party, alpha: list[int],
                                     receiver: Party, betas: list[list[int]],
                                     offsets: list[int], *, value_bound: int,
                                     blind_bound: int,
                                     label: str = "dotbatch") -> list[int]:
        """Batched region-query cross terms: receiver learns
        ``<alpha, beta_i> + offsets[i]`` with the holder's vector
        encrypted once for the whole batch and the replies packed
        (``value_bound`` bounds every vector's squared norm)."""
        return await secure_masked_dot_terms_batch(
            holder, alpha, receiver, betas, offsets,
            self.paillier_keys(holder.name), value_bound=value_bound,
            blind_bound=blind_bound, label=label, engine=self.engine)

    def scalar_product_lane(self, receiver: Party,
                            alphas: list[list[int]], masker: Party,
                            betas: list[list[list[int]]],
                            masks: list[list[int]], *, value_bound: int,
                            mask_bound: int,
                            label: str = "sprod") -> ScalarProductLane:
        """One lane of
        :func:`~repro.smc.scalar_product.secure_scalar_products_lanes`,
        under the receiver's key, with its public bounds."""
        return ScalarProductLane(
            receiver, alphas, masker, betas, masks,
            self.paillier_keys(receiver.name), label=label,
            value_bound=value_bound, mask_bound=mask_bound)
