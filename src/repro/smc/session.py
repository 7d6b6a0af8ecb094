"""Per-run SMC session: keys, configuration, and protocol entry points.

A :class:`SmcSession` is created once per distributed-DBSCAN run.  It

- generates (or deterministically caches) each party's Paillier, DGK
  and RSA key material,
- performs the one-time public-key exchange over the channel so key
  bytes are charged to the communication accounting exactly once,
- exposes the protocol primitives (comparison, multiplication, scalar
  products, k-th smallest) with party lookup by name, so the DBSCAN
  layers never touch raw key objects.
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
from repro.crypto.precompute import RandomnessPool
from repro.crypto.rsa import RsaKeyPair, generate_rsa_keypair
from repro.crypto.sealed import (
    is_sealed,
    public_key_digest,
    seal_dgk_keypair,
    seal_paillier_keypair,
)
from repro.net.channel import Channel
from repro.net.party import Party
from repro.smc.comparison import (
    ComparisonOutcome,
    SecureComparison,
    make_comparison_backend,
)
from repro.smc.kth_smallest import kth_smallest_quickselect, kth_smallest_scan
from repro.smc.multiplication import secure_multiplication
from repro.smc.scalar_product import (
    secure_masked_dot_terms,
    secure_masked_dot_terms_batch,
    secure_scalar_products,
)
from repro.smc.secret_sharing import SharedValues


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
        precompute: enable per-(actor, key) randomness pools (the
            offline/online split).  Pools change only *when* the
            ``r^n mod n^2`` powmods happen -- never the protocol
            semantics or disclosures; empty pools generate on demand.
            Call :meth:`SmcSession.precompute_pools` to move that work
            into an offline phase.  Off = seed-era behaviour, useful for
            ablations.
        engine: a :class:`~repro.crypto.engine.ModexpEngine` executing
            the Paillier layer's bulk modexp work (pool refills, batch
            encrypt/decrypt) and YMPP's RSA sweep; the DGK comparison
            runs no engine jobs.  ``None`` uses the shared
            serial engine -- identical results, one process.  Supply
            ``ModexpEngine(workers=k)`` to shard those jobs across
            ``k`` worker processes.
    """

    paillier_bits: int = 256
    rsa_bits: int = 512
    comparison: str = "bitwise"
    mask_sigma: int = 16
    faithful_shared_r: bool = False
    key_seed: int | None = None
    precompute: bool = True
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


def sealed_peer_context(owner: str, expected_digest: str | None = None, *,
                        with_dgk: bool = False) -> CryptoContext:
    """Key context for a party that is *remote* in this process.

    Holds sealed keypairs with placeholder public keys until the
    session's key exchange captures the owner's authentic public keys
    from the wire (the mirrored choreography discards the placeholder
    send unserialized, so the placeholder never reaches any peer).
    The private halves never exist here at all.  ``with_dgk`` expects a
    DGK key in the announcement (the ``bitwise`` comparison).
    """
    placeholder = PaillierPublicKey(n=0, g=0)
    dgk = (seal_dgk_keypair(DgkPublicKey(n=0, g=0, h=0), owner)
           if with_dgk else None)
    return CryptoContext(paillier=seal_paillier_keypair(placeholder, owner),
                         dgk=dgk, expected_digest=expected_digest)


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

    ``preset_contexts`` lets callers inject pre-generated key material --
    the multi-party mesh reuses one keypair per physical party across all
    of its pairwise sessions.
    """

    alice: Party
    bob: Party
    config: SmcConfig = field(default_factory=SmcConfig)
    preset_contexts: dict | None = None

    def __post_init__(self):
        if self.alice.name == self.bob.name:
            raise SessionError("parties must have distinct names")
        preset = self.preset_contexts or {}
        self._contexts = {
            self.alice.name: preset.get(self.alice.name) or
            self._make_context(self.alice, slot=0),
            self.bob.name: preset.get(self.bob.name) or
            self._make_context(self.bob, slot=1),
        }
        self._exchange_public_keys()
        # Every (actor, key_owner) pool is created eagerly, in fixed
        # order, each with its own RNG stream *forked* from the actor's
        # protocol RNG at this pinned point.  The fork is what makes
        # pool refills timing-invariant: a pool filled in the
        # background (the daemon's RandomnessService), filled up front,
        # or filled on demand produces the same factor sequence,
        # because pool draws no longer interleave with the party's
        # protocol coin draws.  Pooling therefore only reorders work in
        # time -- the bit-identity contract across runtimes holds
        # whatever the refill schedule.  A party's pool under its own
        # key gets the private key when this process holds it (an owner
        # pool: same factors, computed by CRT).
        self._pools: dict[tuple[str, str], RandomnessPool] = {}
        if self.config.precompute:
            for actor in (self.alice, self.bob):
                for owner in (self.alice, self.bob):
                    keys = self._contexts[owner.name].paillier
                    owned = (actor is owner
                             and not is_sealed(keys.private_key))
                    self._pools[(actor.name, owner.name)] = RandomnessPool(
                        keys.public_key,
                        random.Random(actor.rng.getrandbits(128)),
                        keys.private_key if owned else None)
        self.engine: ModexpEngine = self.config.engine or default_engine()
        alice_ctx = self._contexts[self.alice.name]
        bob_ctx = self._contexts[self.bob.name]
        rsa_keys = ({self.alice.name: alice_ctx.rsa,
                     self.bob.name: bob_ctx.rsa}
                    if alice_ctx.rsa is not None and bob_ctx.rsa is not None
                    else None)
        self.comparison_backend: SecureComparison = make_comparison_backend(
            self.config.comparison,
            rsa_keys=rsa_keys,
            dgk_keys={self.alice.name: alice_ctx.dgk,
                      self.bob.name: bob_ctx.dgk},
            engine=self.engine,
        )

    # -- key management ----------------------------------------------------

    def _make_context(self, party: Party, slot: int) -> CryptoContext:
        cfg = self.config
        if cfg.key_seed is not None:
            return _derive_context(cfg, seed=2 * cfg.key_seed + slot)
        return _derive_context(cfg, rng=party.rng)

    def _exchange_public_keys(self) -> None:
        """Send each party's public keys to the peer, once, accounted.

        The Paillier announcement is ``[n, g]``, followed by the DGK
        public key ``n, g, h`` when the context has one.  For a sealed
        peer context (mirrored runtime) the owner is not hosted: its
        placeholder send only marks where the mirror substitutes the
        authentic announcement from the wire, which the hosted peer
        receives; the sealed context adopts those public keys after
        checking their shape and cross-checking them against the
        manifest's pinned digest.
        """
        for party, peer in ((self.alice, self.bob), (self.bob, self.alice)):
            context = self._contexts[party.name]
            public = context.paillier.public_key
            announcement = [public.n, public.g]
            if context.dgk is not None:
                dgk = context.dgk.public_key
                announcement += [dgk.n, dgk.g, dgk.h]
            party.send("keys/paillier_pub", announcement)
            if peer.hosted:
                announced = peer.receive("keys/paillier_pub")
                if is_sealed(context.paillier.private_key):
                    self._adopt_peer_public(party.name, context, announced,
                                            self.config.paillier_bits)
            if context.rsa is not None:
                party.send("keys/rsa_pub",
                           [context.rsa.public_key.n, context.rsa.public_key.e])
                if peer.hosted:
                    peer.receive("keys/rsa_pub")

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

    def paillier_keys(self, name: str) -> PaillierKeyPair:
        return self._contexts[self.party(name).name].paillier

    # -- randomness pools (offline/online split) ----------------------------

    def pool(self, actor: "Party | str",
             key_owner: "Party | str") -> RandomnessPool | None:
        """Randomness pool for ``actor`` encrypting under ``key_owner``'s key.

        Pools are keyed by both coordinates because each party draws its
        encryption randomness from its *own* forked pool stream, but may
        encrypt under either Paillier key (e.g. the HDP masker encrypts
        under the querier's key).  All four pools exist from session
        construction (see ``__post_init__``); ``None`` when
        ``precompute`` is disabled, which every pooled primitive treats
        as "generate fresh".
        """
        if not self.config.precompute:
            return None
        actor_name = actor if isinstance(actor, str) else actor.name
        owner_name = key_owner if isinstance(key_owner, str) else key_owner.name
        return self._pools[(self.party(actor_name).name,
                            self.party(owner_name).name)]

    def precompute_pools(self, factors: "int | dict") -> None:
        """Offline phase: pregenerate encryption/rerandomization factors.

        ``factors`` is either one count applied to every (actor, key)
        combination or a ``{(actor, key_owner): count}`` plan -- e.g. the
        consumption a probe run reported via :meth:`pool_report`.  The
        refills run through the session's engine, so a multi-worker
        engine shards this offline phase across processes.
        """
        if not self.config.precompute:
            raise SessionError(
                "precompute_pools requires SmcConfig(precompute=True)")
        names = (self.alice.name, self.bob.name)
        if isinstance(factors, int):
            plan = {(actor, owner): factors
                    for actor in names for owner in names}
        else:
            plan = factors
        for (actor, owner), count in plan.items():
            if count > 0:
                self.engine.fill_pool(self.pool(actor, owner), count)

    def pool_report(self) -> dict[tuple[str, str], dict[str, int]]:
        """Per-pool accounting: pregenerated/consumed/misses/available."""
        return {key: pool.report()
                for key, pool in sorted(self._pools.items())}

    def pools(self) -> dict[tuple[str, str], RandomnessPool]:
        """The live pool objects, keyed ``(actor, key_owner)`` in fixed
        creation order -- what the daemon's randomness service registers
        under a session lease."""
        return dict(self._pools)

    # -- protocol entry points ----------------------------------------------

    def compare_leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
                    lo: int, hi: int, reveal_to: str = "both",
                    label: str = "cmp") -> ComparisonOutcome:
        """Secure ``a <= b`` through the configured backend."""
        return self.comparison_backend.leq(
            a_party, a, b_party, b, lo=lo, hi=hi, reveal_to=reveal_to,
            label=label)

    def compare_leq_batch(self, a_party: Party, a_values: list[int],
                          b_party: Party, b_values: list[int], *,
                          lo: int, hi: int, reveal_to: str = "both",
                          amortize: bool = False,
                          label: str = "cmp") -> list[ComparisonOutcome]:
        """Batched ``a_i <= b_i``: one invocation per pair.  With
        ``amortize`` the caller declares the learning party's side
        constant (public protocol structure), letting the backend share
        one bit-encryption and round-trip across the whole batch -- see
        :meth:`SecureComparison.leq_batch`."""
        return self.comparison_backend.leq_batch(
            a_party, a_values, b_party, b_values, lo=lo, hi=hi,
            reveal_to=reveal_to, amortize=amortize, label=label)

    def multiplication(self, receiver: Party, x: int, masker: Party, y: int,
                       mask: int, *, label: str = "mult") -> int:
        """Algorithm 2: receiver learns ``x*y + mask``."""
        return secure_multiplication(
            receiver, x, masker, y, mask,
            self.paillier_keys(receiver.name), label=label,
            faithful_shared_r=self.config.faithful_shared_r,
            receiver_pool=self.pool(receiver, receiver),
            masker_pool=self.pool(masker, receiver))

    def masked_dot_terms(self, receiver: Party, x_vector: list[int],
                         masker: Party, y_vector: list[int],
                         masks: list[int], *,
                         label: str = "dot") -> list[int]:
        """HDP inner loop: receiver learns each ``x_t*y_t + r_t``."""
        return secure_masked_dot_terms(
            receiver, x_vector, masker, y_vector, masks,
            self.paillier_keys(receiver.name), label=label,
            receiver_pool=self.pool(receiver, receiver),
            masker_pool=self.pool(masker, receiver),
            engine=self.engine)

    def masked_dot_terms_batch(self, holder: Party, alpha: list[int],
                               receiver: Party, betas: list[list[int]],
                               offsets: list[int], *, blind_bound: int,
                               label: str = "dotbatch") -> list[int]:
        """Batched region-query cross terms: receiver learns
        ``<alpha, beta_i> + offsets[i]`` with the holder's vector
        encrypted once for the whole batch."""
        return secure_masked_dot_terms_batch(
            holder, alpha, receiver, betas, offsets,
            self.paillier_keys(holder.name), blind_bound=blind_bound,
            label=label,
            holder_pool=self.pool(holder, holder),
            receiver_pool=self.pool(receiver, holder),
            engine=self.engine)

    def scalar_products(self, receiver: Party, alpha: list[int],
                        masker: Party, betas: list[list[int]],
                        masks: list[int], *,
                        label: str = "sprod") -> list[int]:
        """Section 5 batched sharing: receiver learns ``<alpha, b_i> + v_i``."""
        return secure_scalar_products(
            receiver, alpha, masker, betas, masks,
            self.paillier_keys(receiver.name), label=label,
            receiver_pool=self.pool(receiver, receiver),
            masker_pool=self.pool(masker, receiver),
            engine=self.engine)

    def kth_smallest(self, u_party: Party, v_party: Party,
                     shares: SharedValues, k: int, *,
                     method: str = "scan",
                     label: str = "kselect") -> int:
        """Section 5 selection; ``method`` is ``"scan"`` or ``"quickselect"``."""
        if method == "scan":
            return kth_smallest_scan(
                self.comparison_backend, u_party, v_party, shares, k,
                label=label)
        if method == "quickselect":
            return kth_smallest_quickselect(
                self.comparison_backend, u_party, v_party, shares, k,
                label=label)
        raise SessionError(f"unknown selection method {method!r}")
