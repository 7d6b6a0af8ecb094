"""Pairwise session mesh for k-party protocols.

Each physical party has one set of key material, reused across all of
its pairwise channels; each unordered pair of parties gets its own
in-process channel (with its own transcript) and an
:class:`SmcSession` over it.  Global statistics are the merge of the
pairwise channels.

Per-pair randomness: a party's coin tosses on the link to peer ``P``
come from a dedicated substream derived deterministically from the
party's seed and the canonical pair key (SHA-256 of
``seed | party | pair``).  The seed-era mesh handed *one*
``random.Random`` per party to all of its pairwise channels, which made
the draw sequence depend on the order the pairwise protocols happened
to interleave -- harmless while driver passes visited peers strictly
sequentially, but a data race the moment two pairwise sessions run
concurrently (the daemon's coroutine-per-peer passes).  With
substreams, concurrent and sequential executions draw bit-identical
randomness per pair, so labels, per-pair transcripts, and ledgers match
exactly (property-tested in ``tests/multiparty/test_scheduler.py``).
"""

from __future__ import annotations

import random

from repro.net.party import Party
from repro.net.transport import derive_seeded_stream
from repro.net.stats import CommunicationStats
from repro.smc.session import (
    CryptoContext,
    FullKeyProvider,
    SmcConfig,
    SmcSession,
    channel_for_config,
)


def derive_pair_rng(seed: int | None, party: str, left: str,
                    right: str,
                    namespace: str | None = None) -> random.Random:
    """A party's private RNG substream for one pairwise link.

    Derived (via :func:`~repro.net.transport.derive_seeded_stream`) by
    hashing the party seed with the party's own name and the canonical
    (ordered) pair key, so the stream is (a) deterministic under a
    seed, (b) distinct per (party, pair), and (c) independent of *when*
    the pair's protocol runs relative to the party's other pairs --
    which is also what lets the PR-5 socket runtime re-derive the exact
    same coins in every party process.  ``None`` stays
    nondeterministic.

    ``namespace`` adds a further derivation level for multi-session
    deployments: a daemon serving many clustering sessions derives each
    session's coins from (seed, namespace=session id, party, pair), so
    two sessions sharing seeds never share a coin stream.  ``None``
    keeps the legacy per-(party, pair) stream -- the default everywhere,
    so all existing single-session equivalences are unchanged.
    """
    if namespace is None:
        return derive_seeded_stream(seed, party, left, right)
    return derive_seeded_stream(seed, "session", namespace, party, left,
                                right)


class MeshError(ValueError):
    """Raised for degenerate meshes or unknown parties."""


class PartyMesh:
    """``k`` parties, a channel and session per unordered pair.

    Args:
        names: distinct party names, e.g. ``["party0", "party1", ...]``.
        config: shared cryptographic configuration.
        seeds: optional per-party RNG seeds (parallel to ``names``).
        rng_namespace: optional per-session derivation tag threaded into
            every :func:`derive_pair_rng` call (see there); ``None``
            keeps the legacy streams.
    """

    def __init__(self, names: list[str], config: SmcConfig,
                 seeds: list[int | None] | None = None,
                 rng_namespace: str | None = None,
                 key_provider=None):
        if len(names) < 2:
            raise MeshError("a mesh needs at least two parties")
        if len(set(names)) != len(names):
            raise MeshError(f"duplicate party names in {names}")
        if seeds is not None and len(seeds) != len(names):
            raise MeshError("seeds must parallel names")
        self.names = list(names)
        # name -> position, so the hot pair-ordering path is two dict
        # hits instead of two O(k) list scans per routed lookup.
        self._slots = {name: slot for slot, name in enumerate(self.names)}
        self.config = config
        self.rng_namespace = rng_namespace
        self._seeds = {name: (seeds[index] if seeds else None)
                       for index, name in enumerate(names)}
        # Party-level stream: key generation only (pairwise channels use
        # derive_pair_rng substreams -- see module docstring).
        self._rngs = {
            name: random.Random(seed) for name, seed in self._seeds.items()
        }
        # Key material goes through a provider so the runtime layers can
        # swap the trust model (sealed peer contexts) without touching
        # the mesh wiring; the default derives every party's full
        # keypair exactly as before.
        self._key_provider = key_provider or FullKeyProvider(config)
        self._contexts = {
            name: self._make_context(name, slot)
            for slot, name in enumerate(names)
        }
        self._channels: dict[tuple[str, str], Channel] = {}
        self._sessions: dict[tuple[str, str], SmcSession] = {}
        self._parties: dict[tuple[str, str], dict[str, Party]] = {}
        for index, left in enumerate(names):
            for right in names[index + 1:]:
                self._build_pair(left, right)

    def _make_context(self, name: str, slot: int) -> CryptoContext:
        return self._key_provider.context_for(name, slot, self._rngs[name])

    def _build_pair(self, left: str, right: str) -> None:
        channel = channel_for_config(self.config, left, right)
        left_party = Party(
            channel.left, derive_pair_rng(self._seeds[left], left,
                                          left, right,
                                          namespace=self.rng_namespace))
        right_party = Party(
            channel.right, derive_pair_rng(self._seeds[right], right,
                                           left, right,
                                           namespace=self.rng_namespace))
        session = SmcSession(left_party, right_party, self.config,
                             preset_contexts=self._contexts)
        key = (left, right)
        self._channels[key] = channel
        self._sessions[key] = session
        self._parties[key] = {left: left_party, right: right_party}

    def _pair_key(self, a: str, b: str) -> tuple[str, str]:
        if a == b:
            raise MeshError(f"{a!r} cannot pair with itself")
        for name in (a, b):
            if name not in self._slots:
                raise MeshError(f"unknown party {name!r}")
        return (a, b) if self._slots[a] < self._slots[b] else (b, a)

    def session_between(self, a: str, b: str) -> SmcSession:
        return self._sessions[self._pair_key(a, b)]

    def party_in_pair(self, name: str, peer: str) -> Party:
        """The :class:`Party` handle ``name`` uses when talking to ``peer``."""
        return self._parties[self._pair_key(name, peer)][name]

    def peers_of(self, name: str) -> list[str]:
        if name not in self.names:
            raise MeshError(f"unknown party {name!r}")
        return [other for other in self.names if other != name]

    def precompute_pools(self, factors: "int | dict") -> None:
        """Offline phase across the whole mesh.

        ``factors`` is either one count applied to every (actor, key)
        pair of every pairwise session, or a
        ``{(left, right): session_plan}`` mapping keyed like
        :meth:`pool_report` -- e.g. the consumption a probe run
        reported.  Refills run through each session's engine; every
        distinct engine is warmed up first so the pool-spawn latency is
        paid here, in the offline phase, not by the first online batch.
        """
        for engine in {id(session.engine): session.engine
                       for session in self._sessions.values()}.values():
            engine.warm_up()
        if isinstance(factors, int):
            for session in self._sessions.values():
                session.precompute_pools(factors)
            return
        for pair, plan in factors.items():
            self._sessions[self._pair_key(*pair)].precompute_pools(plan)

    def begin_peer_query(self, driver_name: str, peer_name: str) -> None:
        """Runtime hook: one per-peer secure query is about to start.

        The in-process mesh needs no announcement -- both parties live
        here -- so this is a no-op.  The socket runtime's mesh view
        overrides it to emit the control frame that tells the peer
        process to enter the query choreography (the driver's pass
        structure is data-dependent, so the peer cannot infer it).
        Called once per scheduler task, just before its ``run``, so the
        announcement and the query's protocol frames stay ordered per
        link however the executor interleaves peers.
        """

    def pool_report(self) -> dict:
        """Per-pair pool accounting: ``{(left, right): session_report}``."""
        return {pair: session.pool_report()
                for pair, session in sorted(self._sessions.items())}

    def merged_stats(self) -> CommunicationStats:
        total = CommunicationStats()
        for channel in self._channels.values():
            total.merge(channel.stats)
        return total

    def pair_stats(self, a: str, b: str) -> CommunicationStats:
        return self._channels[self._pair_key(a, b)].stats

    def pair_transcripts(self) -> dict:
        """``{(left, right): transcript}`` over every pair, sorted."""
        return {pair: channel.transcript
                for pair, channel in sorted(self._channels.items())}

    @property
    def size(self) -> int:
        return len(self.names)
