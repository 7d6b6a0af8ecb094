"""Pairwise session mesh for k-party protocols.

Each physical party has one set of key material, reused across all of
its pairwise channels.  Each unordered pair of parties gets one
key-exchange channel and session (the public keys cross once per pair,
:func:`~repro.smc.session.exchange_public_keys`) plus one **stream per
density test**: the channel, parties and :class:`SmcSession` that one
driver's query on one of its own points runs on, to the pair's other
party.  A stream has its own transcript and stats, its own coins and
its own comparison counter, so no two queries share mutable state and
every query of every pass may run at the same time.  A stream is built
on first use (:meth:`PartyMesh.stream`); a peer with no points is
never queried and gets none.

Coins: a party's coin tosses on a stream come from a dedicated
substream derived from the party's seed, the canonical pair key, the
stream's driver and the driver's point index (SHA-256 of
``seed | party | pair | driver | query``); every Paillier factor of the
stream is drawn from them, by the step that needs it.  One generator
shared by several streams would hand out its draws in whatever order
the streams happened to interleave; with per-(pair, driver, query)
substreams a stream draws the same coins whenever it runs -- alone,
next to the pass's other queries, or next to the other drivers' passes
-- so labels, transcripts and ledgers match exactly (property-tested
in ``tests/multiparty/test_scheduler.py``).

Accounting: a pair's transcript and stats are the *canonical
concatenation* of its key exchange -- the left party's announcement,
then the right party's -- and its streams, pass by pass in slot order
and each pass's queries in point order (:func:`link_accounting`); the
rounds of that concatenation are the link's sequential count
(:meth:`CommunicationStats.extend`), however the streams were
scheduled.  Here the two announcements share the pair's key channel; a
daemon records each on its own channel, because the two cross the link
at the same time, and reports the same concatenation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.channel import drive
from repro.net.party import Party
from repro.net.stats import CommunicationStats
from repro.net.transcript import Transcript
from repro.net.transport import derive_seeded_stream
from repro.smc.session import (
    CryptoContext,
    FullKeyProvider,
    SmcConfig,
    SmcSession,
    channel_for_config,
    exchange_public_keys,
)


def derive_pair_rng(seed: int | None, party: str, left: str,
                    right: str,
                    namespace: str | None = None, *,
                    driver: str | None = None,
                    query: int | None = None) -> random.Random:
    """A party's private RNG substream for one pairwise link.

    Derived (via :func:`~repro.net.transport.derive_seeded_stream`) by
    hashing the party seed with the party's own name and the canonical
    (ordered) pair key, so the stream is (a) deterministic under a
    seed, (b) distinct per (party, pair), and (c) independent of *when*
    the pair's protocol runs relative to the party's other pairs --
    which is also what lets every daemon re-derive the exact same coins
    for the party it hosts.  ``None`` stays nondeterministic.

    ``namespace`` adds a further derivation level for multi-session
    deployments: a daemon serving many clustering sessions derives each
    session's coins from (seed, namespace=session id, party, pair), so
    two sessions sharing seeds never share a coin stream.  ``None``
    keeps the per-(party, pair) stream.

    ``driver`` and ``query`` name the stream: the coins of ``driver``'s
    density test on its own point ``query``, over the pair (see
    :class:`PairStream`).  ``driver=None`` is the pair's own stream,
    which only the key exchange uses.
    """
    stream = () if driver is None else ("driver", driver, "query", query)
    if namespace is None:
        return derive_seeded_stream(seed, party, left, right, *stream)
    return derive_seeded_stream(seed, "session", namespace, party, left,
                                right, *stream)


class MeshError(ValueError):
    """Raised for degenerate meshes or unknown parties."""


@dataclass
class PairStream:
    """One density test's query over one pair: ``driver``'s query on its
    own point ``query``.

    Its own channel (transcript and stats), both parties with coins
    keyed by (pair, driver, query), and a session on the pair's
    exchanged key contexts with its own comparison counter.
    The in-process mesh builds them over in-process channels, a daemon
    over its mirror channels; :func:`build_stream` is the one
    constructor.
    """

    driver: str
    query: int
    channel: object
    parties: dict[str, Party]
    session: SmcSession


def build_stream(contexts: dict[str, CryptoContext], config: SmcConfig,
                 channel, driver: str, query: int, seeds: dict,
                 namespace: str | None = None) -> PairStream:
    """The stream of ``driver``'s query on its point ``query`` over
    ``channel``'s pair.

    ``contexts`` maps party name to the key material the pair's key
    exchange established (shared by the pair's streams, never
    re-exchanged); ``seeds`` maps party name to its seed.  Only that one
    query ever runs on the stream, so the coins each side draws on it
    depend on nothing that happens on the pair's other streams.
    """
    left, right = channel.left.name, channel.right.name
    parties = {
        endpoint.name: Party(endpoint, derive_pair_rng(
            seeds[endpoint.name], endpoint.name, left, right,
            namespace=namespace, driver=driver, query=query))
        for endpoint in (channel.left, channel.right)}
    return PairStream(driver, query, channel, parties,
                      SmcSession(parties[left], parties[right], config,
                                 preset_contexts=contexts))


def link_accounting(channels) -> tuple[CommunicationStats, Transcript]:
    """One pair's stats and transcript: its channels concatenated in the
    given (canonical pass) order -- the key exchange first (the left
    party's announcement, then the right party's), then the streams,
    pass by pass in slot order and each pass's queries in point order.
    Both ends of a link and the in-process mesh
    concatenate in that order, so the result does not depend on how the
    announcements and streams interleaved in time."""
    stats, transcript = CommunicationStats(), Transcript()
    for channel in channels:
        stats.extend(channel.stats)
        transcript.extend(channel.transcript)
    return stats, transcript


class PartyMesh:
    """``k`` parties; per unordered pair a key exchange and one stream
    per (driver, own point) query.

    Args:
        names: distinct party names, e.g. ``["party0", "party1", ...]``;
            their order is the pass order.
        config: shared cryptographic configuration.
        seeds: optional per-party RNG seeds (parallel to ``names``).
        rng_namespace: optional per-session derivation tag threaded into
            every :func:`derive_pair_rng` call (see there); ``None``
            keeps the un-namespaced streams.
    """

    def __init__(self, names: list[str], config: SmcConfig,
                 seeds: list[int | None] | None = None,
                 rng_namespace: str | None = None):
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
        keys = FullKeyProvider(config)
        self._contexts = {
            name: keys.context_for(name, slot, self._rngs[name])
            for slot, name in enumerate(names)
        }
        self._channels: dict[tuple[str, str], object] = {}
        self._sessions: dict[tuple[str, str], SmcSession] = {}
        self._parties: dict[tuple[str, str], dict[str, Party]] = {}
        # pair -> {(driver, query): stream}, filled on first use.
        self._streams: dict[tuple[str, str],
                            dict[tuple[str, int], PairStream]] = {}
        for index, left in enumerate(names):
            for right in names[index + 1:]:
                self._build_pair(left, right)

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
        drive(exchange_public_keys(left_party, right_party, self._contexts,
                                   self.config.paillier_bits))
        session = SmcSession(left_party, right_party, self.config,
                             preset_contexts=self._contexts)
        key = (left, right)
        self._channels[key] = channel
        self._sessions[key] = session
        self._parties[key] = {left: left_party, right: right_party}
        self._streams[key] = {}

    def _pair_key(self, a: str, b: str) -> tuple[str, str]:
        if a == b:
            raise MeshError(f"{a!r} cannot pair with itself")
        for name in (a, b):
            if name not in self._slots:
                raise MeshError(f"unknown party {name!r}")
        return (a, b) if self._slots[a] < self._slots[b] else (b, a)

    def session_between(self, a: str, b: str) -> SmcSession:
        """The pair's key-exchange session (the queries run on
        :meth:`stream`)."""
        return self._sessions[self._pair_key(a, b)]

    def party_in_pair(self, name: str, peer: str) -> Party:
        """The :class:`Party` ``name`` uses on the key-exchange channel
        to ``peer``."""
        return self._parties[self._pair_key(name, peer)][name]

    def stream(self, driver: str, peer: str, query: int) -> PairStream:
        """The stream ``driver``'s density test on its own point
        ``query`` asks ``peer`` on, built on first use."""
        pair = self._pair_key(driver, peer)
        streams = self._streams[pair]
        stream = streams.get((driver, query))
        if stream is None:
            stream = streams[(driver, query)] = build_stream(
                self._contexts, self.config,
                channel_for_config(self.config, *pair), driver, query,
                self._seeds, self.rng_namespace)
        return stream

    def _ordered_streams(self, pair: tuple[str, str]) -> list[PairStream]:
        """The pair's streams in canonical order: pass by pass in slot
        order, each pass's queries in point order."""
        streams = self._streams[pair]
        return [streams[key] for key in sorted(
            streams, key=lambda key: (self._slots[key[0]], key[1]))]

    def _stream_sessions(self) -> list[SmcSession]:
        return [stream.session for streams in self._streams.values()
                for stream in streams.values()]

    def peers_of(self, name: str) -> list[str]:
        if name not in self.names:
            raise MeshError(f"unknown party {name!r}")
        return [other for other in self.names if other != name]

    def pool_report(self) -> dict:
        """Empty: the offline randomness pools are gone.  Kept only
        because the layered benchmark's harness still reads it (ROADMAP
        direction 1)."""
        return {}

    def _pair_channels(self, pair: tuple[str, str]) -> list:
        return [self._channels[pair]] + [
            stream.channel for stream in self._ordered_streams(pair)]

    def comparisons(self) -> int:
        """Secure-comparison invocations over every session."""
        return sum(session.comparison_backend.invocations
                   for session in (*self._sessions.values(),
                                   *self._stream_sessions()))

    def merged_stats(self) -> CommunicationStats:
        total = CommunicationStats()
        for pair in self._channels:
            total.merge(link_accounting(self._pair_channels(pair))[0])
        return total

    def pair_stats(self, a: str, b: str) -> CommunicationStats:
        return link_accounting(self._pair_channels(self._pair_key(a, b)))[0]

    def pair_transcripts(self) -> dict:
        """``{(left, right): transcript}`` over every pair, sorted; each
        the pair's canonical pass-order concatenation."""
        return {pair: link_accounting(self._pair_channels(pair))[1]
                for pair in sorted(self._channels)}

    @property
    def size(self) -> int:
        return len(self.names)
