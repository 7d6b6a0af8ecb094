"""Message-granularity pass execution on the daemon event loop.

The daemon runtime used to burn one worker thread per session: the
session's driver pass ran the blocking mirrored choreography on a
dedicated thread, and each blocking ``collect`` parked that thread on a
future.  At 64 concurrent sessions that is 64 threads doing nothing but
waiting.  This module removes them: the *unchanged, synchronous*
choreographies run inline on the event loop, and the thing that parks
when a frame has not arrived yet is a **coroutine**, not a thread.

Restartable execution
---------------------

Python cannot suspend a plain synchronous call stack from underneath
(no continuations without C extensions), so the trick is re-execution
of a deterministic prefix, applied at message granularity:

1. A per-peer secure query runs inline.  Channel sends by the local
   party execute in full (serialize, record, deliver).  A *remote*
   send -- the substitution point where a blocking channel would wait
   on the socket -- instead polls the per-(session, pair)
   frame queue; if the authentic frame has not arrived, the channel
   raises :class:`NeedFrame`.
2. The pair runtime catches it, rolls the pair's mutable state (party
   RNGs, randomness pools, comparison counter, cipher cache) back to
   the snapshot taken at query start, and ``await``\\ s the frame --
   yielding the event loop to every other session's coroutines.
3. When the frame arrives, the query re-executes *from its start*.
   The channel's frame log doubles as the replay record: frames the
   previous attempt already produced are byte-verified and suppressed
   (outbound) or served from the log (inbound), so the wire sees every
   frame exactly once and stats/transcripts record each frame exactly
   once, on its live execution.

Re-execution costs repeated local compute (bounded by the handful of
round-trips per query), and buys a daemon whose thread count is
independent of its session count.  Determinism makes it sound: a
restarted attempt with restored state re-produces byte-identical
frames, which the replay check enforces rather than assumes.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Awaitable, Callable

from repro.clustering.expansion import expand_clusters
from repro.clustering.labels import ClusterLabels
from repro.core.leakage import LeakageLedger
from repro.multiparty.horizontal import point_queries
from repro.multiparty.scheduler import AsyncPassExecutor, PeerQuery
from repro.net.serialization import serialize_message
from repro.net.transport import ProtocolDesyncError
from repro.obs.metrics import NULL_INSTRUMENT
from repro.obs.trace import NULL_SPAN
from repro.runtime.mirror import MirrorChannel, MirrorChannelError


class NeedFrame(Exception):
    """A remote-send substitution found the frame queue empty.

    Internal control flow of the restartable runner -- never escapes
    :meth:`PairRuntime.run`.  Carries the label the choreography is
    waiting for, for diagnostics and the awaited-frame message.
    """

    def __init__(self, label: str):
        super().__init__(label)
        self.label = label


class ReplayDivergenceError(ProtocolDesyncError):
    """A re-executed attempt produced different bytes than its log.

    Determinism is the soundness condition of restartable execution;
    this error means restored state did not reproduce the recorded
    wire view -- a bug, never a recoverable condition.
    """


class RestartableMirrorChannel(MirrorChannel):
    """A mirror channel whose remote-send substitution never blocks.

    Same mirrored-choreography semantics as :class:`MirrorChannel`
    (see its module docstring); the difference is confined to where
    the authentic frame comes from:

    - within the replayed prefix of the current query (``_cursor``
      below the frame-log high-water mark), outbound frames are
      byte-verified against the log and **not** re-delivered, inbound
      frames are served **from** the log -- stats and transcript are
      untouched, they recorded these frames on their live execution;
    - past the prefix, a local send runs the full live path, and a
      remote send polls the staged frame (delivered while the runner
      was parked) or the transport's non-blocking ``try_collect`` --
      raising :class:`NeedFrame` instead of blocking a thread.
    """

    #: Live-vs-replayed segment accounting (``repro_segment_frames``)
    #: -- the daemon rebinds these to real counters per pair; the class
    #: defaults keep non-instrumented channels at one no-op call.
    obs_live = NULL_INSTRUMENT
    obs_replayed = NULL_INSTRUMENT

    def __init__(self, left_name: str, right_name: str, local_name: str,
                 transport):
        super().__init__(left_name, right_name, local_name, transport)
        # Frames collected by the parked runner, to serve on the next
        # attempt's first live remote-send.
        self._staged: deque[tuple[str, bytes]] = deque()
        self._replay_base = 0
        self._cursor = 0
        self._inbox_snapshot: tuple = ()

    # -- restart protocol ---------------------------------------------------

    def begin_query(self) -> None:
        """Pin the replay base: frames logged before this point are
        settled history and never replayed."""
        self._replay_base = len(self.frame_log)
        self._inbox_snapshot = tuple(self._remote_inbox)

    def begin_attempt(self) -> None:
        """Rewind to the query start: replay cursor to base, inbox to
        its query-start contents (an aborted attempt leaves it
        mid-choreography)."""
        self._cursor = self._replay_base
        self._remote_inbox.clear()
        self._remote_inbox.extend(self._inbox_snapshot)

    def stage(self, item: tuple[str, bytes]) -> None:
        """Hand the runner's awaited frame to the next attempt."""
        self._staged.append(item)

    # -- Channel protocol ---------------------------------------------------

    def _send(self, sender: str, receiver: str, label: str, value) -> None:
        if self._closed:
            raise MirrorChannelError("channel is closed")
        if self._cursor < len(self.frame_log):
            self._replay(sender, label, value)
            return
        if sender == self.local_name:
            super()._send(sender, receiver, label, value)
            self._cursor = len(self.frame_log)
            self.obs_live.inc()
            return
        # Live remote send: the staged frame (collected while parked)
        # first, then whatever the pump has queued; never block.
        if self._staged:
            authentic_label, wire = self._staged.popleft()
        else:
            item = self.transport.try_collect(self.local_name, label)
            if item is None:
                raise NeedFrame(label)
            authentic_label, wire = item
        if authentic_label != label:
            raise ProtocolDesyncError(
                f"cross-process desync on "
                f"{self.local_name!r}<->{self.remote_name!r}: this "
                f"choreography reached {sender}'s send of {label!r} but "
                f"the peer process sent {authentic_label!r}")
        self.stats.record(sender, receiver, label, len(wire))
        self.transcript.record(sender, receiver, label, wire)
        self._remote_inbox.append((label, wire))
        self.frame_log.append(("in", label, wire))
        self._cursor = len(self.frame_log)
        self.obs_live.inc()

    def _replay(self, sender: str, label: str, value) -> None:
        direction, logged_label, logged_wire = self.frame_log[self._cursor]
        expected = "out" if sender == self.local_name else "in"
        if direction != expected or logged_label != label:
            raise ReplayDivergenceError(
                f"restart divergence on "
                f"{self.local_name!r}<->{self.remote_name!r}: attempt "
                f"reached {expected!r} {label!r} but the log recorded "
                f"{direction!r} {logged_label!r} at position "
                f"{self._cursor}")
        if sender == self.local_name:
            # Already on the wire and in stats/transcript: only verify.
            wire = serialize_message(value)
            if wire != logged_wire:
                raise ReplayDivergenceError(
                    f"restart divergence on "
                    f"{self.local_name!r}<->{self.remote_name!r}: "
                    f"re-executed send of {label!r} produced different "
                    f"bytes than the delivered frame "
                    f"({len(wire)} vs {len(logged_wire)} bytes)")
        else:
            self._remote_inbox.append((label, logged_wire))
        self._cursor += 1
        self.obs_replayed.inc()


class PairRuntime:
    """Restartable executor for one (session, pair) stream's choreography
    -- a peer's key announcement, or one density test's query over the
    pair.

    Owns the snapshot/restore of everything a re-executed attempt
    mutates: both parties' RNG states, every randomness pool (factors,
    counters, and the pool's forked RNG), the comparison backend's
    invocation counter, and the peer cipher cache.  Restoration is
    total -- even a background pool deposit that landed mid-attempt is
    rolled back with the pool RNG, so re-generation stays consistent.
    """

    #: Restart/parked accounting; the daemon rebinds these to its
    #: registry's instruments, non-instrumented runtimes stay no-op.
    obs_restarts = NULL_INSTRUMENT
    obs_parked = NULL_INSTRUMENT

    def __init__(self, channel: RestartableMirrorChannel, link,
                 lease=None):
        self.channel = channel
        self.link = link
        self.lease = lease
        self.session = None
        self.cache = None
        self.restarts = 0
        # Set once the peer's keys are adopted (an asyncio.Event), or
        # None: a parked attempt awaits it before its frame wait.
        self.peer_keys = None

    def _capture(self):
        session = self.session
        if session is None:
            return None
        pools = {}
        for key, pool in session._pools.items():
            pools[key] = (tuple(pool._factors), pool.pregenerated,
                          pool.consumed, pool.misses, pool.rng.getstate())
        return {
            "rngs": {name: session.party(name).rng.getstate()
                     for name in (session.alice.name, session.bob.name)},
            "pools": pools,
            "invocations": session.comparison_backend.invocations,
            "cache": (dict(self.cache.ciphers)
                      if self.cache is not None else None),
        }

    def _restore(self, state) -> None:
        if state is None:
            return
        session = self.session
        for name, rng_state in state["rngs"].items():
            session.party(name).rng.setstate(rng_state)
        for key, (factors, pregenerated, consumed, misses,
                  rng_state) in state["pools"].items():
            pool = session._pools[key]
            pool._factors.clear()
            pool._factors.extend(factors)
            pool.pregenerated = pregenerated
            pool.consumed = consumed
            pool.misses = misses
            pool.rng.setstate(rng_state)
        session.comparison_backend.invocations = state["invocations"]
        if self.cache is not None:
            self.cache.ciphers.clear()
            self.cache.ciphers.update(state["cache"])

    async def run(self, fn: Callable[[LeakageLedger], object],
                  out_ledger: LeakageLedger | None = None,
                  span=NULL_SPAN):
        """Run ``fn`` to completion, re-executing on :class:`NeedFrame`.

        ``fn`` receives a fresh ledger per attempt (an aborted attempt
        must leave no disclosure records); the successful attempt's
        records are folded into ``out_ledger``.  While an attempt is in
        flight the lease is flagged busy, so the service's idle refill
        never deposits into a pool between snapshot and restore.
        ``span`` (a peer-query span) gets one child per attempt; parked
        attempts record the frame label they waited for.  A parked
        attempt's ``timeout_s`` frame wait starts only once
        :attr:`peer_keys` is set: the peer announces its keys before it
        sends any frame of the pair, so this adds no wait, and a silent
        peer fails the session at its announcement alone.
        """
        if self.lease is not None:
            self.lease.busy += 1
        try:
            self.channel.begin_query()
            snapshot = self._capture()
            attempt = 0
            while True:
                attempt += 1
                self.channel.begin_attempt()
                attempt_span = span.child("attempt", f"attempt{attempt}",
                                          attempt=attempt)
                attempt_ledger = LeakageLedger()
                try:
                    result = fn(attempt_ledger)
                except NeedFrame as need:
                    self.restarts += 1
                    self.obs_restarts.inc()
                    self._restore(snapshot)
                    attempt_span.set(parked_on=need.label)
                    attempt_span.close()
                    self.obs_parked.inc()
                    try:
                        if self.peer_keys is not None:
                            await self.peer_keys.wait()
                        self.channel.stage(await self.link.wait_message(
                            f"frame {need.label!r}"))
                    finally:
                        self.obs_parked.dec()
                    continue
                attempt_span.close()
                if out_ledger is not None:
                    out_ledger.extend(attempt_ledger)
                return result
        finally:
            if self.lease is not None:
                self.lease.busy -= 1


#: Points one pass role works on at once: it bounds the restart
#: snapshots in flight and the segments a parked frame waits behind.
POINTS_IN_FLIGHT = 3


async def run_points(count: int, cached: bool,
                     run_one: Callable[[int], Awaitable]) -> list:
    """The one schedule of a pass role, at both ends of its queries:
    ``run_one`` on points ``0 .. count-1`` started in point order, at
    most :data:`POINTS_IN_FLIGHT` at once, so the lowest point either
    end has not finished is in flight at both; results in point order.
    With ``cached`` peer ciphertexts point 0 runs alone first -- its
    queries fill the caches the others read."""
    results = [None] * count
    first = 1 if cached and count else 0
    if first:
        results[0] = await run_one(0)
    pending = iter(range(first, count))

    async def lane() -> None:
        for point in pending:
            results[point] = await run_one(point)

    await asyncio.gather(*(lane() for _ in range(POINTS_IN_FLIGHT)))
    return results


async def drive_pass_async(
        mesh, driver_name: str, points_by_party: dict[str, list], config,
        value_bound: int, ledger: LeakageLedger, caches,
        run_query: Callable[[PeerQuery, LeakageLedger], Awaitable[int]],
) -> ClusterLabels:
    """One driver pass at message granularity: each own point's
    per-peer queries (the :func:`~repro.multiparty.horizontal.point_queries`
    tasks) as one :meth:`AsyncPassExecutor.run_pass_async` test, the
    points on the :func:`run_points` schedule, then the in-process
    expansion over the counts.  ``run_query`` (the daemon's pair
    runtimes, in tests a thread) executes each task; the outcomes are
    merged into ``ledger`` in (point, peer) order."""
    executor = AsyncPassExecutor(run_query)
    own = points_by_party[driver_name]

    async def density_test(point_index: int) -> int:
        return sum(outcome.count for outcome in await executor.run_pass_async(
            point_queries(mesh, driver_name, point_index, points_by_party,
                          config, value_bound, caches)))

    counts = await run_points(len(own), caches is not None, density_test)
    executor.merge_into(ledger)
    return expand_clusters(
        own, config.eps_squared,
        lambda point_index, own_count: own_count + counts[point_index]
        >= config.min_pts)


__all__ = [
    "NeedFrame",
    "POINTS_IN_FLIGHT",
    "PairRuntime",
    "ReplayDivergenceError",
    "RestartableMirrorChannel",
    "drive_pass_async",
    "run_points",
]
