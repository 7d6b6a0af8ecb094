"""Message-granularity pass execution on the daemon event loop.

A daemon runs every session's choreographies on its event loop as
coroutines: what waits when a frame has not arrived yet is the query's
coroutine, not a thread, so a daemon serving 64 concurrent sessions
needs no thread per session.

Suspendable execution
---------------------

Every choreography is an ``async def`` whose sends are awaited
(:mod:`repro.net.channel`).  On a daemon each per-peer secure query runs
once, as one coroutine, through :meth:`PairRuntime.run`:

1. A send by the local party executes in full (serialize, record,
   deliver) and never waits.
2. A *remote* send -- the substitution point where the mirror takes
   the peer's authentic frame (:mod:`repro.runtime.mirror`) -- takes the
   frame that has already arrived on the per-(session, pair) queue.
   When it has not, the channel awaits it: first the peer's keys being
   adopted, then the queue, bounded by ``timeout_s``.  The coroutine
   suspends at that ``await`` and the event loop serves every other
   session's coroutines until the frame lands.
3. The query resumes where it stopped, so the wire, stats and the
   transcript see every frame once and nothing is computed twice: no
   snapshot, no rollback, no replay.

The daemon's thread count stays independent of its session count.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.clustering.expansion import expand_clusters
from repro.clustering.labels import ClusterLabels
from repro.core.leakage import LeakageLedger
from repro.multiparty.horizontal import point_queries
from repro.multiparty.scheduler import AsyncPassExecutor, PeerQuery
from repro.obs.trace import NULL_SPAN
from repro.runtime.mirror import MirrorChannel


#: The daemons' mirror channel under the name the benchmark's probes
#: look up (``RestartableMirrorChannel._send``); nothing restarts.
RestartableMirrorChannel = MirrorChannel


class PairRuntime:
    """Runs one (session, pair) stream's query -- a density test's
    query over the pair -- on its
    :class:`~repro.runtime.mirror.MirrorChannel`.

    A query runs once: where a peer frame has not arrived, its
    coroutine suspends in the channel.  :meth:`_capture` and
    :meth:`_restore` snapshot nothing; they stay because the
    benchmark's probes look their names up.
    """

    def __init__(self, channel: MirrorChannel):
        self.channel = channel

    def _capture(self) -> None:
        """An empty hook (class docstring)."""

    def _restore(self, state) -> None:
        """An empty hook (class docstring)."""

    async def run(self, fn: Callable[[LeakageLedger], Awaitable],
                  out_ledger: LeakageLedger | None = None,
                  span=NULL_SPAN):
        """Await the choreography ``fn(ledger)`` to its end, recording
        into ``out_ledger`` (a throwaway ledger when ``None``); ``span``
        (a peer-query span) gets one ``attempt`` child for the run."""
        with span.child("attempt", "attempt1", attempt=1):
            return await fn(out_ledger if out_ledger is not None
                            else LeakageLedger())


#: Points one pass role works on at once: it bounds the streams in
#: flight (their sessions and coins) and the queries a frame queues
#: behind on the loop.
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
    "POINTS_IN_FLIGHT",
    "PairRuntime",
    "drive_pass_async",
    "run_points",
]
