"""Pass executors: how the per-peer queries of one density test run.

Within one driver pass of the k-party protocol, the per-peer secure
region queries are *independent*: each runs over the driver's own
stream to that peer (:class:`~repro.multiparty.mesh.PairStream`: own
channel, own :class:`~repro.smc.session.SmcSession` with its own pools
and comparison backend, and its own per-(pair, driver) randomness
stream).  The driver hands every density test a list of
:class:`PeerQuery` tasks; two executors run them:

- :class:`PassExecutor` -- in mesh order, one after another: the
  in-process mesh.
- :class:`AsyncPassExecutor` -- one coroutine per peer under
  ``asyncio.gather`` on the daemon's event loop, so round-trips to
  different peers overlap without a thread per query.

Determinism contract: both executors return outcomes **in task order**
and record each task's disclosures into a private sub-ledger that the
caller merges in task order -- so labels, per-pair transcripts, the
leakage-ledger event sequence, and comparison counts are bit-identical
however the queries interleaved (property-tested in
``tests/multiparty/test_scheduler.py``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.core.leakage import LeakageLedger
from repro.obs.metrics import default_registry


class SchedulerError(ValueError):
    """Raised when an executor is driven the wrong way."""


@dataclass(frozen=True)
class PeerQuery:
    """One peer's secure region query within a driver pass.

    Attributes:
        peer: the queried peer's name (merge order follows task order).
        run: executes the pairwise protocol, recording every disclosure
            into the supplied sub-ledger; returns the neighbour count.
        prepare: fired exactly once per task, before ``run`` -- the
            query announcement (``begin_peer_query``).  Split out of
            ``run`` so an executor that may *re-execute* ``run`` (the
            restartable async path) never re-announces the query.
    """

    peer: str
    run: Callable[[LeakageLedger], int]
    prepare: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class PeerQueryOutcome:
    """One task's result: the count plus its private disclosure record."""

    peer: str
    count: int
    ledger: LeakageLedger


class PassExecutor:
    """Runs the tasks of one pass in order."""

    def __init__(self):
        # Process-wide scheduling accounting (executors are created per
        # run/session, so per-instance counters would vanish with
        # them); instruments fetched once, incremented per pass.
        registry = default_registry()
        kind = type(self).__name__
        self._obs_passes = registry.counter(
            "repro_pass_executor_passes_total", kind=kind)
        self._obs_queries = registry.counter(
            "repro_pass_executor_queries_total", kind=kind)

    def run_pass(self, tasks: list[PeerQuery]) -> list[PeerQueryOutcome]:
        """Execute one pass; outcomes are returned in task order."""
        self._obs_passes.inc()
        self._obs_queries.inc(len(tasks))
        return [self._run_one(task) for task in tasks]

    @staticmethod
    def _run_one(task: PeerQuery) -> PeerQueryOutcome:
        task.prepare()
        ledger = LeakageLedger()
        count = task.run(ledger)
        return PeerQueryOutcome(peer=task.peer, count=count, ledger=ledger)


class AsyncPassExecutor(PassExecutor):
    """Coroutine-per-peer scheduling on the daemon's event loop.

    The daemon runtime injects ``run_query`` -- an awaitable that
    drives one task's pairwise choreography at message granularity,
    parking on the per-(session, pair) frame queue instead of blocking
    a thread.  ``asyncio.gather`` preserves argument order, so outcomes
    come back in task order and the merge-determinism contract of
    :class:`PassExecutor` carries over unchanged.

    ``prepare`` fires exactly once per task here, *outside* ``run`` --
    the restartable channel may re-execute the query body, and the
    query announcement must not repeat.
    """

    def __init__(self, run_query: Callable[
            [PeerQuery, LeakageLedger], Awaitable[int]]):
        super().__init__()
        self._run_query = run_query

    def run_pass(self, tasks: list[PeerQuery]) -> list[PeerQueryOutcome]:
        raise SchedulerError(
            "AsyncPassExecutor schedules passes on the event loop; "
            "await run_pass_async() instead of calling run_pass()")

    async def run_pass_async(
            self, tasks: list[PeerQuery]) -> list[PeerQueryOutcome]:
        """Execute one pass concurrently; outcomes in task order."""
        self._obs_passes.inc()
        self._obs_queries.inc(len(tasks))
        return list(await asyncio.gather(
            *(self._run_one_async(task) for task in tasks)))

    async def _run_one_async(self, task: PeerQuery) -> PeerQueryOutcome:
        task.prepare()
        ledger = LeakageLedger()
        count = await self._run_query(task, ledger)
        return PeerQueryOutcome(peer=task.peer, count=count, ledger=ledger)
