"""Pass executors: how the per-peer queries of a pass's density tests run.

Every secure region query of the k-party protocol is *independent*: it
runs on its own stream (:class:`~repro.multiparty.mesh.PairStream`: own
channel, own :class:`~repro.smc.session.SmcSession` with its own pools
and comparison backend, and its own per-(pair, driver, point)
randomness stream).  A density test of a driver's point hands the
pass's executor one :class:`PeerQuery` task per peer, and each task
runs once per pass: a later test of the point (the traversal re-tests
a noise seed) gets the counts back and asks nothing.  Two executors:

- :class:`PassExecutor` -- in mesh order, one after another: the
  in-process mesh, which runs each test as its traversal reaches it.
- :class:`AsyncPassExecutor` -- one coroutine per peer under
  ``asyncio.gather`` on the daemon's event loop, so round-trips to
  different peers overlap without a thread per query; a daemon runs
  every point's first test ahead of its traversal, many at once.

Determinism contract: both executors return outcomes **in task order**
and keep each task's disclosures in a private sub-ledger that
:meth:`PassExecutor.merge_into` folds into the run ledger in (point,
peer) order -- so labels, per-pair transcripts, the leakage-ledger
event sequence, and comparison counts are bit-identical however the
queries interleaved (property-tested in
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
            An executor may run it more than once (the restartable
            async path re-executes an attempt that waited for a frame).
        query: the driver's own point the test is about -- which stream
            the query runs on.
    """

    peer: str
    run: Callable[[LeakageLedger], int]
    query: int = 0


@dataclass(frozen=True)
class PeerQueryOutcome:
    """One task's result: the count plus its private disclosure record."""

    peer: str
    count: int
    ledger: LeakageLedger


class PassExecutor:
    """Runs the density tests of one driver pass, each test's tasks in
    order; a task already run in the pass is not run again."""

    def __init__(self):
        # Process-wide scheduling accounting (executors are created per
        # pass, so per-instance counters would vanish with them);
        # instruments fetched once, incremented per density test.
        registry = default_registry()
        kind = type(self).__name__
        self._obs_passes = registry.counter(
            "repro_pass_executor_passes_total", kind=kind)
        self._obs_queries = registry.counter(
            "repro_pass_executor_queries_total", kind=kind)
        self._outcomes: dict[tuple[int, str], PeerQueryOutcome] = {}

    def run_pass(self, tasks: list[PeerQuery]) -> list[PeerQueryOutcome]:
        """Execute one density test; outcomes are returned in task order."""
        for task in self._fresh(tasks):
            self._outcomes[task.query, task.peer] = self._run_one(task)
        return [self._outcomes[task.query, task.peer] for task in tasks]

    def merge_into(self, ledger: LeakageLedger) -> None:
        """Fold every query's disclosures into ``ledger`` in (point,
        peer) order (a stable sort keeps each point's peers in task
        order)."""
        for key in sorted(self._outcomes, key=lambda key: key[0]):
            ledger.extend(self._outcomes[key].ledger)

    def _fresh(self, tasks: list[PeerQuery]) -> list[PeerQuery]:
        fresh = [task for task in tasks
                 if (task.query, task.peer) not in self._outcomes]
        self._obs_passes.inc()
        self._obs_queries.inc(len(fresh))
        return fresh

    @staticmethod
    def _run_one(task: PeerQuery) -> PeerQueryOutcome:
        ledger = LeakageLedger()
        count = task.run(ledger)
        return PeerQueryOutcome(peer=task.peer, count=count, ledger=ledger)


class AsyncPassExecutor(PassExecutor):
    """Coroutine-per-peer scheduling on the daemon's event loop.

    The daemon runtime injects ``run_query`` -- an awaitable that
    drives one task's pairwise choreography at message granularity,
    parking on its stream's frame queue instead of blocking a thread.
    ``asyncio.gather`` preserves argument order, so outcomes
    come back in task order and the merge-determinism contract of
    :class:`PassExecutor` carries over unchanged.
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
        """Execute one density test, its peers at once; outcomes in
        task order."""
        fresh = self._fresh(tasks)
        outcomes = await asyncio.gather(
            *(self._run_one_async(task) for task in fresh))
        for task, outcome in zip(fresh, outcomes):
            self._outcomes[task.query, task.peer] = outcome
        return [self._outcomes[task.query, task.peer] for task in tasks]

    async def _run_one_async(self, task: PeerQuery) -> PeerQueryOutcome:
        ledger = LeakageLedger()
        count = await self._run_query(task, ledger)
        return PeerQueryOutcome(peer=task.peer, count=count, ledger=ledger)
