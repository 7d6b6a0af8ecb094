"""Equivalence of in-order vs overlapping mesh passes.

The binding property: running every region query of a driver pass at
once -- the daemon's :class:`AsyncPassExecutor` over all own points,
here with each query body on a worker thread so the pairwise sessions
truly overlap -- and running all k driver passes at once, each query on
its own per-(pair, driver, point) stream, must change **nothing**
observable about the protocol: bit-identical labels for every party,
identical leakage-ledger event sequences, identical per-pair
transcripts, identical comparison counts and stats, rounds included.
"""

import asyncio
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.quantize import squared_distance_bound
from repro.multiparty.horizontal import (
    MultipartyRunResult,
    run_multiparty_horizontal_dbscan,
)
from repro.multiparty.mesh import PartyMesh, derive_pair_rng
from repro.multiparty.scheduler import (
    AsyncPassExecutor,
    PassExecutor,
    PeerQuery,
    SchedulerError,
)
from repro.runtime.async_pass import (
    POINTS_IN_FLIGHT,
    drive_pass_async,
    run_points,
)
from repro.smc.session import SmcConfig

points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=1, max_size=5)
# Up to four parties, any of which may hold no points.
parties_strategy = st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.lists(st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),
                  st.integers(min_value=0, max_value=30)),
        min_size=0, max_size=4), min_size=k, max_size=k))


def _config(backend="oracle", *, blind=False, min_pts=3, key_seed=240):
    return ProtocolConfig(
        eps=1.5, min_pts=min_pts, scale=1,
        smc=SmcConfig(comparison=backend, key_seed=key_seed, mask_sigma=8,
                      paillier_bits=128),
        blind_cross_sum=blind)


def _threaded(task, ledger):
    """Stands in for the daemon's pair runtimes: runs each query body
    on a worker thread, so the queries of one pass overlap for real."""
    return asyncio.to_thread(task.run, ledger)


def _run_concurrent(points, config, mesh) -> MultipartyRunResult:
    """``run_multiparty_horizontal_dbscan`` with the daemon's pass
    driver: every query of a pass at once."""
    all_points = [point for pts in points.values() for point in pts]
    value_bound = squared_distance_bound(all_points, all_points)
    ledger = LeakageLedger()
    labels_by_party = {}
    for driver in points:
        labels = asyncio.run(drive_pass_async(
            mesh, driver, points, config, value_bound, ledger, None,
            _threaded))
        labels_by_party[driver] = labels.as_tuple()
    return MultipartyRunResult(
        labels_by_party=labels_by_party, ledger=ledger,
        stats=mesh.merged_stats().snapshot(),
        comparisons=mesh.comparisons())


def _run_overlapped(points, config, mesh) -> MultipartyRunResult:
    """Every driver's pass at once, as a daemon runs them: k
    ``drive_pass_async`` coroutines under one ``asyncio.gather``, every
    query body on its own worker thread and its own stream.  Each pass
    records into its own ledger, merged in pass order."""
    all_points = [point for pts in points.values() for point in pts]
    value_bound = squared_distance_bound(all_points, all_points)
    ledgers = {driver: LeakageLedger() for driver in points}

    async def all_passes():
        return await asyncio.gather(*(
            drive_pass_async(
                mesh, driver, points, config, value_bound,
                ledgers[driver], None, _threaded)
            for driver in points))

    # A short switch interval makes the query threads interleave at
    # bytecode granularity, so a draw shared between streams would race.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        labels = asyncio.run(all_passes())
    finally:
        sys.setswitchinterval(interval)
    ledger = LeakageLedger()
    for driver in points:
        ledger.extend(ledgers[driver])
    return MultipartyRunResult(
        labels_by_party={driver: result.as_tuple()
                         for driver, result in zip(points, labels)},
        ledger=ledger, stats=mesh.merged_stats().snapshot(),
        comparisons=mesh.comparisons())


def _run(points, seeds, *, concurrent, **kwargs):
    config = _config(**kwargs)
    mesh = PartyMesh(list(points), config.smc, seeds=seeds)
    if concurrent == "passes":
        return _run_overlapped(points, config, mesh), mesh
    if concurrent:
        return _run_concurrent(points, config, mesh), mesh
    return run_multiparty_horizontal_dbscan(points, config, mesh=mesh), mesh


def _pair_transcript_values(mesh):
    return {pair: [(e.sender, e.receiver, e.label, e.value)
                   for e in transcript.entries]
            for pair, transcript in mesh.pair_transcripts().items()}


def _assert_equivalent(left, left_mesh, right, right_mesh):
    assert left.labels_by_party == right.labels_by_party
    assert left.ledger.events == right.ledger.events
    assert left.comparisons == right.comparisons
    assert left.stats == right.stats
    assert _pair_transcript_values(left_mesh) \
        == _pair_transcript_values(right_mesh)


class TestConcurrentEqualsSequential:
    @settings(max_examples=10, deadline=None)
    @given(points_strategy, points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5), st.booleans())
    def test_three_parties_property(self, p0, p1, p2, min_pts, blind):
        points = {"p0": p0, "p1": p1, "p2": p2}
        sequential = _run(points, [1, 2, 3], concurrent=False,
                          min_pts=min_pts, blind=blind)
        concurrent = _run(points, [1, 2, 3], concurrent=True,
                          min_pts=min_pts, blind=blind)
        _assert_equivalent(*sequential, *concurrent)

    @pytest.mark.parametrize("blind", [False, True])
    def test_real_crypto_three_parties(self, blind):
        points = {
            "p0": [(0, 0), (30, 30)],
            "p1": [(1, 0)],
            "p2": [(0, 1), (31, 30)],
        }
        sequential = _run(points, [1, 2, 3], backend="bitwise",
                          concurrent=False, blind=blind)
        concurrent = _run(points, [1, 2, 3], backend="bitwise",
                          concurrent=True, blind=blind)
        _assert_equivalent(*sequential, *concurrent)

    @pytest.mark.parametrize("blind", [False, True])
    def test_four_parties(self, blind):
        points = {
            "h0": [(0, 0), (1, 0)],
            "h1": [(0, 1)],
            "h2": [(1, 1), (20, 20)],
            "h3": [(21, 20), (0, 2)],
        }
        sequential = _run(points, [1, 2, 3, 4], concurrent=False,
                          min_pts=4, blind=blind)
        concurrent = _run(points, [1, 2, 3, 4], concurrent=True,
                          min_pts=4, blind=blind)
        _assert_equivalent(*sequential, *concurrent)

    def test_two_parties(self):
        """k=2: one task per pass; the executor must still behave."""
        points = {"a": [(0, 0), (1, 0)], "b": [(0, 1)]}
        sequential = _run(points, [1, 2], concurrent=False)
        concurrent = _run(points, [1, 2], concurrent=True)
        _assert_equivalent(*sequential, *concurrent)


class TestAllPassesAtOnce:
    """The k driver passes overlap: each runs on its own per-(pair,
    driver) streams, so running them all at once is bit-identical to
    the sequential mesh -- stats and rounds included, because each
    pair reports its streams concatenated in pass order."""

    @settings(max_examples=12, deadline=None)
    @given(parties_strategy, st.integers(min_value=1, max_value=5),
           st.booleans())
    @example([[(0, 0), (1, 1)], [], [(0, 1)], [(1, 0), (30, 30)]], 2,
             False)
    def test_property_k2_to_k4_with_empty_parties(self, parties, min_pts,
                                                  blind):
        assume(any(parties))
        points = {f"p{index}": own for index, own in enumerate(parties)}
        seeds = list(range(1, len(parties) + 1))
        sequential = _run(points, seeds, concurrent=False,
                          min_pts=min_pts, blind=blind)
        overlapped = _run(points, seeds, concurrent="passes",
                          min_pts=min_pts, blind=blind)
        _assert_equivalent(*sequential, *overlapped)

    def test_real_crypto_three_parties_with_an_empty_party(self):
        points = {
            "p0": [(0, 0), (30, 30)],
            "p1": [],
            "p2": [(0, 1), (1, 1), (31, 30)],
        }
        sequential = _run(points, [1, 2, 3], backend="bitwise",
                          concurrent=False)
        overlapped = _run(points, [1, 2, 3], backend="bitwise",
                          concurrent="passes")
        _assert_equivalent(*sequential, *overlapped)
        assert sequential[0].stats["rounds"] > 0


class TestExecutorUnit:
    def test_tasks_truly_run_concurrently(self):
        """Not just formula-level overlap: a two-party barrier only
        releases if both tasks are in flight at the same moment, so a
        regression to serial execution deadlocks the barrier and fails
        (BrokenBarrierError) instead of silently reporting overlap."""
        import threading

        barrier = threading.Barrier(2, timeout=10)

        def rendezvous(ledger):
            barrier.wait()
            return 1

        executor = AsyncPassExecutor(_threaded)
        outcomes = asyncio.run(executor.run_pass_async(
            [PeerQuery(peer="p0", run=rendezvous),
             PeerQuery(peer="p1", run=rendezvous)]))
        assert [outcome.count for outcome in outcomes] == [1, 1]

    def test_outcomes_in_task_order_even_with_reversed_finish(self):
        import time

        def make_task(name, delay):
            def run(ledger):
                time.sleep(delay)
                ledger.record("t", name, Disclosure.NEIGHBOR_BIT)
                return ord(name[-1])
            return PeerQuery(peer=name, run=run)

        executor = AsyncPassExecutor(_threaded)
        outcomes = asyncio.run(executor.run_pass_async(
            [make_task("p0", 0.05), make_task("p1", 0.0)]))
        assert [outcome.peer for outcome in outcomes] == ["p0", "p1"]
        assert [outcome.ledger.events[0].learner
                for outcome in outcomes] == ["p0", "p1"]

    def test_empty_pass(self):
        executor = PassExecutor()
        assert executor.run_pass([]) == []


class TestPairRngDerivation:
    def test_deterministic_and_distinct(self):
        one = derive_pair_rng(7, "a", "a", "b")
        again = derive_pair_rng(7, "a", "a", "b")
        assert one.random() == again.random()
        assert derive_pair_rng(7, "a", "a", "c").random() \
            != derive_pair_rng(7, "a", "a", "b").random()
        assert derive_pair_rng(7, "b", "a", "b").random() \
            != derive_pair_rng(7, "a", "a", "b").random()
        assert derive_pair_rng(8, "a", "a", "b").random() \
            != derive_pair_rng(7, "a", "a", "b").random()

    def test_streams_distinct_per_query_index(self):
        """Each density test's stream draws its own coins: per query
        index, apart from the pair's own stream, reproducible alone."""
        draws = [derive_pair_rng(7, "a", "a", "b", driver="a",
                                 query=query).random()
                 for query in range(4)]
        assert len(set(draws)) == 4
        assert derive_pair_rng(7, "a", "a", "b").random() not in draws
        assert derive_pair_rng(7, "a", "a", "b", driver="b",
                               query=0).random() != draws[0]
        assert derive_pair_rng(7, "a", "a", "b", driver="a",
                               query=2).random() == draws[2]

    def test_unseeded_stays_nondeterministic(self):
        assert derive_pair_rng(None, "a", "a", "b").random() \
            != derive_pair_rng(None, "a", "a", "b").random()


def _noop_tasks(count):
    return [PeerQuery(peer=f"p{i}", run=lambda ledger: 1)
            for i in range(count)]


class TestAsyncPassExecutor:
    def test_run_pass_is_refused(self):
        executor = AsyncPassExecutor(lambda task, ledger: None)
        with pytest.raises(SchedulerError, match="run_pass_async"):
            executor.run_pass(_noop_tasks(2))

    def test_outcomes_in_order_when_a_run_repeats(self):
        """The restartable path re-executes a task's ``run``: each task
        still yields one outcome, in task order, with the last run's
        count."""
        calls = []

        def make_task(name, query):
            def run(ledger):
                calls.append(name)
                return ord(name[-1])
            return PeerQuery(peer=name, run=run, query=query)

        async def run_query(task, ledger):
            await asyncio.sleep(0)
            task.run(ledger)       # first attempt, restarted
            return task.run(ledger)

        executor = AsyncPassExecutor(run_query)
        tasks = [make_task("p0", 3), make_task("p1", 3)]
        outcomes = asyncio.run(executor.run_pass_async(tasks))
        assert [outcome.peer for outcome in outcomes] == ["p0", "p1"]
        assert [outcome.count for outcome in outcomes] \
            == [ord("0"), ord("1")]
        assert calls.count("p0") == calls.count("p1") == 2
        assert asyncio.run(executor.run_pass_async([])) == []


class TestRunPoints:
    """The one schedule of a pass role: points started in point order,
    a bounded window of them at once, results in point order."""

    def test_window_and_order(self):
        count = 3 * POINTS_IN_FLIGHT + 1
        started, running, peak = [], [0], [0]

        async def run_one(point):
            started.append(point)
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            # Later points finish first within a window.
            await asyncio.sleep(0.001 * (count - point))
            running[0] -= 1
            return point * 10

        results = asyncio.run(run_points(count, False, run_one))
        assert results == [point * 10 for point in range(count)]
        assert started == list(range(count))
        assert peak[0] == POINTS_IN_FLIGHT

    def test_cached_point_zero_runs_alone_first(self):
        events = []

        async def run_one(point):
            events.append(("start", point))
            await asyncio.sleep(0)
            events.append(("end", point))
            return point

        assert asyncio.run(run_points(4, True, run_one)) == [0, 1, 2, 3]
        assert events[:2] == [("start", 0), ("end", 0)]
        assert asyncio.run(run_points(0, True, run_one)) == []

    def test_two_ends_with_windows_never_stall(self):
        """A query progresses only while both ends have it in flight;
        both ends start in point order, so however their queries finish
        the lowest unfinished query is always in flight at both."""
        count = 4 * POINTS_IN_FLIGHT + 3
        rng = random.Random(7)

        async def both_ends():
            present = {end: [asyncio.Event() for _ in range(count)]
                       for end in ("driver", "responder")}
            delays = {end: [rng.random() * 0.002 for _ in range(count)]
                      for end in present}

            def end_of(end, other):
                async def run_one(point):
                    present[end][point].set()
                    await asyncio.wait_for(present[other][point].wait(), 5)
                    await asyncio.sleep(delays[end][point])
                    return point
                return run_one

            return await asyncio.gather(
                run_points(count, False, end_of("driver", "responder")),
                run_points(count, False, end_of("responder", "driver")))

        driver, responder = asyncio.run(both_ends())
        assert driver == responder == list(range(count))
