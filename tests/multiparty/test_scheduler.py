"""Equivalence of in-order vs overlapping mesh passes.

The PR-4 binding property: running the per-peer region queries of a
driver pass concurrently -- the daemon's :class:`AsyncPassExecutor`,
here with each query body on a worker thread so the pairwise sessions
truly overlap -- must change **nothing** observable about the protocol:
bit-identical labels for every party, identical leakage-ledger event
sequences, identical per-pair transcripts, identical comparison counts.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.runtime.async_pass import drive_pass_async
from repro.smc.session import SmcConfig

points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=1, max_size=5)


def _config(backend="oracle", *, blind=False, min_pts=3, key_seed=240):
    return ProtocolConfig(
        eps=1.5, min_pts=min_pts, scale=1,
        smc=SmcConfig(comparison=backend, key_seed=key_seed, mask_sigma=8,
                      paillier_bits=128),
        blind_cross_sum=blind)


class _ThreadedPair:
    """Stands in for the daemon's ``PairRuntime``: runs each query body
    on a worker thread, so the queries of one pass overlap for real."""

    async def run(self, body, ledger, span=None):
        return await asyncio.to_thread(body, ledger)


def _run_concurrent(points, config, mesh) -> MultipartyRunResult:
    """``run_multiparty_horizontal_dbscan`` with the daemon's pass
    driver: every density test's peer queries under ``asyncio.gather``."""
    all_points = [point for pts in points.values() for point in pts]
    value_bound = squared_distance_bound(all_points, all_points)
    ledger = LeakageLedger()
    labels_by_party = {}
    for driver in points:
        runtimes = {peer: _ThreadedPair() for peer in mesh.peers_of(driver)}
        labels = asyncio.run(drive_pass_async(
            mesh, driver, points, config, value_bound, ledger, None,
            runtimes))
        labels_by_party[driver] = labels.as_tuple()
    names = list(points)
    comparisons = sum(
        mesh.session_between(a, b).comparison_backend.invocations
        for index, a in enumerate(names) for b in names[index + 1:])
    return MultipartyRunResult(
        labels_by_party=labels_by_party, ledger=ledger,
        stats=mesh.merged_stats().snapshot(), comparisons=comparisons)


def _run(points, seeds, *, concurrent, **kwargs):
    config = _config(**kwargs)
    mesh = PartyMesh(list(points), config.smc, seeds=seeds)
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
    assert _pair_transcript_values(left_mesh) \
        == _pair_transcript_values(right_mesh)


def _threaded(task, ledger):
    return asyncio.to_thread(task.run, ledger)


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

    def test_unseeded_stays_nondeterministic(self):
        assert derive_pair_rng(None, "a", "a", "b").random() \
            != derive_pair_rng(None, "a", "a", "b").random()


def _noop_tasks(count):
    return [PeerQuery(peer=f"p{i}", run=lambda ledger: 1)
            for i in range(count)]


class TestPrepareHook:
    def test_prepare_fires_once_before_run(self):
        calls = []

        def make_task(name):
            def run(ledger):
                calls.append(("run", name))
                return 0
            return PeerQuery(peer=name, run=run,
                             prepare=lambda: calls.append(
                                 ("prepare", name)))

        PassExecutor().run_pass(
            [make_task("p0"), make_task("p1")])
        assert calls == [("prepare", "p0"), ("run", "p0"),
                         ("prepare", "p1"), ("run", "p1")]


class TestAsyncPassExecutor:
    def test_run_pass_is_refused(self):
        executor = AsyncPassExecutor(lambda task, ledger: None)
        with pytest.raises(SchedulerError, match="run_pass_async"):
            executor.run_pass(_noop_tasks(2))

    def test_outcomes_in_task_order_and_prepare_once_per_task(self):
        """Even when the injected runner re-executes a task's ``run``
        (the restartable path), ``prepare`` fires exactly once."""
        calls = []

        def make_task(name):
            def run(ledger):
                calls.append(("run", name))
                return ord(name[-1])
            return PeerQuery(peer=name, run=run,
                             prepare=lambda: calls.append(
                                 ("prepare", name)))

        async def run_query(task, ledger):
            await asyncio.sleep(0)
            task.run(ledger)       # first attempt, restarted
            return task.run(ledger)

        executor = AsyncPassExecutor(run_query)
        tasks = [make_task("p0"), make_task("p1")]
        outcomes = asyncio.run(executor.run_pass_async(tasks))
        assert [outcome.peer for outcome in outcomes] == ["p0", "p1"]
        assert [outcome.count for outcome in outcomes] \
            == [ord("0"), ord("1")]
        assert calls.count(("prepare", "p0")) == 1
        assert calls.count(("prepare", "p1")) == 1
        assert calls.count(("run", "p0")) == 2
        assert asyncio.run(executor.run_pass_async([])) == []
