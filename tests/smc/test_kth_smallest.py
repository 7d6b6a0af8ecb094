"""Tests for secure k-th order statistic selection (Section 5)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc import kth_smallest as kth_module
from repro.smc.kth_smallest import (
    SelectionError,
    kth_smallest_quickselect,
    kth_smallest_scan,
)
from repro.smc.secret_sharing import SharedValues, share_additively
from repro.smc.session import SmcConfig, SmcSession


def _setup(values, *, backend="oracle", seed=0, mask_sigma=12):
    """Build a session plus shares of ``values``."""
    alice, bob = make_party_pair(Channel(), seed, seed + 1)
    session = SmcSession(alice, bob,
                         SmcConfig(comparison=backend, key_seed=60,
                                   mask_sigma=mask_sigma,
                                   paillier_bits=128, rsa_bits=256))
    value_bound = max(values) + 1
    mask_bound = session.config.mask_bound(value_bound)
    rng = random.Random(seed + 999)
    pairs = [share_additively(v, rng, mask_bound) for v in values]
    shares = SharedValues(
        u_values=tuple(p[0] for p in pairs),
        v_values=tuple(p[1] for p in pairs),
        value_bound=value_bound,
        mask_bound=mask_bound,
    )
    return session, shares


class TestScanSelection:
    @pytest.mark.parametrize("values,k", [
        ([5], 1), ([5, 3], 1), ([5, 3], 2), ([9, 1, 5, 7, 3], 3),
        ([2, 2, 2], 2), ([10, 20, 10, 20], 3),
    ])
    def test_cases(self, values, k):
        session, shares = _setup(values, seed=k)
        [index] = drive(kth_smallest_scan(session.comparison_backend,
                                          session.alice, session.bob, [shares],
                                          [k]))
        assert values[index] == sorted(values)[k - 1]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=25),
           st.data())
    def test_random_property(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        session, shares = _setup(values, seed=k)
        [index] = drive(kth_smallest_scan(session.comparison_backend,
                                          session.alice, session.bob, [shares],
                                          [k]))
        assert values[index] == sorted(values)[k - 1]

    def test_rank_validation(self):
        session, shares = _setup([1, 2, 3])
        with pytest.raises(SelectionError, match="rank"):
            drive(kth_smallest_scan(session.comparison_backend, session.alice,
                                    session.bob, [shares], [0]))
        with pytest.raises(SelectionError, match="rank"):
            drive(kth_smallest_scan(session.comparison_backend, session.alice,
                                    session.bob, [shares], [4]))

    def test_comparison_count_is_k_scaled(self):
        values = list(range(20))
        session, shares = _setup(values)
        backend = session.comparison_backend
        drive(kth_smallest_scan(backend, session.alice, session.bob, [shares],
                                [1]))
        after_k1 = backend.invocations
        drive(kth_smallest_scan(backend, session.alice, session.bob, [shares],
                                [5]))
        after_k5 = backend.invocations - after_k1
        assert after_k1 == 19        # n - 1 comparisons for the minimum
        assert after_k5 == 19 + 18 + 17 + 16 + 15


class TestQuickselect:
    @pytest.mark.parametrize("values,k", [
        ([5], 1), ([5, 3], 1), ([9, 1, 5, 7, 3], 3), ([2, 2, 2], 2),
    ])
    def test_cases(self, values, k):
        session, shares = _setup(values, seed=k + 50)
        [index] = drive(kth_smallest_quickselect(
            session.comparison_backend, session.alice, session.bob,
            [shares], [k]))
        assert values[index] == sorted(values)[k - 1]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=25),
           st.data())
    def test_random_property(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        session, shares = _setup(values, seed=k + 7)
        [index] = drive(kth_smallest_quickselect(
            session.comparison_backend, session.alice, session.bob,
            [shares], [k]))
        assert values[index] == sorted(values)[k - 1]

    def test_rank_validation(self):
        session, shares = _setup([1])
        with pytest.raises(SelectionError, match="rank"):
            drive(kth_smallest_quickselect(session.comparison_backend,
                                           session.alice, session.bob,
                                           [shares], [2]))

    def test_expected_linear_comparisons(self):
        """For small k, quickselect should use far fewer comparisons than
        a full sort would; scan with k=n/2 should use more."""
        values = list(range(64))
        session, shares = _setup(values, seed=13)
        backend = session.comparison_backend
        drive(kth_smallest_quickselect(backend, session.alice, session.bob,
                                       [shares], [32]))
        quickselect_count = backend.invocations
        before = backend.invocations
        drive(kth_smallest_scan(backend, session.alice, session.bob, [shares],
                                [32]))
        scan_count = backend.invocations - before
        assert quickselect_count < scan_count


class TestWithCryptoBackend:
    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=2, max_size=6),
           st.data())
    def test_bitwise_backend_agrees(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        session, shares = _setup(values, backend="bitwise", seed=k,
                                 mask_sigma=8)
        [index] = drive(kth_smallest_scan(session.comparison_backend,
                                          session.alice, session.bob, [shares],
                                          [k]))
        assert values[index] == sorted(values)[k - 1]


class TestLockstep:
    """Several selections advance together: each step runs every
    comparison each unfinished selection can ask at once as one
    batch."""

    VECTORS = [([9, 1, 5, 7, 3], 3), ([4, 8, 2], 1), ([6, 6, 1, 0], 4)]

    @staticmethod
    def _shares(session, values, seed):
        mask_bound = session.config.mask_bound(10)
        rng = random.Random(seed)
        pairs = [share_additively(v, rng, mask_bound) for v in values]
        return SharedValues(u_values=tuple(p[0] for p in pairs),
                            v_values=tuple(p[1] for p in pairs),
                            value_bound=10, mask_bound=mask_bound)

    @pytest.mark.parametrize("select", [kth_smallest_scan,
                                        kth_smallest_quickselect])
    def test_each_selection_as_if_alone(self, select):
        session, _ = _setup([1], backend="bitwise", mask_sigma=8)
        shares = [self._shares(session, values, seed)
                  for seed, (values, _) in enumerate(self.VECTORS)]
        indices = drive(select(session.comparison_backend, session.alice,
                               session.bob, shares,
                               [k for _, k in self.VECTORS]))
        for (values, k), index in zip(self.VECTORS, indices):
            assert values[index] == sorted(values)[k - 1]

    def test_scan_rounds_follow_the_longest_selection(self):
        session, _ = _setup([1], backend="bitwise", mask_sigma=8)
        stats = session.alice.endpoint.stats
        shares = [self._shares(session, values, seed)
                  for seed, (values, _) in enumerate(self.VECTORS)]
        before = (stats.rounds, session.comparison_backend.invocations)
        drive(kth_smallest_scan(session.comparison_backend, session.alice,
                                session.bob, shares, [k for _,
                                                      k in self.VECTORS]))
        lengths = [k * (2 * len(values) - k - 1) // 2
                   for values, k in self.VECTORS]
        assert lengths == [9, 2, 6]
        assert stats.rounds - before[0] == 2 * max(lengths)
        assert session.comparison_backend.invocations - before[1] \
            == sum(lengths)

    def test_quickselect_asks_a_whole_partition_per_step(self):
        """One step per partition level: a lone selection's batches are
        its partitions against their pivots, n - 1 comparisons first,
        each later one from the side kept."""
        values = [(7 * i) % 31 for i in range(24)]
        session, shares = _setup(values, seed=21)
        backend = session.comparison_backend
        leq_lanes = backend.leq_lanes
        sizes = []

        def recording(lanes):
            [lane] = lanes
            sizes.append(len(lane.a_values))
            return leq_lanes(lanes)

        backend.leq_lanes = recording
        [index] = drive(kth_smallest_quickselect(backend, session.alice,
                                                 session.bob, [shares], [12]))
        assert values[index] == sorted(values)[11]
        assert sizes[0] == len(values) - 1
        assert all(later < earlier
                   for earlier, later in zip(sizes, sizes[1:]))
        assert sum(sizes) == backend.invocations
        assert len(sizes) < backend.invocations

    def test_mismatched_inputs(self):
        session, shares = _setup([1, 2, 3])
        backend = session.comparison_backend
        with pytest.raises(SelectionError, match="ranks"):
            drive(kth_smallest_scan(backend, session.alice, session.bob,
                                    [shares], [1, 2]))
        wider = SharedValues(u_values=shares.u_values,
                             v_values=shares.v_values,
                             value_bound=shares.value_bound + 1,
                             mask_bound=shares.mask_bound)
        with pytest.raises(SelectionError, match="interval"):
            drive(kth_smallest_scan(backend, session.alice, session.bob,
                                    [shares, wider], [1, 1]))
        assert drive(kth_smallest_scan(backend, session.alice, session.bob,
                                       [], [])) == []


def _recorded(monkeypatch, name):
    """Wrap the selection generator ``name`` so every run logs the pairs
    it asked per step, the answers it got and the index it returned."""
    make = getattr(kth_module, name)
    log = []

    def recording(*args):
        run = {"steps": [], "answers": [], "index": None}
        log.append(run)
        selection = make(*args)
        answers = None
        while True:
            try:
                asked = selection.send(answers)
            except StopIteration as done:
                run["index"] = done.value
                return done.value
            run["steps"].append(asked)
            answers = yield asked
            run["answers"].append(answers)

    monkeypatch.setattr(kth_module, name, recording)
    return log


class TestPivotStream:
    """Quickselect draws its pivots from a stream forked from the
    u-holder's coins before the first comparison, never from the coins
    its comparisons draw."""

    VECTORS = TestLockstep.VECTORS + [
        ([(7 * i) % 11 for i in range(12)], 6),
        ([(5 * i + 3) % 10 for i in range(9)], 2)]

    def test_the_backend_does_not_move_the_pivots(self, monkeypatch):
        """The bitwise key holder's DGK coins come from the u-holder's
        stream; the same run asks the same pairs in the same steps, gets
        the same bits and returns the same indices on both backends."""
        runs = {}
        for backend in ("oracle", "bitwise"):
            log = _recorded(monkeypatch, "_quickselect")
            session, _ = _setup([1], backend=backend, mask_sigma=8)
            shares = [TestLockstep._shares(session, values, seed)
                      for seed, (values, _) in enumerate(self.VECTORS)]
            indices = drive(kth_smallest_quickselect(
                session.comparison_backend, session.alice, session.bob,
                shares, [k for _, k in self.VECTORS]))
            for (values, k), index in zip(self.VECTORS, indices):
                assert values[index] == sorted(values)[k - 1]
            runs[backend] = (log, indices)
            monkeypatch.undo()
        assert runs["oracle"] == runs["bitwise"]
        assert any(len(run["steps"]) > 2 for run in runs["oracle"][0])


class _PivotsShown:
    """An rng that draws the pivots the requests show: every pair of a
    partition ends in its pivot, and the candidates, kept in index
    order, are the pivot and the indices asked against it."""

    def __init__(self, steps):
        self._positions = iter(
            sorted({i for i, _ in step} | {step[0][1]}).index(step[0][1])
            for step in steps)

    def randrange(self, size):
        # A replay that strayed from the requests is pruned at its next
        # request, whatever pivot it draws here.
        position = next(self._positions, 0)
        return position if position < size else 0


def _replays(make, steps, index):
    """Every answer sequence under which ``make()`` asks exactly
    ``steps`` and returns ``index``."""
    found = []

    def explore(prefix):
        selection = make()
        answers = None
        try:
            for depth in range(len(prefix) + 1):
                asked = selection.send(answers)
                if depth == len(steps) or asked != steps[depth]:
                    return
                answers = prefix[depth] if depth < len(prefix) else None
        except StopIteration as done:
            if depth == len(prefix) == len(steps) and done.value == index:
                found.append(prefix)
            return
        for answers in itertools.product([False, True],
                                         repeat=len(steps[len(prefix)])):
            explore(prefix + [list(answers)])

    explore([])
    return found


#: The public selection code a peer replays (bound at import, before
#: any test wraps it).
_SCAN, _QUICKSELECT = kth_module._scan, kth_module._quickselect


def _peer_rebuilds(selection, n, steps, index):
    """What the v-holder can rebuild, knowing only its vector length,
    the pairs it is asked for and the index whose share it supplies to
    the final core test: every ``(k, answers)`` consistent with them."""
    def make(k):
        if selection == "scan":
            return lambda: _SCAN(n, k)
        return lambda: _QUICKSELECT(n, k, _PivotsShown(steps))
    return [(k, answers) for k in range(1, n + 1)
            for answers in _replays(make(k), steps, index)]


class TestWhatThePeerWouldLearn:
    """The pairs depend on the order bits only the u-holder learns, and
    the v-holder needs each pair to form ``v_i - v_j`` and the k-th
    index to supply ``v_kth``.  Handed those, a v-holder in its own
    process would rebuild the order bits: every one of a scan's (the
    last one up to whether k is n - 1 or n, which give the same count),
    and each quickselect partition's split up to which side is the
    smaller."""

    VECTORS = [[9, 1, 5, 7, 3, 8], [4, 4, 2, 6, 0], [5, 3, 3, 8]]

    @pytest.mark.parametrize("selection", ["scan", "quickselect"])
    def test_the_requested_pairs_give_the_order_bits_away(
            self, monkeypatch, selection):
        name = "_scan" if selection == "scan" else "_quickselect"
        select = (kth_smallest_scan if selection == "scan"
                  else kth_smallest_quickselect)
        log = _recorded(monkeypatch, name)
        cases = [(values, k) for values in self.VECTORS
                 for k in range(1, len(values) + 1)]
        session, _ = _setup([1], seed=22)
        shares = [TestLockstep._shares(session, values, seed)
                  for seed, (values, _) in enumerate(cases)]
        drive(select(session.comparison_backend, session.alice, session.bob,
                     shares, [k for _, k in cases]))
        assert len(log) == len(cases)
        for (values, k), run in zip(cases, log):
            n = len(values)
            assert values[run["index"]] == sorted(values)[k - 1]
            rebuilt = _peer_rebuilds(selection, n, run["steps"],
                                     run["index"])
            assert (k, run["answers"]) in rebuilt
            for _, answers in rebuilt:
                if selection == "scan" and k <= n - 2:
                    assert answers == run["answers"]
                elif selection == "scan":
                    assert answers[:-1] == run["answers"][:-1]
                else:
                    for seen, truth in zip(answers[:-1],
                                           run["answers"][:-1]):
                        assert seen in (truth, [not a for a in truth])
