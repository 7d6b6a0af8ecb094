"""Tests for secure k-th order statistic selection (Section 5)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.channel import Channel
from repro.net.party import make_party_pair
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
        [index] = kth_smallest_scan(session.comparison_backend,
                                    session.alice, session.bob, [shares],
                                    [k])
        assert values[index] == sorted(values)[k - 1]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=25),
           st.data())
    def test_random_property(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        session, shares = _setup(values, seed=k)
        [index] = kth_smallest_scan(session.comparison_backend,
                                    session.alice, session.bob, [shares],
                                    [k])
        assert values[index] == sorted(values)[k - 1]

    def test_rank_validation(self):
        session, shares = _setup([1, 2, 3])
        with pytest.raises(SelectionError, match="rank"):
            kth_smallest_scan(session.comparison_backend, session.alice,
                              session.bob, [shares], [0])
        with pytest.raises(SelectionError, match="rank"):
            kth_smallest_scan(session.comparison_backend, session.alice,
                              session.bob, [shares], [4])

    def test_comparison_count_is_k_scaled(self):
        values = list(range(20))
        session, shares = _setup(values)
        backend = session.comparison_backend
        kth_smallest_scan(backend, session.alice, session.bob, [shares],
                          [1])
        after_k1 = backend.invocations
        kth_smallest_scan(backend, session.alice, session.bob, [shares],
                          [5])
        after_k5 = backend.invocations - after_k1
        assert after_k1 == 19        # n - 1 comparisons for the minimum
        assert after_k5 == 19 + 18 + 17 + 16 + 15


class TestQuickselect:
    @pytest.mark.parametrize("values,k", [
        ([5], 1), ([5, 3], 1), ([9, 1, 5, 7, 3], 3), ([2, 2, 2], 2),
    ])
    def test_cases(self, values, k):
        session, shares = _setup(values, seed=k + 50)
        [index] = kth_smallest_quickselect(
            session.comparison_backend, session.alice, session.bob,
            [shares], [k])
        assert values[index] == sorted(values)[k - 1]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=25),
           st.data())
    def test_random_property(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        session, shares = _setup(values, seed=k + 7)
        [index] = kth_smallest_quickselect(
            session.comparison_backend, session.alice, session.bob,
            [shares], [k])
        assert values[index] == sorted(values)[k - 1]

    def test_rank_validation(self):
        session, shares = _setup([1])
        with pytest.raises(SelectionError, match="rank"):
            kth_smallest_quickselect(session.comparison_backend,
                                     session.alice, session.bob, [shares],
                                     [2])

    def test_expected_linear_comparisons(self):
        """For small k, quickselect should use far fewer comparisons than
        a full sort would; scan with k=n/2 should use more."""
        values = list(range(64))
        session, shares = _setup(values, seed=13)
        backend = session.comparison_backend
        kth_smallest_quickselect(backend, session.alice, session.bob,
                                 [shares], [32])
        quickselect_count = backend.invocations
        before = backend.invocations
        kth_smallest_scan(backend, session.alice, session.bob, [shares],
                          [32])
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
        [index] = kth_smallest_scan(session.comparison_backend,
                                    session.alice, session.bob, [shares],
                                    [k])
        assert values[index] == sorted(values)[k - 1]


class TestLockstep:
    """Several selections advance together: each step runs the next
    comparison of every unfinished selection as one batch."""

    VECTORS = [([9, 1, 5, 7, 3], 3), ([4, 8, 2], 1), ([6, 6, 1, 0], 4)]

    def _shares(self, session, values, seed):
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
        indices = select(session.comparison_backend, session.alice,
                         session.bob, shares,
                         [k for _, k in self.VECTORS])
        for (values, k), index in zip(self.VECTORS, indices):
            assert values[index] == sorted(values)[k - 1]

    def test_scan_rounds_follow_the_longest_selection(self):
        session, _ = _setup([1], backend="bitwise", mask_sigma=8)
        stats = session.alice.endpoint.stats
        shares = [self._shares(session, values, seed)
                  for seed, (values, _) in enumerate(self.VECTORS)]
        before = (stats.rounds, session.comparison_backend.invocations)
        kth_smallest_scan(session.comparison_backend, session.alice,
                          session.bob, shares, [k for _, k in self.VECTORS])
        lengths = [k * (2 * len(values) - k - 1) // 2
                   for values, k in self.VECTORS]
        assert lengths == [9, 2, 6]
        assert stats.rounds - before[0] == 2 * max(lengths)
        assert session.comparison_backend.invocations - before[1] \
            == sum(lengths)

    def test_mismatched_inputs(self):
        session, shares = _setup([1, 2, 3])
        backend = session.comparison_backend
        with pytest.raises(SelectionError, match="ranks"):
            kth_smallest_scan(backend, session.alice, session.bob,
                              [shares], [1, 2])
        wider = SharedValues(u_values=shares.u_values,
                             v_values=shares.v_values,
                             value_bound=shares.value_bound + 1,
                             mask_bound=shares.mask_bound)
        with pytest.raises(SelectionError, match="interval"):
            kth_smallest_scan(backend, session.alice, session.bob,
                              [shares, wider], [1, 1])
        assert kth_smallest_scan(backend, session.alice, session.bob,
                                 [], []) == []
