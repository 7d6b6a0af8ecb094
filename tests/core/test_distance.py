"""Tests for the HDP / VDP / ADP distance protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import (
    DistanceProtocolError,
    adp_within_eps,
    hdp_within_eps,
    vdp_within_eps,
)
from repro.core.leakage import Disclosure, LeakageLedger
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession

VALUE_BOUND = 8 * 200 * 200  # comfortably above any test distance

coordinate = st.integers(min_value=-100, max_value=100)
point2d = st.tuples(coordinate, coordinate)


def _session(seed=0, backend="bitwise", mask_sigma=8):
    channel = Channel()
    alice, bob = make_party_pair(channel, seed, seed + 1)
    session = SmcSession(alice, bob, SmcConfig(
        comparison=backend, key_seed=90, mask_sigma=mask_sigma))
    return channel, session


def _true_within(a, b, eps_squared):
    return sum((x - y) ** 2 for x, y in zip(a, b)) <= eps_squared


class TestHdp:
    @pytest.mark.parametrize("qp,pp,eps_squared", [
        ((0, 0), (3, 4), 25), ((0, 0), (3, 4), 24), ((0, 0), (0, 0), 1),
        ((-5, 7), (2, -3), 150), ((-5, 7), (2, -3), 148),
        ((10, 10), (10, 11), 1),
    ])
    def test_boundary_cases(self, qp, pp, eps_squared):
        __, session = _session(abs(qp[0]) + abs(pp[1]))
        result = drive(hdp_within_eps(session, session.alice, qp, session.bob,
                                      pp, eps_squared, VALUE_BOUND))
        assert result == _true_within(qp, pp, eps_squared)

    @settings(max_examples=10, deadline=None)
    @given(point2d, point2d, st.integers(min_value=0, max_value=40000))
    def test_random_property(self, qp, pp, eps_squared):
        __, session = _session(1)
        result = drive(hdp_within_eps(session, session.alice, qp, session.bob,
                                      pp, eps_squared, VALUE_BOUND))
        assert result == _true_within(qp, pp, eps_squared)

    def test_blind_cross_sum_same_result(self):
        """The random-offset compensation must not shift the predicate in
        either direction -- exercised on both sides of the boundary.
        (A sign error here once survived a True-only test.)"""
        __, session = _session(2)
        for blind in (False, True):
            # dist^2((1,2),(4,6)) = 25: exactly on the boundary.
            assert drive(hdp_within_eps(session, session.alice, (1, 2),
                                        session.bob, (4, 6), 25, VALUE_BOUND,
                                        blind_cross_sum=blind)) is True
            # One below the boundary: must be rejected.
            assert drive(hdp_within_eps(session, session.alice, (1, 2),
                                        session.bob, (4, 6), 24, VALUE_BOUND,
                                        blind_cross_sum=blind)) is False

    @settings(max_examples=10, deadline=None)
    @given(point2d, point2d, st.integers(min_value=0, max_value=40000))
    def test_blind_cross_sum_random_property(self, qp, pp, eps_squared):
        __, session = _session(21)
        result = drive(hdp_within_eps(session, session.alice, qp, session.bob,
                                      pp, eps_squared, VALUE_BOUND,
                                      blind_cross_sum=True))
        assert result == _true_within(qp, pp, eps_squared)

    def test_roles_can_swap(self):
        """Bob as querier (his pass of Algorithm 3)."""
        __, session = _session(3)
        result = drive(hdp_within_eps(session, session.bob, (0, 0),
                                      session.alice, (3, 4), 25, VALUE_BOUND))
        assert result is True

    def test_dimension_mismatch(self):
        __, session = _session(4)
        with pytest.raises(DistanceProtocolError, match="dimension"):
            drive(hdp_within_eps(session, session.alice, (1,), session.bob,
                                 (1, 2), 25, VALUE_BOUND))

    def test_ledger_records_dot_product_when_faithful(self):
        __, session = _session(5)
        ledger = LeakageLedger()
        drive(hdp_within_eps(session, session.alice, (1, 2), session.bob, (3,
                                                                           4),
                             25, VALUE_BOUND, ledger=ledger))
        assert ledger.count(Disclosure.DOT_PRODUCT, learner="bob") == 1
        assert ledger.count(Disclosure.NEIGHBOR_BIT, learner="alice") == 1

    def test_ledger_clean_when_blinded(self):
        __, session = _session(6)
        ledger = LeakageLedger()
        drive(hdp_within_eps(session, session.alice, (1, 2), session.bob, (3,
                                                                           4),
                             25, VALUE_BOUND, ledger=ledger,
                             blind_cross_sum=True))
        assert ledger.count(Disclosure.DOT_PRODUCT) == 0

    def test_three_dimensions(self):
        __, session = _session(7)
        assert drive(hdp_within_eps(session, session.alice, (1, 2, 3),
                                    session.bob, (1, 2, 4), 1, VALUE_BOUND))

    def test_one_dimension(self):
        __, session = _session(8)
        assert drive(hdp_within_eps(session, session.alice, (5,), session.bob,
                                    (9,), 16, VALUE_BOUND))
        assert not drive(hdp_within_eps(session, session.alice, (5,),
                                        session.bob, (10,), 16, VALUE_BOUND))


class TestVdp:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10000),
           st.integers(min_value=0, max_value=10000),
           st.integers(min_value=0, max_value=25000))
    def test_random_property(self, alice_part, bob_part, eps_squared):
        __, session = _session(9)
        result = drive(vdp_within_eps(session, session.alice, alice_part,
                                      session.bob, bob_part, eps_squared,
                                      30000))
        assert result == (alice_part + bob_part <= eps_squared)

    def test_ledger_both_learn(self):
        __, session = _session(10)
        ledger = LeakageLedger()
        drive(vdp_within_eps(session, session.alice, 4, session.bob, 5, 25,
                             VALUE_BOUND, ledger=ledger))
        assert ledger.count(Disclosure.NEIGHBOR_BIT, learner="alice") == 1
        assert ledger.count(Disclosure.NEIGHBOR_BIT, learner="bob") == 1


class TestAdp:
    def _views(self, x_point, y_point, x_owners, y_owners):
        x_values = {k: (owner, value)
                    for k, (owner, value) in enumerate(zip(x_owners, x_point))}
        y_values = {k: (owner, value)
                    for k, (owner, value) in enumerate(zip(y_owners, y_point))}
        return x_values, y_values

    @pytest.mark.parametrize("x_owners,y_owners", [
        (("alice", "alice"), ("alice", "alice")),   # all-Alice (degenerate)
        (("bob", "bob"), ("bob", "bob")),           # all-Bob
        (("alice", "alice"), ("bob", "bob")),       # horizontal-like
        (("alice", "bob"), ("alice", "bob")),       # vertical-like
        (("alice", "bob"), ("bob", "alice")),       # fully mixed
        (("alice", "alice"), ("alice", "bob")),     # single cross attr
    ])
    def test_ownership_patterns(self, x_owners, y_owners):
        __, session = _session(11)
        x_point, y_point = (3, -4), (-1, 2)
        for eps_squared in (0, 51, 52, 53, 1000):
            x_values, y_values = self._views(x_point, y_point,
                                             x_owners, y_owners)
            result = drive(adp_within_eps(session, session.alice, session.bob,
                                          x_values, y_values, eps_squared,
                                          VALUE_BOUND))
            assert result == _true_within(x_point, y_point, eps_squared), \
                (x_owners, y_owners, eps_squared)

    @settings(max_examples=10, deadline=None)
    @given(point2d, point2d,
           st.tuples(st.sampled_from(["alice", "bob"]),
                     st.sampled_from(["alice", "bob"])),
           st.tuples(st.sampled_from(["alice", "bob"]),
                     st.sampled_from(["alice", "bob"])),
           st.integers(min_value=0, max_value=40000))
    def test_random_property(self, x_point, y_point, x_owners, y_owners,
                             eps_squared):
        __, session = _session(12)
        x_values, y_values = self._views(x_point, y_point, x_owners,
                                         y_owners)
        result = drive(adp_within_eps(session, session.alice, session.bob,
                                      x_values, y_values, eps_squared,
                                      VALUE_BOUND))
        assert result == _true_within(x_point, y_point, eps_squared)

    def test_attribute_mismatch(self):
        __, session = _session(13)
        with pytest.raises(DistanceProtocolError, match="disagree"):
            drive(adp_within_eps(session, session.alice, session.bob,
                                 {0: ("alice", 1)}, {1: ("bob", 2)}, 25,
                                 VALUE_BOUND))

    def test_single_cross_attribute_hides_product(self):
        """With one cross attribute the random offset must prevent the
        exact-product disclosure (DESIGN.md substitution note)."""
        channel, session = _session(14)
        x_values = {0: ("alice", 7)}
        y_values = {0: ("bob", 3)}
        result = drive(adp_within_eps(session, session.alice, session.bob,
                                      x_values, y_values, 16, VALUE_BOUND))
        assert result == ((7 - 3) ** 2 <= 16)
