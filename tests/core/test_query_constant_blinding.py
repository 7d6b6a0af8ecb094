"""Query-constant blinding: amortized DGK batches in blind mode.

With ``blind_cross_sum`` the PR-3 comparison batch degrades to per-point
runs because every peer point gets its own secret offset (per-point
thresholds).  ``query_constant_blinding`` shares one offset per region
query: predicate bits and labels are unchanged (the offset cancels in
the threshold), the DGK batch amortizes again (one bit-encryption and
round-trip per query), and the ledger records the price -- the peer now
learns the differences between the query's cross dot products
(``DOT_DIFFERENCE``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ConfigError, ProtocolConfig
from repro.core.distance import hdp_region_query
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import HorizontalPartition
from repro.data.quantize import squared_distance_bound
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession
from tests.per_point import per_point_region_query

points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=1, max_size=5)


def _config(backend="oracle", *, query_constant, min_pts=3, cached=False):
    return ProtocolConfig(
        eps=1.5, min_pts=min_pts, scale=1,
        smc=SmcConfig(comparison=backend, key_seed=250, mask_sigma=8,
                      paillier_bits=128),
        blind_cross_sum=True,
        query_constant_blinding=query_constant,
        cache_peer_ciphertexts=cached,
        alice_seed=11, bob_seed=12)


class TestConfigValidation:
    def test_requires_blind_cross_sum(self):
        with pytest.raises(ConfigError, match="blind_cross_sum"):
            ProtocolConfig(eps=1.0, min_pts=2,
                           query_constant_blinding=True)


class TestRegionQueryBits:
    def _session(self):
        return SmcSession(
            *make_party_pair(Channel(), 21, 22),
            SmcConfig(comparison="bitwise", key_seed=251, mask_sigma=8,
                      paillier_bits=128))

    @settings(max_examples=8, deadline=None)
    @given(st.tuples(st.integers(0, 20), st.integers(0, 20)),
           points_strategy)
    def test_bits_match_per_point_blind_protocol(self, query, peer_points):
        value_bound = squared_distance_bound([query] + peer_points,
                                             [query] + peer_points)
        eps_squared = 9

        session = self._session()
        batch_bits = drive(hdp_region_query(
            session, session.alice, query, session.bob, peer_points,
            eps_squared, value_bound, blind_cross_sum=True,
            query_constant_blinding=True, label="q"))

        # Reference: one per-point blind HDP per peer point over the
        # same permutation (fresh session, same seeds => same view).
        reference = self._session()
        expected = drive(per_point_region_query(
            reference, reference.alice, query, reference.bob, peer_points,
            eps_squared, value_bound, blind_cross_sum=True, label="q"))
        assert batch_bits == expected

    def test_one_dgk_batch_per_query(self):
        """The amortization is visible in the message count: the blind
        query-constant batch sends strictly fewer messages than the
        per-point-offset batch (which cannot amortize)."""
        peer_points = [(0, 0), (1, 1), (2, 0), (3, 3)]
        value_bound = squared_distance_bound(peer_points, peer_points)

        def messages(query_constant):
            session = self._session()
            drive(hdp_region_query(
                session, session.alice, (1, 0), session.bob, peer_points,
                5, value_bound, blind_cross_sum=True,
                query_constant_blinding=query_constant, label="q"))
            return session.alice.endpoint.stats.total_messages

        assert messages(True) < messages(False)


class TestLedger:
    def test_dot_difference_recorded_instead_of_dot_product(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (10, 10)),
            bob_points=((0, 1), (1, 1), (10, 11)))
        result = run_horizontal_dbscan(
            partition, _config(query_constant=True))
        assert result.ledger.count(Disclosure.DOT_DIFFERENCE) > 0
        assert result.ledger.count(Disclosure.DOT_PRODUCT) == 0
        # Per-point blinding reveals nothing relative: no event.
        per_point = run_horizontal_dbscan(
            partition, _config(query_constant=False))
        assert per_point.ledger.count(Disclosure.DOT_DIFFERENCE) == 0

    def test_single_point_query_has_no_difference_to_reveal(self):
        session = SmcSession(
            *make_party_pair(Channel(), 21, 22),
            SmcConfig(comparison="oracle", key_seed=252, mask_sigma=8,
                      paillier_bits=128))
        ledger = LeakageLedger()
        drive(hdp_region_query(session, session.alice, (0, 0), session.bob,
                               [(1, 0)], 5, 100, ledger=ledger,
                               blind_cross_sum=True,
                               query_constant_blinding=True, label="q"))
        assert ledger.count(Disclosure.DOT_DIFFERENCE) == 0


class TestEndToEnd:
    @settings(max_examples=8, deadline=None)
    @given(points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5))
    def test_two_party_labels_match_per_point_blinding(self, alice_pts,
                                                       bob_pts, min_pts):
        partition = HorizontalPartition(alice_points=tuple(alice_pts),
                                        bob_points=tuple(bob_pts))
        constant = run_horizontal_dbscan(
            partition, _config(query_constant=True, min_pts=min_pts))
        per_point = run_horizontal_dbscan(
            partition, _config(query_constant=False, min_pts=min_pts))
        assert constant.alice_labels == per_point.alice_labels
        assert constant.bob_labels == per_point.bob_labels
        assert constant.comparisons == per_point.comparisons

    @pytest.mark.parametrize("cached", [False, True])
    def test_real_crypto_two_party(self, cached):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (30, 30)),
            bob_points=((0, 1), (31, 30)))
        constant = run_horizontal_dbscan(
            partition, _config("bitwise", query_constant=True,
                               cached=cached))
        per_point = run_horizontal_dbscan(
            partition, _config("bitwise", query_constant=False,
                               cached=cached))
        assert constant.alice_labels == per_point.alice_labels
        assert constant.bob_labels == per_point.bob_labels
        assert constant.comparisons == per_point.comparisons
        # The restored amortization: strictly fewer messages online.
        assert constant.stats["total_messages"] \
            < per_point.stats["total_messages"]

    def test_mesh_labels_match(self):
        points = {
            "p0": [(0, 0), (30, 30)],
            "p1": [(1, 0), (2, 0)],
            "p2": [(0, 1), (31, 30)],
        }

        def run(query_constant):
            config = ProtocolConfig(
                eps=1.5, min_pts=3, scale=1,
                smc=SmcConfig(comparison="bitwise", key_seed=253,
                              mask_sigma=8, paillier_bits=128),
                blind_cross_sum=True,
                query_constant_blinding=query_constant)
            return run_multiparty_horizontal_dbscan(points, config,
                                                    seeds=[1, 2, 3])

        constant = run(True)
        per_point = run(False)
        assert constant.labels_by_party == per_point.labels_by_party
        assert constant.comparisons == per_point.comparisons
        assert constant.stats["total_messages"] \
            < per_point.stats["total_messages"]
