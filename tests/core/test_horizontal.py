"""Tests for the horizontal protocol (Algorithms 3 + 4).

The binding correctness property: the secure run must reproduce the
union-density plaintext reference bit-for-bit, per party.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.labels import canonicalize
from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import Disclosure
from repro.data.partitioning import HorizontalPartition
from repro.smc.session import SmcConfig


def _config(backend="oracle", **kwargs) -> ProtocolConfig:
    defaults = dict(eps=1.0, min_pts=3, scale=10,
                    smc=SmcConfig(comparison=backend, key_seed=100,
                                  mask_sigma=8, paillier_bits=128),
                    alice_seed=1, bob_seed=2)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def _assert_matches_reference(partition, config):
    result = run_horizontal_dbscan(partition, config)
    ref_alice = union_density_dbscan(
        list(partition.alice_points), list(partition.bob_points),
        config.eps_squared, config.min_pts)
    ref_bob = union_density_dbscan(
        list(partition.bob_points), list(partition.alice_points),
        config.eps_squared, config.min_pts)
    assert canonicalize(result.alice_labels) \
        == canonicalize(ref_alice.labels.as_tuple())
    assert canonicalize(result.bob_labels) \
        == canonicalize(ref_bob.labels.as_tuple())
    return result


points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=40)),
    min_size=1, max_size=10)


class TestAgainstReferenceOracle:
    """Control-flow correctness over many geometries (ideal comparisons)."""

    @settings(max_examples=25, deadline=None)
    @given(points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5))
    def test_random_geometries(self, alice_points, bob_points, min_pts):
        partition = HorizontalPartition(alice_points=tuple(alice_points),
                                        bob_points=tuple(bob_points))
        _assert_matches_reference(partition, _config(min_pts=min_pts))

    def test_empty_bob_side(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (5, 5), (5, 6)), bob_points=())
        _assert_matches_reference(partition, _config(min_pts=2))

    def test_cross_party_density_support(self):
        """Alice's lone point becomes core only through Bob's points.

        Grid scale is 10, so (0, 50) sits 5.0 units from the origin.
        """
        partition = HorizontalPartition(
            alice_points=((0, 0),),
            bob_points=((0, 50), (50, 0), (-50, 0)))
        config = _config(min_pts=4, eps=1.0)
        result = _assert_matches_reference(partition, config)
        assert result.alice_labels == (-1,)  # eps=1.0: too far, noise
        config_wide = _config(min_pts=4, eps=6.0)
        result_wide = _assert_matches_reference(partition, config_wide)
        assert result_wide.alice_labels == (1,)


class TestWithRealCrypto:
    """End-to-end with the bitwise comparison backend (small inputs)."""

    def test_small_geometry(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (20, 20)),
            bob_points=((0, 1), (1, 1), (40, 0)))
        result = _assert_matches_reference(
            partition, _config(backend="bitwise", min_pts=3))
        assert result.stats["total_bytes"] > 0

    def test_deterministic_under_seeds(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0)), bob_points=((0, 1),))
        config = _config(backend="bitwise", min_pts=2)
        first = run_horizontal_dbscan(partition, config)
        second = run_horizontal_dbscan(partition, config)
        assert first.alice_labels == second.alice_labels
        assert first.stats["total_bytes"] == second.stats["total_bytes"]


class TestDisclosureProfile:
    def test_ledger_contents(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0)), bob_points=((0, 1), (30, 30)))
        result = run_horizontal_dbscan(partition, _config(min_pts=2))
        profile = result.ledger.profile()
        # Base protocol: neighbor bits + counts; no core bits.
        assert profile.get("neighbor_count", 0) > 0
        assert profile.get("neighbor_bit", 0) > 0
        assert profile.get("core_bit", 0) == 0

    def test_faithful_hdp_reveals_dot_products(self):
        partition = HorizontalPartition(
            alice_points=((0, 0),), bob_points=((0, 1),))
        result = run_horizontal_dbscan(partition, _config(min_pts=1))
        assert result.ledger.count(Disclosure.DOT_PRODUCT) > 0

    def test_blinded_hdp_does_not(self):
        partition = HorizontalPartition(
            alice_points=((0, 0),), bob_points=((0, 1),))
        result = run_horizontal_dbscan(
            partition, _config(min_pts=1, blind_cross_sum=True))
        assert result.ledger.count(Disclosure.DOT_PRODUCT) == 0

    @pytest.mark.parametrize("alice_points,bob_points,min_pts", [
        (tuple((i, 0) for i in range(5)), tuple((i, 1) for i in range(4)),
         2),
        # E7's input, on which the traversal tests one point twice.
        (tuple([(i * 6, 0) for i in range(4)]
               + [(100 + i * 6, 0) for i in range(3)]),
         tuple([(i * 6, 4) for i in range(4)]
               + [(200, 200), (206, 200), (203, 204)]),
         3),
    ], ids=["no-retest", "retest"])
    def test_query_count_bound(self, alice_points, bob_points, min_pts):
        """Every driver point is queried once per pass, however often
        the traversal tests it, so each point's count is disclosed
        exactly once."""
        partition = HorizontalPartition(alice_points=alice_points,
                                        bob_points=bob_points)
        result = run_horizontal_dbscan(partition, _config(min_pts=min_pts))
        assert result.ledger.count(Disclosure.NEIGHBOR_COUNT) \
            == len(alice_points) + len(bob_points)


class TestCommunicationScaling:
    def test_bytes_scale_with_cross_pairs(self):
        """Sec 4.2.2: cost driver is l*(n-l)."""
        def run_bytes(alice_count, bob_count):
            partition = HorizontalPartition(
                alice_points=tuple((10 * i, 0) for i in range(alice_count)),
                bob_points=tuple((10 * i, 300) for i in range(bob_count)))
            result = run_horizontal_dbscan(
                partition, _config(backend="bitwise", min_pts=2))
            return result.stats["total_bytes"]

        small = run_bytes(2, 2)    # 2*2*2 = 8 cross queries
        large = run_bytes(4, 4)    # 4*4*2 = 32 cross queries
        assert 2.5 < large / small < 6.0
