"""Tests for the enhanced protocol (Section 5, Algorithms 7 + 8).

Binding properties: (1) identical clustering output to the base
horizontal protocol, (2) strictly reduced disclosure profile.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.clustering.labels import canonicalize
from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.enhanced import run_enhanced_horizontal_dbscan
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import Disclosure
from repro.data.partitioning import HorizontalPartition
from repro.smc.session import SmcConfig


def _config(backend="oracle", **kwargs) -> ProtocolConfig:
    defaults = dict(eps=1.0, min_pts=3, scale=10,
                    smc=SmcConfig(comparison=backend, key_seed=130,
                                  mask_sigma=8, paillier_bits=128),
                    alice_seed=7, bob_seed=8)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=40)),
    min_size=1, max_size=9)


class TestMatchesBaseProtocol:
    @settings(max_examples=20, deadline=None)
    @given(points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5),
           st.sampled_from(["scan", "quickselect"]))
    def test_random_geometries(self, alice_points, bob_points, min_pts,
                               selection):
        partition = HorizontalPartition(alice_points=tuple(alice_points),
                                        bob_points=tuple(bob_points))
        config = _config(min_pts=min_pts, selection=selection)
        enhanced = run_enhanced_horizontal_dbscan(partition, config)
        reference_alice = union_density_dbscan(
            list(alice_points), list(bob_points),
            config.eps_squared, config.min_pts)
        reference_bob = union_density_dbscan(
            list(bob_points), list(alice_points),
            config.eps_squared, config.min_pts)
        assert canonicalize(enhanced.alice_labels) \
            == canonicalize(reference_alice.labels.as_tuple())
        assert canonicalize(enhanced.bob_labels) \
            == canonicalize(reference_bob.labels.as_tuple())

    def test_same_labels_as_base(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (30, 30)),
            bob_points=((0, 1), (1, 1), (30, 31), (15, 15)))
        config = _config(min_pts=3)
        base = run_horizontal_dbscan(partition, config)
        enhanced = run_enhanced_horizontal_dbscan(partition, config)
        assert canonicalize(enhanced.alice_labels) \
            == canonicalize(base.alice_labels)
        assert canonicalize(enhanced.bob_labels) \
            == canonicalize(base.bob_labels)


class TestZeroInteractionShortcuts:
    def test_self_sufficient_point_discloses_nothing(self):
        """k <= 0: a point dense among its own party's points engages in
        no protocol at all."""
        cluster = tuple((i, j) for i in range(3) for j in range(3))
        partition = HorizontalPartition(
            alice_points=cluster, bob_points=((100, 100),))
        config = _config(min_pts=3, eps=2.0)
        result = run_enhanced_horizontal_dbscan(partition, config)
        alice_events = [e for e in result.ledger.events
                        if e.learner == "alice"]
        assert not alice_events  # Alice's pass never consulted Bob

    def test_impossible_k_short_circuits(self):
        """k > n_peer: not core, no interaction."""
        partition = HorizontalPartition(
            alice_points=((0, 0),), bob_points=((0, 1),))
        config = _config(min_pts=5)  # needs 4 peer points, peer has 1
        result = run_enhanced_horizontal_dbscan(partition, config)
        assert result.ledger.count(Disclosure.CORE_BIT) == 0
        assert result.alice_labels == (-1,)


class TestDisclosureReduction:
    def test_no_neighbor_counts_disclosed(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0)), bob_points=((0, 1), (20, 20)))
        config = _config(min_pts=3)
        result = run_enhanced_horizontal_dbscan(partition, config)
        profile = result.ledger.profile()
        assert profile.get("neighbor_count", 0) == 0
        assert profile.get("neighbor_bit", 0) == 0
        assert profile.get("dot_product", 0) == 0

    def test_core_bits_bounded_by_queries(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (2, 0)),
            bob_points=((0, 1), (1, 1), (2, 1)))
        config = _config(min_pts=4)
        result = run_enhanced_horizontal_dbscan(partition, config)
        assert result.ledger.count(Disclosure.CORE_BIT) <= 6


class TestWithRealCrypto:
    def test_small_geometry(self):
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (20, 20)),
            bob_points=((0, 1), (1, 1), (40, 0)))
        config = _config(backend="bitwise", min_pts=3)
        enhanced = run_enhanced_horizontal_dbscan(partition, config)
        base = run_horizontal_dbscan(partition, config)
        assert canonicalize(enhanced.alice_labels) \
            == canonicalize(base.alice_labels)
        assert canonicalize(enhanced.bob_labels) \
            == canonicalize(base.bob_labels)

    def test_quickselect_with_crypto(self):
        partition = HorizontalPartition(
            alice_points=((0, 0),),
            bob_points=((0, 1), (1, 0), (1, 1), (30, 30)))
        config = _config(backend="bitwise", min_pts=3,
                         selection="quickselect")
        result = run_enhanced_horizontal_dbscan(partition, config)
        assert result.alice_labels == (1,)


class TestPackedSharing:
    """Section 5's masked products come back packed: per tested point
    (one alpha), ``ceil(n_peer / slots)`` reply ciphertexts, each one
    factor drawn by the masker and each opened once by the driver."""

    ALICE = ((0, 0), (30, 30))
    # Isolated from each other (11 apart, eps 10 on the grid): with
    # min_pts 2 every point of both parties is tested.
    BOB = tuple((11 * a, 11 * b) for a in range(3) for b in range(3))

    def test_one_reply_ciphertext_per_chunk_of_peer_points(self, key_work):
        from repro.data.quantize import squared_distance_bound
        from repro.net.channel import Channel
        from repro.net.party import make_party_pair
        from repro.smc.scalar_product import PackedLayout
        from repro.smc.session import SmcSession

        config = _config(min_pts=2)
        for n_peer in (1, 5, 6, 9):
            bob = self.BOB[:n_peer]
            channel = Channel()
            session = SmcSession(*make_party_pair(channel, 7, 8),
                                 config.smc)
            alice_key = session.paillier_keys("alice").public_key
            bob_key = session.paillier_keys("bob").public_key
            # value_bound 7200 (coordinates up to 30): the sharing's
            # 23-bit slots pack 5 values into a 128-bit key's reply.
            bound = squared_distance_bound(self.ALICE, bob)
            quarter = bound // 4
            assert PackedLayout.fit(
                alice_key, quarter * quarter + 4 * quarter + 1,
                config.smc.mask_bound(bound)).slots == 5
            for moduli in key_work.values():
                moduli.clear()
            result = run_enhanced_horizontal_dbscan(
                HorizontalPartition(alice_points=self.ALICE, bob_points=bob),
                config, session=session)
            assert result.ledger.count(Disclosure.CORE_BIT) \
                == len(self.ALICE) + n_peer
            chunks = -(-n_peer // 5)
            replies = {label: [len(entry.value) for entry in
                               channel.transcript.with_label(label)]
                       for label in ("enhanced/alice_pass/share/"
                                     "masked_products",
                                     "enhanced/bob_pass/share/"
                                     "masked_products")}
            assert replies == {
                "enhanced/alice_pass/share/masked_products":
                    [chunks] * len(self.ALICE),
                "enhanced/bob_pass/share/masked_products": [1] * n_peer}
            # One batch per pass, one ciphertext per chunk of each alpha.
            assert key_work["decrypt"] == [
                (alice_key.n, chunks * len(self.ALICE)),
                (bob_key.n, n_peer)]
            # Each alpha's d + 2 = 4 coordinates under its driver's key,
            # then one reply factor per chunk.
            assert Counter(key_work["factors"]) == {
                alice_key.n: len(self.ALICE) * (4 + chunks),
                bob_key.n: n_peer * (4 + 1)}
