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
    """Section 5 shares the cross terms only: per tested point (one
    alpha), the driver encrypts its d coordinates of ``-2A``, the masker
    answers with ``ceil(n_peer / slots)`` reply ciphertexts, each one
    factor and d homomorphic powers, and the driver opens each once."""

    ALICE = ((0, 0), (30, 30))
    # Isolated from each other (11 apart, eps 10 on the grid): with
    # min_pts 2 every point of both parties is tested.  No coordinate is
    # 0, so every chunk's column of them is a power to raise.
    BOB = tuple((11 * a + 1, 11 * b + 1) for a in range(3) for b in range(3))
    D = 2

    def _session(self, config):
        from repro.net.channel import Channel
        from repro.net.party import make_party_pair
        from repro.smc.session import SmcSession

        channel = Channel()
        return channel, SmcSession(*make_party_pair(channel, 7, 8),
                                   config.smc)

    def test_one_reply_ciphertext_per_chunk_of_peer_points(self, key_work):
        from repro.crypto.integer_math import powmod_cache_report
        from repro.data.quantize import squared_distance_bound
        from repro.smc.scalar_product import PackedLayout

        config = _config(min_pts=2)
        for n_peer in (1, 6, 7, 9):
            bob = self.BOB[:n_peer]
            channel, session = self._session(config)
            alice_key = session.paillier_keys("alice").public_key
            bob_key = session.paillier_keys("bob").public_key
            # value_bound 7200 (coordinates up to 30), q = 1800: vectors
            # within 4q and masks within mask_bound + q give 21-bit
            # slots, 6 to a 128-bit key's reply.
            bound = squared_distance_bound(self.ALICE, bob)
            quarter = bound // 4
            assert PackedLayout.fit(
                alice_key, 4 * quarter,
                config.smc.mask_bound(bound) + quarter).slots == 6
            for moduli in key_work.values():
                moduli.clear()
            powers = powmod_cache_report()["misses"]
            result = run_enhanced_horizontal_dbscan(
                HorizontalPartition(alice_points=self.ALICE, bob_points=bob),
                config, session=session)
            powers = powmod_cache_report()["misses"] - powers
            assert result.ledger.count(Disclosure.CORE_BIT) \
                == len(self.ALICE) + n_peer
            chunks = -(-n_peer // 6)
            sent = {label: [len(entry.value) for entry in
                            channel.transcript.with_label(label)]
                    for label in ("enhanced/alice_pass/share/encrypted_alpha",
                                  "enhanced/alice_pass/share/masked_products",
                                  "enhanced/bob_pass/share/encrypted_alpha",
                                  "enhanced/bob_pass/share/masked_products")}
            assert sent == {
                "enhanced/alice_pass/share/encrypted_alpha":
                    [self.D] * len(self.ALICE),
                "enhanced/alice_pass/share/masked_products":
                    [chunks] * len(self.ALICE),
                "enhanced/bob_pass/share/encrypted_alpha": [self.D] * n_peer,
                "enhanced/bob_pass/share/masked_products": [1] * n_peer}
            # One batch per pass, one ciphertext per chunk of each alpha.
            assert key_work["decrypt"] == [
                (alice_key.n, chunks * len(self.ALICE)),
                (bob_key.n, n_peer)]
            # Each alpha's d coordinates under its driver's key, then one
            # reply factor per chunk.
            assert Counter(key_work["factors"]) == {
                alice_key.n: len(self.ALICE) * (self.D + chunks),
                bob_key.n: n_peer * (self.D + 1)}
            # d homomorphic powers per reply chunk.
            assert powers == self.D * (len(self.ALICE) * chunks + n_peer)

    def test_shares_are_the_distances_plus_the_peers_draws(self):
        """``u_i - v_i`` is the squared distance to the peer point at
        permuted position ``i``, and ``v_i`` is the peer's own draw, as
        when the driver's vector carried the norms."""
        import random

        import repro.core.enhanced as enhanced
        from repro.data.quantize import squared_distance_bound
        from repro.smc.permutation import PermutedView

        config = _config(min_pts=2)
        _, session = self._session(config)
        coins = {name: random.Random() for name in ("alice", "bob")}
        for name, clone in coins.items():
            clone.setstate(session.party(name).rng.getstate())
        share = enhanced._share_distances
        shared = []

        async def recording(*args):
            lanes = await share(*args)
            shared.extend(lanes)
            return lanes

        enhanced._share_distances = recording
        try:
            run_enhanced_horizontal_dbscan(
                HorizontalPartition(alice_points=self.ALICE,
                                    bob_points=self.BOB),
                config, session=session)
        finally:
            enhanced._share_distances = share
        bound = squared_distance_bound(self.ALICE, self.BOB)
        mask_bound = config.smc.mask_bound(bound)
        for own, theirs, peer, lane in ((self.ALICE, self.BOB, "bob",
                                         shared[0]),
                                        (self.BOB, self.ALICE, "alice",
                                         shared[1])):
            rng = coins[peer]
            assert len(lane) == len(own)
            for point, shares in zip(own, lane):
                view = PermutedView.fresh(len(theirs), rng)
                v_values = tuple(rng.randrange(mask_bound) for _ in theirs)
                assert shares.v_values == v_values
                assert shares.u_values == tuple(
                    sum((a - b) ** 2 for a, b in
                        zip(point, theirs[view.true_index(i)])) + v
                    for i, v in enumerate(v_values))
                assert (shares.value_bound, shares.mask_bound) \
                    == (bound, mask_bound)
