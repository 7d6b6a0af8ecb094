"""Tests for the batched masked scalar-product protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.net.serialization import FixedWidthList
from repro.smc.scalar_product import (
    ScalarProductError,
    ScalarProductLane,
    secure_masked_dot_terms,
    secure_masked_dot_terms_batch,
    secure_scalar_products,
    secure_scalar_products_lanes,
)

KEYS = cached_paillier_keypair(256, 830)


def _fresh_parties(seed: int = 0):
    channel = Channel()
    alice, bob = make_party_pair(channel, seed, seed + 1)
    return channel, alice, bob


class TestMaskedDotTerms:
    def test_basic(self):
        __, alice, bob = _fresh_parties()
        terms = drive(secure_masked_dot_terms(alice, [2, 3, 4], bob, [5, 6, 7],
                                              [10, -10, 0], KEYS))
        assert terms == [2 * 5 + 10, 3 * 6 - 10, 4 * 7 + 0]

    def test_zero_sum_masks_reveal_dot_product(self):
        """The HDP construction: masks summing to zero make the received
        terms sum to the exact dot product."""
        __, alice, bob = _fresh_parties()
        masks = [17, -20, 3]
        terms = drive(secure_masked_dot_terms(alice, [1, 2, 3], bob, [4, 5, 6],
                                              masks, KEYS))
        assert sum(terms) == 1 * 4 + 2 * 5 + 3 * 6

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-10**6, max_value=10**6)),
        min_size=1, max_size=6))
    def test_random_property(self, rows):
        __, alice, bob = _fresh_parties(len(rows))
        xs = [row[0] for row in rows]
        ys = [row[1] for row in rows]
        masks = [row[2] for row in rows]
        terms = drive(secure_masked_dot_terms(alice, xs, bob, ys, masks, KEYS))
        assert terms == [x * y + m for x, y, m in rows]

    def test_length_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="length mismatch"):
            drive(secure_masked_dot_terms(alice, [1, 2], bob, [1], [0, 0],
                                          KEYS))

    def test_two_messages_total(self):
        channel, alice, bob = _fresh_parties()
        drive(secure_masked_dot_terms(alice, [1] * 8, bob, [2] * 8, [0] * 8,
                                      KEYS))
        assert channel.stats.total_messages == 2


class TestScalarProducts:
    def test_basic(self):
        __, alice, bob = _fresh_parties()
        alpha = [30, -2, -4, 1]
        betas = [[1, 3, 5, 34], [1, 0, 0, 0], [1, -1, -1, 2]]
        masks = [55, -7, 0]
        [results] = drive(secure_scalar_products(alice, [alpha], bob, [betas],
                                                 [masks], KEYS))
        expected = [sum(a * b for a, b in zip(alpha, beta)) + mask
                    for beta, mask in zip(betas, masks)]
        assert results == expected

    def test_distance_sharing_shape(self):
        """The Section 5 encoding: <alpha, beta_i> equals the squared
        distance between A and B_i."""
        __, alice, bob = _fresh_parties()
        point_a = (3, -4)
        points_b = [(0, 0), (3, -4), (10, 2)]
        alpha = [sum(c * c for c in point_a), -2 * point_a[0],
                 -2 * point_a[1], 1]
        betas = [[1, b[0], b[1], b[0] ** 2 + b[1] ** 2] for b in points_b]
        masks = [100, 200, 300]
        [results] = drive(secure_scalar_products(alice, [alpha], bob, [betas],
                                                 [masks], KEYS))
        for result, point_b, mask in zip(results, points_b, masks):
            true_distance = sum((a - b) ** 2 for a, b in zip(point_a, point_b))
            assert result - mask == true_distance

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10**6))
    def test_random_property(self, width, count, seed):
        import random
        rng = random.Random(seed)
        __, alice, bob = _fresh_parties(seed % 97)
        alpha = [rng.randrange(-100, 101) for _ in range(width)]
        betas = [[rng.randrange(-100, 101) for _ in range(width)]
                 for _ in range(count)]
        masks = [rng.randrange(-1000, 1001) for _ in range(count)]
        [results] = drive(secure_scalar_products(alice, [alpha], bob, [betas],
                                                 [masks], KEYS))
        assert results == [
            sum(a * b for a, b in zip(alpha, beta)) + mask
            for beta, mask in zip(betas, masks)]

    def test_mask_count_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="masks"):
            drive(secure_scalar_products(alice, [[1]], bob, [[[2]]], [[0, 0]],
                                         KEYS))

    def test_beta_width_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="length"):
            drive(secure_scalar_products(alice, [[1, 2]], bob, [[[3]]], [[0]],
                                         KEYS))

    def test_alpha_sent_once(self):
        """The batching advantage: alpha ciphertexts go out once no matter
        how many betas are evaluated."""
        channel, alice, bob = _fresh_parties()
        drive(secure_scalar_products(alice, [[1, 2, 3]], bob,
                                     [[[1, 1, 1]] * 10], [[0] * 10], KEYS,
                                     label="sp"))
        alpha_entries = channel.transcript.with_label("sp/encrypted_alpha")
        assert len(alpha_entries) == 1
        assert len(alpha_entries[0].value) == 3
        reply = channel.transcript.with_label("sp/masked_products")[0]
        assert len(reply.value) == 10


    def test_several_alphas_share_one_round_trip(self):
        """Each alpha keeps its own two messages; all alphas go out
        before the masker replies."""
        channel, alice, bob = _fresh_parties()
        alphas = [[1, 2], [3, -4], [0, 5]]
        betas = [[[1, 1]], [[2, 0], [0, 2]], [[7, 1], [1, 7], [0, 0]]]
        masks = [[5], [6, 7], [8, 9, 10]]
        results = drive(secure_scalar_products(alice, alphas, bob, betas,
                                               masks, KEYS, label="sp"))
        assert results == [
            [sum(a * b for a, b in zip(alpha, beta)) + mask
             for beta, mask in zip(group, group_masks)]
            for alpha, group, group_masks in zip(alphas, betas, masks)]
        assert [e.label for e in channel.transcript.entries] \
            == ["sp/encrypted_alpha"] * 3 + ["sp/masked_products"] * 3
        assert [len(e.value) for e in channel.transcript.entries] \
            == [2, 2, 2, 1, 2, 3]
        assert channel.stats.rounds == 2

    def test_alpha_count_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="alphas"):
            drive(secure_scalar_products(alice, [[1], [2]], bob, [[[2]]],
                                         [[0]], KEYS))


def _products(lane: ScalarProductLane) -> list[list[int]]:
    """What ``lane``'s receiver should learn: ``<alpha, beta_i> + v_i``."""
    return [[sum(a * b for a, b in zip(alpha, beta)) + mask
             for beta, mask in zip(group, group_masks)]
            for alpha, group, group_masks in zip(lane.alphas, lane.betas,
                                                 lane.masks)]


class TestScalarProductLanes:
    """Several receivers' sharings, phase by phase across the lanes."""

    BOB_KEYS = cached_paillier_keypair(256, 831)

    def _lanes(self, alice, bob):
        return [ScalarProductLane(alice, [[1, 2], [3, -4]], bob,
                                  [[[1, 1]], [[2, 0], [0, 2]]], [[5], [6, 7]],
                                  KEYS, "a"),
                ScalarProductLane(bob, [[-2, 5, 1]], alice,
                                  [[[4, 0, 1], [1, 1, 1], [0, 0, 9]]],
                                  [[8, -9, 10]], self.BOB_KEYS, "b")]

    def test_lanes_in_opposite_directions_share_their_flights(self):
        """Every receiver's alphas, then every masker's replies: alice
        | bob | alice, each lane under its own receiver's key."""
        channel, alice, bob = _fresh_parties(5)
        lanes = self._lanes(alice, bob)
        assert drive(secure_scalar_products_lanes(lanes)) \
            == [_products(lane) for lane in lanes]
        assert [(e.sender, e.label) for e in channel.transcript.entries] \
            == ([("alice", "a/encrypted_alpha")] * 2
                + [("bob", "b/encrypted_alpha"),
                   ("bob", "a/masked_products"), ("bob", "a/masked_products"),
                   ("alice", "b/masked_products")])
        assert channel.stats.rounds == 3

    def test_lanes_in_one_direction_share_one_round_trip(self):
        channel, alice, bob = _fresh_parties(6)
        lanes = [ScalarProductLane(alice, [[1, 2]], bob, [[[3, 4]]], [[5]],
                                   KEYS, "a"),
                 ScalarProductLane(alice, [[7]], bob, [[[1], [2]]], [[0, 1]],
                                   KEYS, "c")]
        assert drive(secure_scalar_products_lanes(lanes)) == [[[16]], [[7,
                                                                        15]]]
        assert [e.label for e in channel.transcript.entries] \
            == ["a/encrypted_alpha", "c/encrypted_alpha",
                "a/masked_products", "c/masked_products"]
        assert channel.stats.rounds == 2

    def test_every_lane_is_checked_before_anything_is_sent(self):
        channel, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="alphas"):
            drive(secure_scalar_products_lanes([
                ScalarProductLane(alice, [[1]], bob, [[[2]]], [[0]], KEYS),
                ScalarProductLane(bob, [[1], [2]], alice, [[[2]]], [[0]],
                                  self.BOB_KEYS)]))
        assert channel.transcript.entries == []


class TestOneFactorPerReply:
    """Every masked reply multiplies in a fresh encryption of the mask
    or blind, which already makes it a fresh encryption: the masker
    draws exactly one randomness factor per reply, none for a separate
    rerandomization."""

    @staticmethod
    def _drawn(key_work, *parties) -> tuple[int, ...]:
        """The factors each of ``parties`` drew from its own coins, all
        under the receiver's key."""
        assert set(key_work["factors"]) == {KEYS.public_key.n}
        return tuple(sum(rng is party.rng for rng in key_work["factor_rngs"])
                     for party in parties)

    def test_masked_dot_terms(self, key_work):
        __, alice, bob = _fresh_parties()
        terms = drive(secure_masked_dot_terms(
            alice, [2, 3, 4], bob, [5, 6, 7], [1, -2, 3], KEYS))
        assert terms == [11, 16, 31]
        # E(x_t), one per term; then one per reply.
        assert self._drawn(key_work, alice, bob) == (3, 3)

    def test_masked_dot_terms_batch(self, key_work):
        __, alice, bob = _fresh_parties()
        betas = [[1, 0], [2, 5], [0, 0], [-3, 4]]
        sums = drive(secure_masked_dot_terms_batch(
            alice, [7, -1], bob, betas, [0, 3, 0, 1], KEYS, blind_bound=99))
        assert sums == [7, 12, 0, -24]
        # Alpha, encrypted once; then one per reply.
        assert self._drawn(key_work, alice, bob) == (2, len(betas))

    def test_scalar_products(self, key_work):
        __, alice, bob = _fresh_parties()
        betas = [[1, 2], [3, 4], [5, 6]]
        [results] = drive(secure_scalar_products(
            alice, [[10, 20]], bob, [betas], [[1, 2, 3]], KEYS))
        assert results == [51, 112, 173]
        assert self._drawn(key_work, bob) == (len(betas),)

    def test_multiplication(self, key_work):
        from repro.smc.multiplication import secure_multiplication

        __, alice, bob = _fresh_parties()
        assert drive(secure_multiplication(alice, 6, bob, 7, 5, KEYS)) == 47
        assert self._drawn(key_work, alice, bob) == (1, 1)

    def test_replies_stay_fresh_encryptions(self):
        """Same plaintexts, different masker coins: the replies share no
        ciphertext even though the masker no longer rerandomizes."""
        replies = []
        for seed in (1, 2):
            channel, alice, bob = _fresh_parties(10)
            bob.rng.seed(seed)
            drive(secure_masked_dot_terms(alice, [2, 3], bob, [4, 5], [0, 0],
                                          KEYS))
            [entry] = [e for e in channel.transcript.entries
                       if e.label == "dot/masked_terms"]
            replies.append(set(entry.value))
        assert not replies[0] & replies[1]


class TestReceivedWidth:
    """Every receiver refuses a ciphertext list that was not sent at its
    key's width (64 bytes: ``n^2`` of a 256-bit key), with the error it
    raises for a ciphertext outside ``Z_{n^2}``."""

    RUNS = {
        "dot": lambda alice, bob: drive(secure_masked_dot_terms(
            alice, [2, 3], bob, [4, 5], [0, 0], KEYS)),
        "dotbatch": lambda alice, bob: drive(secure_masked_dot_terms_batch(
            alice, [7, -1], bob, [[1, 0], [2, 5]], [0, 3], KEYS,
            blind_bound=99)),
        "sprod": lambda alice, bob: drive(secure_scalar_products(
            alice, [[10, 20]], bob, [[[1, 2], [3, 4]]], [[1, 2]], KEYS)),
    }

    @pytest.mark.parametrize("resize", [
        list, lambda values: FixedWidthList(values, values.width + 1)])
    @pytest.mark.parametrize("run,message", [
        ("dot", "encrypted_vector"), ("dot", "masked_terms"),
        ("dotbatch", "encrypted_alpha"), ("dotbatch", "blinded_sums"),
        ("sprod", "encrypted_alpha"), ("sprod", "masked_products")])
    def test_receiver_refuses_other_widths(self, run, message, resize):
        __, alice, bob = _fresh_parties()
        for party in (alice, bob):
            party.send = lambda label, value, send=party.send: send(
                label, resize(value) if label.endswith(f"/{message}")
                else value)
        with pytest.raises(PaillierError, match="64-byte width"):
            self.RUNS[run](alice, bob)
