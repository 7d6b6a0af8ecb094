"""Tests for the batched masked scalar-product protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import PaillierError, PaillierPublicKey
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.net.serialization import FixedWidthList
from repro.smc.scalar_product import (
    PackedLayout,
    ScalarProductError,
    ScalarProductLane,
    secure_masked_dot_terms,
    secure_masked_dot_terms_batch,
    secure_scalar_products,
    secure_scalar_products_lanes,
)

KEYS = cached_paillier_keypair(256, 830)
# Public bounds of the batched calls below: 42-bit slots, so a reply
# ciphertext under the 256-bit KEYS packs SLOTS values.
BOUNDS = {"value_bound": 1 << 40, "mask_bound": 1 << 40}
# The batched cross terms' bounds (blinds in [0, blind_bound]): the
# same slots.
BATCH_BOUNDS = {"value_bound": 1 << 40, "blind_bound": 1 << 40}
SLOTS = 6


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
        masks = [55, 7, 0]
        [results] = drive(secure_scalar_products(alice, [alpha], bob, [betas],
                                                 [masks], KEYS, **BOUNDS))
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
                                                 [masks], KEYS, **BOUNDS))
        for result, point_b, mask in zip(results, points_b, masks):
            true_distance = sum((a - b) ** 2 for a, b in zip(point_a, point_b))
            assert result - mask == true_distance

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=2 * SLOTS + 2),
           st.integers(min_value=0, max_value=10**6))
    def test_random_property(self, width, count, seed):
        import random
        rng = random.Random(seed)
        __, alice, bob = _fresh_parties(seed % 97)
        alpha = [rng.randrange(-100, 101) for _ in range(width)]
        betas = [[rng.randrange(-100, 101) for _ in range(width)]
                 for _ in range(count)]
        masks = [rng.randrange(0, 1001) for _ in range(count)]
        [results] = drive(secure_scalar_products(alice, [alpha], bob, [betas],
                                                 [masks], KEYS, **BOUNDS))
        assert results == [
            sum(a * b for a, b in zip(alpha, beta)) + mask
            for beta, mask in zip(betas, masks)]

    def test_mask_count_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="masks"):
            drive(secure_scalar_products(alice, [[1]], bob, [[[2]]], [[0, 0]],
                                         KEYS, **BOUNDS))

    def test_beta_width_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="length"):
            drive(secure_scalar_products(alice, [[1, 2]], bob, [[[3]]], [[0]],
                                         KEYS, **BOUNDS))

    def test_alpha_sent_once(self):
        """The batching advantage: alpha ciphertexts go out once no matter
        how many betas are evaluated, and the replies are packed: ten
        products in ceil(10 / SLOTS) ciphertexts."""
        channel, alice, bob = _fresh_parties()
        drive(secure_scalar_products(alice, [[1, 2, 3]], bob,
                                     [[[1, 1, 1]] * 10], [[0] * 10], KEYS,
                                     label="sp", **BOUNDS))
        alpha_entries = channel.transcript.with_label("sp/encrypted_alpha")
        assert len(alpha_entries) == 1
        assert len(alpha_entries[0].value) == 3
        reply = channel.transcript.with_label("sp/masked_products")[0]
        assert len(reply.value) == 2


    def test_several_alphas_share_one_round_trip(self):
        """Each alpha keeps its own two messages; all alphas go out
        before the masker replies."""
        channel, alice, bob = _fresh_parties()
        alphas = [[1, 2], [3, -4], [0, 5]]
        betas = [[[1, 1]], [[2, 0], [0, 2]], [[7, 1], [1, 7], [0, 0]]]
        masks = [[5], [6, 7], [8, 9, 10]]
        results = drive(secure_scalar_products(alice, alphas, bob, betas,
                                               masks, KEYS, label="sp",
                                               **BOUNDS))
        assert results == [
            [sum(a * b for a, b in zip(alpha, beta)) + mask
             for beta, mask in zip(group, group_masks)]
            for alpha, group, group_masks in zip(alphas, betas, masks)]
        assert [e.label for e in channel.transcript.entries] \
            == ["sp/encrypted_alpha"] * 3 + ["sp/masked_products"] * 3
        # Each alpha's products, packed into one reply ciphertext.
        assert [len(e.value) for e in channel.transcript.entries] \
            == [2, 2, 2, 1, 1, 1]
        assert channel.stats.rounds == 2

    def test_alpha_count_mismatch(self):
        __, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match="alphas"):
            drive(secure_scalar_products(alice, [[1], [2]], bob, [[[2]]],
                                         [[0]], KEYS, **BOUNDS))


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
                                  KEYS, "a", **BOUNDS),
                ScalarProductLane(bob, [[-2, 5, 1]], alice,
                                  [[[4, 0, 1], [1, 1, 1], [0, 0, 9]]],
                                  [[8, 9, 10]], self.BOB_KEYS, "b",
                                  **BOUNDS)]

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
                                   KEYS, "a", **BOUNDS),
                 ScalarProductLane(alice, [[7]], bob, [[[1], [2]]], [[0, 1]],
                                   KEYS, "c", **BOUNDS)]
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
                ScalarProductLane(alice, [[1]], bob, [[[2]]], [[0]], KEYS,
                                  **BOUNDS),
                ScalarProductLane(bob, [[1], [2]], alice, [[[2]]], [[0]],
                                  self.BOB_KEYS, **BOUNDS)]))
        assert channel.transcript.entries == []


class TestOneFactorPerReply:
    """Every masked reply multiplies in a fresh encryption of the mask
    or blind -- of a chunk's packed masks or blinds, for a packed reply
    -- which already makes it a fresh encryption: the masker draws
    exactly one randomness factor per reply ciphertext, none for a
    separate rerandomization."""

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
        betas = [[1, 0], [2, 5], [0, 0], [-3, 4]] * 3 + [[6, 6]]
        offsets = list(range(len(betas)))
        sums = drive(secure_masked_dot_terms_batch(
            alice, [7, -1], bob, betas, offsets, KEYS, **BATCH_BOUNDS))
        assert sums == [7 * b0 - b1 + offset
                        for (b0, b1), offset in zip(betas, offsets)]
        # Alpha, encrypted once; then one per reply ciphertext: 13 sums
        # in ceil(13 / 6) = 3.
        assert self._drawn(key_work, alice, bob) == (2, 3)

    def test_scalar_products(self, key_work):
        __, alice, bob = _fresh_parties()
        betas = [[1, 2], [3, 4], [5, 6], [0, 1], [1, 0], [2, 2], [3, 1]]
        masks = [1, 2, 3, 4, 5, 6, 7]
        [results] = drive(secure_scalar_products(
            alice, [[10, 20]], bob, [betas], [masks], KEYS, **BOUNDS))
        assert results == [10 * b0 + 20 * b1 + mask
                           for (b0, b1), mask in zip(betas, masks)]
        # Seven products in ceil(7 / 6) = 2 reply ciphertexts.
        assert self._drawn(key_work, bob) == (2,)

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
            value_bound=99, blind_bound=99)),
        "sprod": lambda alice, bob: drive(secure_scalar_products(
            alice, [[10, 20]], bob, [[[1, 2], [3, 4]]], [[1, 2]], KEYS,
            **BOUNDS)),
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


def _key_of(bits: int) -> PaillierPublicKey:
    """A public key whose modulus has ``bits`` bits: all a layout reads."""
    return PaillierPublicKey(n=(1 << (bits - 1)) | 1, g=0)


class TestPackedLayout:
    """One reply ciphertext carries ``slots`` values of ``width`` bits;
    no slot value in range can carry into the next."""

    @pytest.mark.parametrize("bits,slots", [(256, 6), (1024, 26),
                                            (2048, 53)])
    def test_slots_at_the_benchmark_bounds(self, bits, slots):
        """value_bound 3,155,072 and masks up to value_bound << 16 (the
        benchmark's mesh) need 38-bit slots."""
        layout = PackedLayout.fit(_key_of(bits), 3_155_072,
                                  3_155_072 << 16)
        assert (layout.width, layout.slots) == (38, slots)

    def test_zero_bounds_take_one_bit_slots(self):
        """All-zero vectors with zero masks still get a layout (1-bit
        slots), not a division by a zero width."""
        __, alice, bob = _fresh_parties()
        [results] = drive(secure_scalar_products(
            alice, [[0, 0]], bob, [[[0, 0]] * 3], [[0, 0, 0]], KEYS,
            value_bound=0, mask_bound=0))
        assert results == [0, 0, 0]

    def test_chunks_cover_every_position_in_order(self):
        layout = PackedLayout.fit(KEYS.public_key, **BOUNDS)
        assert layout.slots == SLOTS
        for count in range(0, 3 * SLOTS + 2):
            chunks = layout.chunks(count)
            assert [i for chunk in chunks for i in chunk] \
                == list(range(count))
            assert len(chunks) == layout.ciphertexts(count) \
                == -(-count // SLOTS)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([128, 256, 1024]),
           st.integers(min_value=0, max_value=1 << 40),
           st.integers(min_value=1, max_value=1 << 40),
           st.data())
    def test_values_at_both_ends_round_trip(self, bits, value_bound,
                                            mask_bound, data):
        """Every value a slot may hold -- from ``-value_bound`` (the
        most negative product, mask 0) to ``value_bound + mask_bound``
        -- packs below ``n`` and unpacks to itself, for every chunk
        length."""
        public = _key_of(bits)
        layout = PackedLayout.fit(public, value_bound, mask_bound)
        low, high = -value_bound, value_bound + mask_bound
        count = data.draw(st.integers(min_value=1,
                                      max_value=2 * layout.slots + 1))
        values = data.draw(st.lists(
            st.one_of(st.sampled_from([low, high]),
                      st.integers(min_value=low, max_value=high)),
            min_size=count, max_size=count))
        plaintexts = [layout.pack([values[i] for i in chunk])
                      for chunk in layout.chunks(count)]
        assert all(0 <= plaintext < public.n for plaintext in plaintexts)
        assert layout.unpack(plaintexts, count) == values

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                    max_size=2 * SLOTS + 1))
    def test_extreme_products_round_trip_through_the_protocol(self, ends):
        """``<alpha, beta_i> = +/-value_bound`` with masks 0 or
        ``mask_bound``: every slot at an end of its range, encrypted,
        packed, decrypted and unpacked, for every chunk length."""
        root = 1 << 20
        alpha = [root, 0]
        betas = [[root if positive else -root, 0] for positive, _ in ends]
        masks = [BOUNDS["mask_bound"] if high else 0 for _, high in ends]
        __, alice, bob = _fresh_parties(len(ends))
        [results] = drive(secure_scalar_products(
            alice, [alpha], bob, [betas], [masks], KEYS, **BOUNDS))
        assert results == [root * beta[0] + mask
                           for beta, mask in zip(betas, masks)]

    def test_extreme_cross_sums_round_trip(self):
        root = 1 << 20
        betas = [[root, 0], [-root, 0], [0, root], [0, -root]] * 2
        offsets = [0, 5, 0, 7, 1, 0, 2, 3]
        __, alice, bob = _fresh_parties(3)
        sums = drive(secure_masked_dot_terms_batch(
            alice, [0, root], bob, betas, offsets, KEYS, **BATCH_BOUNDS))
        assert sums == [root * beta[1] + offset
                        for beta, offset in zip(betas, offsets)]


class TestOverflowRefused:
    """An input that could overflow a slot is refused by the party that
    holds it, before anything is sent."""

    def _refused(self, run, match):
        channel, alice, bob = _fresh_parties()
        with pytest.raises(ScalarProductError, match=match):
            drive(run(alice, bob))
        assert channel.transcript.entries == []

    @pytest.mark.parametrize("alpha,betas,match", [
        ([1 << 20, 1], [[1, 0]], r"alpha\[0\] has a squared norm above"),
        ([1, 0], [[0, 0], [1 << 20, 1]],
         r"beta\[1\] has a squared norm above"),
    ])
    def test_cross_terms_refuse_a_vector_above_the_bound(self, alpha,
                                                         betas, match):
        self._refused(lambda alice, bob: secure_masked_dot_terms_batch(
            alice, alpha, bob, betas, [0] * len(betas), KEYS,
            **BATCH_BOUNDS), match)

    @pytest.mark.parametrize("alphas,betas,masks,match", [
        ([[1 << 20, 1]], [[[1, 0]]], [[0]], r"alpha\[0\]"),
        ([[1, 0]], [[[0, 0], [0, -(1 << 20) - 1]]], [[0, 0]], r"beta\[1\]"),
        ([[1, 0]], [[[0, 0], [0, 1]]], [[0, -1]], r"mask\[1\] outside"),
        ([[1, 0]], [[[0, 1]]], [[(1 << 40) + 1]], r"mask\[0\] outside"),
    ])
    def test_sharing_refuses_a_vector_or_mask_out_of_bounds(
            self, alphas, betas, masks, match):
        self._refused(lambda alice, bob: secure_scalar_products(
            alice, alphas, bob, betas, masks, KEYS, **BOUNDS), match)

    def test_a_key_without_one_slot_is_refused(self):
        """A slot holds up to ``2 * value_bound + mask_bound``: at
        ``value_bound = 2^254`` that takes 256 bits, more than the 255
        bits a 256-bit key's plaintext packs."""
        self._refused(lambda alice, bob: secure_scalar_products(
            alice, [[1]], bob, [[[1]]], [[0]], KEYS, value_bound=1 << 254,
            mask_bound=1), "256-bit reply slot does not fit a 256-bit key")
        self._refused(lambda alice, bob: secure_masked_dot_terms_batch(
            alice, [1], bob, [[1]], [0], KEYS, value_bound=1 << 254,
            blind_bound=1), "256-bit reply slot does not fit a 256-bit key")


class TestReplyLengths:
    """The key holder refuses a reply list that does not carry
    ``ceil(n / slots)`` ciphertexts, and the receiver a ``cross_sums``
    list that does not carry ``n`` sums -- before decrypting or using
    either, naming the label and both counts."""

    BETAS = [[1, 0], [2, 5], [0, 0], [-3, 4], [1, 1], [0, 2], [7, 7]]

    def _tampered(self, party, label_suffix, tamper):
        send = party.send
        party.send = lambda label, value: send(
            label, tamper(value) if label.endswith(label_suffix) else value)

    def _batch(self, alice, bob):
        return drive(secure_masked_dot_terms_batch(
            alice, [7, -1], bob, self.BETAS, [0] * len(self.BETAS), KEYS,
            **BATCH_BOUNDS))

    @pytest.mark.parametrize("tamper,received", [
        (lambda values: FixedWidthList(values[:-1], values.width), 1),
        (lambda values: FixedWidthList(values + values[:1], values.width),
         3)])
    def test_holder_checks_the_blinded_sums(self, tamper, received):
        __, alice, bob = _fresh_parties()
        self._tampered(bob, "/blinded_sums", tamper)
        with pytest.raises(ScalarProductError,
                           match=f"dotbatch/blinded_sums: expected 2 reply "
                                 f"ciphertexts for 7 values, received "
                                 f"{received}"):
            self._batch(alice, bob)

    def test_receiver_checks_the_cross_sums(self):
        __, alice, bob = _fresh_parties()
        self._tampered(alice, "/cross_sums", lambda sums: sums[:-1])
        with pytest.raises(ScalarProductError,
                           match="dotbatch/cross_sums: expected 7 sums, "
                                 "received 6"):
            self._batch(alice, bob)

    def test_receiver_checks_each_masked_products_list(self):
        __, alice, bob = _fresh_parties()
        self._tampered(bob, "/masked_products",
                       lambda values: FixedWidthList(values[1:],
                                                     values.width))
        with pytest.raises(ScalarProductError,
                           match="sprod/masked_products: expected 2 reply "
                                 "ciphertexts for 7 values, received 1"):
            drive(secure_scalar_products(
                alice, [[10, 20], [1, 1]], bob, [self.BETAS, self.BETAS[:2]],
                [[1] * 7, [2, 3]], KEYS, **BOUNDS))
