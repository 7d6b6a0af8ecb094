"""Tests for the DGK bitwise comparison on DGK's cryptosystem."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dgk import DGK_U, DgkError, DgkPublicKey, dgk_parameters
from repro.crypto.keycache import cached_dgk_keypair
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.net.serialization import FixedWidthList
from repro.smc.bitwise_comparison import (
    BitwiseComparisonError,
    GapLane,
    dgk_greater_than,
    dgk_greater_than_batch,
    dgk_greater_than_pairwise,
    dgk_leq_within_gap_lanes,
)

KEYS = cached_dgk_keypair(256, 810)


def _zeros(values) -> int:
    """How many ciphertexts the key holder's zero test flags."""
    return sum(KEYS.private_key.zero_test_batch(values))


def _fresh_parties(seed: int = 0):
    return make_party_pair(Channel(), alice_seed=seed, bob_seed=seed + 1)


class TestCorrectness:
    @pytest.mark.parametrize("x,y,bits", [
        (0, 0, 1), (1, 0, 1), (0, 1, 1),
        (5, 3, 4), (3, 5, 4), (7, 7, 4),
        (15, 0, 4), (0, 15, 4), (255, 254, 8), (254, 255, 8),
        (2**30, 2**30 - 1, 32),
    ])
    def test_boundary_cases(self, x, y, bits):
        alice, bob = _fresh_parties(x * 31 + y)
        assert drive(dgk_greater_than(alice, x, bob, y, bits, KEYS)) == (x > y)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20 - 1),
           st.integers(min_value=0, max_value=2**20 - 1),
           st.integers(min_value=0, max_value=100))
    def test_random_pairs(self, x, y, seed):
        alice, bob = _fresh_parties(seed)
        assert drive(dgk_greater_than(alice, x, bob, y, 20, KEYS)) == (x > y)


class TestValidation:
    def test_x_out_of_range(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="x=8"):
            drive(dgk_greater_than(alice, 8, bob, 1, 3, KEYS))

    def test_y_out_of_range(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="y=-1"):
            drive(dgk_greater_than(alice, 1, bob, -1, 3, KEYS))

    def test_zero_bits(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="bits"):
            drive(dgk_greater_than(alice, 0, bob, 0, 0, KEYS))


class TestCommunicationShape:
    def test_two_messages_per_run(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        drive(dgk_greater_than(alice, 9, bob, 5, 8, KEYS, label="t"))
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["t/x_bits", "t/witnesses"]

    def test_batch_sizes_equal_bit_width(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        bits = 12
        drive(dgk_greater_than(alice, 9, bob, 5, bits, KEYS, label="t"))
        for entry in channel.transcript.entries:
            assert len(entry.value) == bits

    def test_cost_logarithmic_vs_ympp(self):
        # The whole point of the substitution: 2*bits ciphertexts instead
        # of n0 numbers.  For a 2^20 domain the DGK transfer is far below
        # what YMPP's 2^20-number sequence would be.
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        drive(dgk_greater_than(alice, 2**19, bob, 2**19 - 1, 20, KEYS))
        n_bytes = (KEYS.public_key.n.bit_length() + 7) // 8
        assert channel.stats.total_bytes < 3 * 20 * (n_bytes + 8)


class TestBatch:
    """Amortized batches: one bit-encryption, per-point predicate bits."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1),
           st.lists(st.integers(min_value=0, max_value=2**16 - 1),
                    min_size=0, max_size=8),
           st.integers(min_value=0, max_value=100))
    def test_matches_per_point_predicates(self, x, ys, seed):
        alice, bob = _fresh_parties(seed)
        assert drive(dgk_greater_than_batch(alice, x, bob, ys, 16, KEYS)) \
            == [x > y for y in ys]

    def test_empty_batch_sends_nothing(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        assert drive(dgk_greater_than_batch(alice, 3, bob, [], 4, KEYS)) == []
        assert channel.transcript.entries == []

    def test_one_round_trip_regardless_of_batch_size(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        drive(dgk_greater_than_batch(alice, 9, bob, [5, 11, 9, 0], 8, KEYS,
                                     label="t"))
        labels = [e.label for e in channel.transcript.entries]
        assert labels == ["t/x_bits", "t/witnesses"]

    def test_witness_batches_per_point_shape(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        bits = 12
        drive(dgk_greater_than_batch(alice, 9, bob, [5, 3000, 9], bits, KEYS,
                                     label="t"))
        x_bits = channel.transcript.with_label("t/x_bits")[0].value
        assert len(x_bits) == bits  # encrypted once, not per point
        batches = channel.transcript.with_label("t/witnesses")[0].value
        assert len(batches) == 3
        assert all(len(batch) == bits for batch in batches)

    def test_each_batch_obliviously_witnesses_its_predicate(self):
        # Per point: exactly one zero when x > y_i, none otherwise --
        # the shared bit-encryption must not cross-contaminate batches.
        channel = Channel()
        alice, bob = make_party_pair(channel, 3, 4)
        ys = [13, 700, 699, 701]
        drive(dgk_greater_than_batch(alice, 700, bob, ys, 10, KEYS, label="t"))
        batches = channel.transcript.with_label("t/witnesses")[0].value
        for y, batch in zip(ys, batches):
            assert _zeros(batch) == (1 if 700 > y else 0), y

    def test_validation_covers_every_item(self):
        alice, bob = _fresh_parties()
        with pytest.raises(BitwiseComparisonError, match="y=8"):
            drive(dgk_greater_than_batch(alice, 1, bob, [0, 8], 3, KEYS))
        with pytest.raises(BitwiseComparisonError, match="x=8"):
            drive(dgk_greater_than_batch(alice, 8, bob, [0], 3, KEYS))
        with pytest.raises(BitwiseComparisonError, match="bits"):
            drive(dgk_greater_than_batch(alice, 0, bob, [0], 0, KEYS))


class TestObliviousness:
    def test_witness_batch_has_at_most_one_zero(self):
        # The decryptor must learn only the predicate: by construction at
        # most one witness decrypts to zero.
        channel = Channel()
        alice, bob = make_party_pair(channel, 3, 4)
        drive(dgk_greater_than(alice, 700, bob, 13, 10, KEYS, label="t"))
        witnesses = channel.transcript.with_label("t/witnesses")[0].value
        assert _zeros(witnesses) == 1  # x > y here, exactly one witness

    def test_no_zero_when_not_greater(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 5, 6)
        drive(dgk_greater_than(alice, 13, bob, 700, 10, KEYS, label="t"))
        witnesses = channel.transcript.with_label("t/witnesses")[0].value
        assert _zeros(witnesses) == 0


class TestReceivedCiphertexts:
    """Each side checks what it receives before computing on it."""

    def _tampered(self, party, label_suffix, tamper):
        send = party.send
        party.send = lambda label, value: send(
            label, tamper(value) if label.endswith(label_suffix) else value)

    @pytest.mark.parametrize("tamper,match", [
        (lambda bits: bits[:-1], "expected 8 bit ciphertexts"),
        (lambda bits: bits[:-1] + [KEYS.public_key.n], r"outside \(0, n\)"),
        (lambda bits: bits[:-1] + [True], r"outside \(0, n\)"),
    ])
    def test_other_party_checks_the_bit_ciphertexts(self, tamper, match):
        alice, bob = _fresh_parties(7)
        self._tampered(alice, "/x_bits", tamper)
        with pytest.raises(ValueError, match=match):
            drive(dgk_greater_than(alice, 9, bob, 5, 8, KEYS))

    @pytest.mark.parametrize("batch", [False, True])
    def test_key_holder_checks_the_witnesses(self, batch):
        alice, bob = _fresh_parties(8)
        if batch:
            self._tampered(bob, "/witnesses",
                           lambda batches: batches + [batches[0]])
            with pytest.raises(BitwiseComparisonError,
                               match="expected 2 witness batches"):
                drive(dgk_greater_than_batch(alice, 9, bob, [5, 11], 8, KEYS))
        else:
            self._tampered(bob, "/witnesses", lambda values: values[1:])
            with pytest.raises(BitwiseComparisonError,
                               match="expected 8 witnesses"):
                drive(dgk_greater_than(alice, 9, bob, 5, 8, KEYS))

    @pytest.mark.parametrize("resize", [
        list, lambda values: FixedWidthList(values, values.width + 1)])
    def test_other_party_refuses_bits_not_at_the_key_width(self, resize):
        alice, bob = _fresh_parties(9)
        self._tampered(alice, "/x_bits", resize)
        with pytest.raises(DgkError, match="32-byte width"):
            drive(dgk_greater_than(alice, 9, bob, 5, 8, KEYS))

    @pytest.mark.parametrize("batch", [False, True])
    def test_key_holder_refuses_witnesses_not_at_the_key_width(self, batch):
        alice, bob = _fresh_parties(10)
        if batch:
            self._tampered(bob, "/witnesses", lambda batches: [
                FixedWidthList(values, 64) for values in batches])
            with pytest.raises(DgkError, match="32-byte width"):
                drive(dgk_greater_than_batch(alice, 9, bob, [5, 11], 8, KEYS))
        else:
            self._tampered(bob, "/witnesses", list)
            with pytest.raises(DgkError, match="32-byte width"):
                drive(dgk_greater_than(alice, 9, bob, 5, 8, KEYS))


class TestEachListCheckedOnce:
    """Every received ciphertext list is range-checked exactly once: bit
    ciphertexts by the other party on receipt, witnesses by the key
    holder's zero test, which refuses out-of-range values itself."""

    @staticmethod
    def _checked_lengths(monkeypatch) -> list[int]:
        lengths = []
        check = DgkPublicKey.check_ciphertexts

        def counting_check(self, values):
            checked = check(self, values)
            lengths.append(len(checked))
            return checked

        monkeypatch.setattr(DgkPublicKey, "check_ciphertexts",
                            counting_check)
        return lengths

    def test_pairwise(self, monkeypatch):
        lengths = self._checked_lengths(monkeypatch)
        alice, bob = _fresh_parties(11)
        assert drive(dgk_greater_than_pairwise(
            alice, [9, 5, 7], bob, [5, 9, 7], 8, KEYS)) \
            == [True, False, False]
        assert lengths == [8] * 6  # three x_bits lists, three witness lists

    def test_batch(self, monkeypatch):
        lengths = self._checked_lengths(monkeypatch)
        alice, bob = _fresh_parties(12)
        assert drive(dgk_greater_than_batch(
            alice, 9, bob, [5, 11, 200], 8, KEYS)) == [True, False, False]
        assert lengths == [8, 24]  # the x_bits, then one sweep of 3 lists

    def test_gap_lanes(self, monkeypatch):
        lengths = self._checked_lengths(monkeypatch)
        alice, bob = _fresh_parties(13)
        assert drive(dgk_leq_within_gap_lanes(
            TestWithinGapLanes._lanes(alice, bob))) \
            == [[True, False], [True, False, True]]
        # Every lane's x_bits lists, then every lane's witness lists.
        assert lengths == [10] * 2 + [3] * 3 + [11] * 2 + [4] * 3


def _reference_witnesses(public, received, y, bits, rng):
    """Steps 2-3 as the module docstring states them, position by
    position with plain powers: ``c_t = E(x_t) * g^(-y_t - 1) * W_t^3``
    with one modular inverse per position where ``y`` has a 1 bit, then
    ``c_t^m * h^r`` with ``m`` drawn before ``r``, and one shuffle at the
    end: what the batched inversion and the ``h^r`` table must reproduce
    bit for bit."""
    n, g, h = public.n, public.g, public.h
    r_bits = dgk_parameters(n.bit_length()).r_bits
    blinded, running_w = [], 1
    for position, enc_x_bit in enumerate(received):
        y_bit = (y >> (bits - 1 - position)) & 1
        c = enc_x_bit * pow(g, -1 - y_bit, n) * pow(running_w, 3, n) % n
        multiplier = rng.randrange(1, DGK_U)
        blinded.append(pow(c, multiplier, n)
                       * pow(h, rng.getrandbits(r_bits), n) % n)
        xor_term = g * pow(enc_x_bit, -1, n) % n if y_bit else enc_x_bit
        running_w = running_w * xor_term % n
    rng.shuffle(blinded)
    return blinded


def _peer_values(pattern: str, bits: int, count: int, seed: int):
    rng = random.Random(seed)
    if pattern == "zeros":
        return [0] * count
    if pattern == "ones":
        return [(1 << bits) - 1] * count
    return [rng.randrange(1 << bits) for _ in range(count)]


class TestBatchedInversion:
    """Every ``E(1 - x_t)`` of a call comes from one modular inverse;
    the witnesses on the wire stay those of the per-position form."""

    @pytest.mark.parametrize("bits", [1, 40])
    @pytest.mark.parametrize("pattern", ["random", "zeros", "ones"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_witnesses_equal_the_per_position_reference(self, bits, pattern,
                                                        batched):
        for seed in range(3):
            channel = Channel()
            alice, bob = make_party_pair(channel, 40 + seed, 50 + seed)
            ys = _peer_values(pattern, bits, 3 if batched else 1, seed)
            x = random.Random(seed).randrange(1 << bits)
            state = bob.rng.getstate()
            if batched:
                drive(dgk_greater_than_batch(alice, x, bob, ys, bits, KEYS,
                                             label="t"))
            else:
                drive(dgk_greater_than(alice, x, bob, ys[0], bits, KEYS,
                                       label="t"))
            received = channel.transcript.with_label("t/x_bits")[0].value
            rng = random.Random()
            rng.setstate(state)
            expected = [_reference_witnesses(KEYS.public_key, received, y,
                                             bits, rng) for y in ys]
            sent = channel.transcript.with_label("t/witnesses")[0].value
            assert sent == (expected if batched else expected[0])

    @pytest.mark.parametrize("pattern", ["random", "zeros", "ones"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_unit_bit_ciphertext_raises_whatever_the_peer_bits(
            self, pattern, batched):
        """A bit ciphertext sharing a factor with n fails at the one
        inverse, even where every peer bit is 0 and no complement of
        that position is used."""
        p = KEYS.private_key.p
        for position in (0, 7):
            alice, bob = _fresh_parties(position)
            send = alice.send
            alice.send = lambda label, value: send(label, (
                FixedWidthList(value[:position] + [p]
                               + value[position + 1:], value.width)
                if label.endswith("/x_bits") else value))
            ys = _peer_values(pattern, 8, 2, position)
            with pytest.raises(BitwiseComparisonError, match="not a unit"):
                if batched:
                    drive(dgk_greater_than_batch(alice, 9, bob, ys, 8, KEYS))
                else:
                    drive(dgk_greater_than(alice, 9, bob, ys[0], 8, KEYS))


class TestPairwise:
    """Independent comparisons run phase by phase: one round-trip, each
    pair with the messages and coins of its own
    :func:`dgk_greater_than`."""

    PAIRS = [(9, 5), (5, 9), (7, 7), (0, 255), (255, 0)]

    def test_predicates(self):
        alice, bob = _fresh_parties(5)
        xs, ys = zip(*self.PAIRS)
        assert drive(dgk_greater_than_pairwise(alice, list(xs), bob, list(ys),
                                               8, KEYS)) == [x > y for x, y in
                                                   self.PAIRS]

    def test_messages_of_a_loop_in_one_round_trip(self):
        pairwise, looped = Channel(), Channel()
        alice, bob = make_party_pair(pairwise, 6, 7)
        xs, ys = zip(*self.PAIRS)
        drive(dgk_greater_than_pairwise(alice, list(xs), bob, list(ys), 8,
                                        KEYS, label="t"))
        alice, bob = make_party_pair(looped, 6, 7)
        for x, y in self.PAIRS:
            drive(dgk_greater_than(alice, x, bob, y, 8, KEYS, label="t"))

        def payloads(channel, label):
            return [e.wire for e in channel.transcript.with_label(label)]

        for label in ("t/x_bits", "t/witnesses"):
            assert payloads(pairwise, label) == payloads(looped, label)
        count = len(self.PAIRS)
        assert [e.label for e in pairwise.transcript.entries] \
            == ["t/x_bits"] * count + ["t/witnesses"] * count
        assert pairwise.stats.total_bytes == looped.stats.total_bytes
        assert (pairwise.stats.rounds, looped.stats.rounds) \
            == (2, 2 * count)

    def test_checks_before_sending(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        with pytest.raises(BitwiseComparisonError, match="values"):
            drive(dgk_greater_than_pairwise(alice, [1, 2], bob, [1], 3, KEYS))
        with pytest.raises(BitwiseComparisonError, match="outside"):
            drive(dgk_greater_than_pairwise(alice, [1, 8], bob, [1, 1], 3,
                                            KEYS))
        assert channel.transcript.entries == []
        assert drive(dgk_greater_than_pairwise(alice, [], bob, [], 3,
                                               KEYS)) == []
        assert channel.transcript.entries == []


#: A 128-bit DGK key, the smallest the module accepts.
SMALL_KEYS = cached_dgk_keypair(128, 992)


def _key_holder_high_bit(x: int, gap: int) -> int:
    """``A_l``: bit ``l`` of the key holder's ``(2^l - x) mod 2^(l+1)``."""
    low_bits = gap.bit_length()
    return ((1 << low_bits) - x) % (2 << low_bits) >> low_bits


@st.composite
def _gap_pairs(draw):
    """``(x, y, gap)`` with ``bits(gap)`` in 1-40, values up to about
    2^60 and ``|x - y| <= gap``: either end of the gap, ties, and pairs
    straddling a multiple of ``2^(l+1)``."""
    low_bits = draw(st.integers(min_value=1, max_value=40))
    gap = draw(st.integers(min_value=1 << (low_bits - 1),
                           max_value=(1 << low_bits) - 1))
    if draw(st.booleans()):
        x = draw(st.integers(min_value=gap, max_value=1 << 60))
        y = x + draw(st.one_of(st.sampled_from([-gap, 0, gap]),
                               st.integers(min_value=-gap, max_value=gap)))
    else:
        boundary = draw(st.integers(min_value=1, max_value=1 << 18)) \
            << (low_bits + 1)
        below = boundary - draw(st.integers(min_value=1, max_value=gap))
        above = boundary + draw(st.integers(min_value=0,
                                            max_value=gap - boundary + below))
        x, y = (below, above) if draw(st.booleans()) else (above, below)
    return x, y, gap


class TestWithinGap:
    """``x <= y`` under the public promise ``|x - y| <= gap``, on
    ``bits(gap) + 1`` positions whatever the values' range: one lane of
    :func:`dgk_leq_within_gap_lanes`."""

    @settings(max_examples=60, deadline=None)
    @given(_gap_pairs(), st.integers(min_value=0, max_value=100))
    def test_decides_x_leq_y(self, pair, seed):
        x, y, gap = pair
        assert abs(x - y) <= gap
        alice, bob = _fresh_parties(seed)
        assert drive(dgk_leq_within_gap_lanes(
            [GapLane(alice, [x], bob, [y], gap, SMALL_KEYS)])) == [[x <= y]]

    def test_every_pair_of_small_gaps(self):
        """Every pair with ``|x - y| <= gap`` over a few periods of
        ``2^(l+1)``, for gaps 0-9: ties, both ends of the gap and every
        carry pattern."""
        for gap in range(10):
            pairs = [(x, y) for x in range(4 << gap.bit_length())
                     for y in range(max(0, x - gap), x + gap + 1)]
            alice, bob = _fresh_parties(gap)
            xs, ys = zip(*pairs)
            assert drive(dgk_leq_within_gap_lanes(
                [GapLane(alice, xs, bob, ys, gap, SMALL_KEYS)])) \
                == [[x <= y for x, y in pairs]], gap

    def test_sizes_follow_the_gap_not_the_values(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        gap = 1000  # 10 bits
        drive(dgk_leq_within_gap_lanes([GapLane(
            alice, [2**50, 3], bob, [2**50 - 1000, 1003], gap, KEYS, "t")]))
        assert [len(e.value) for e in channel.transcript.entries] \
            == [10, 10, 11, 11]
        assert [e.label for e in channel.transcript.entries] \
            == ["t/x_bits"] * 2 + ["t/witnesses"] * 2
        assert channel.stats.rounds == 2

    def test_the_key_holder_sees_a_zero_exactly_at_result_xor_a_l(self):
        """One zero when ``x <= y`` differs from ``A_l``, none otherwise,
        whether or not the other party flipped its witnesses (``B_l``):
        the view is a function of the output and the key holder's own
        input."""
        gap = 5  # l = 3
        pairs = [(x, y) for x in range(5, 40)
                 for y in range(x - gap, x + gap + 1)]
        channel = Channel()
        alice, bob = make_party_pair(channel, 11, 12)
        xs, ys = zip(*pairs)
        drive(dgk_leq_within_gap_lanes([GapLane(alice, xs, bob, ys, gap, KEYS,
                                                "t")]))
        witnesses = channel.transcript.with_label("t/witnesses")
        seen = set()
        for (x, y), entry in zip(pairs, witnesses):
            result, a_l = x <= y, _key_holder_high_bit(x, gap)
            assert _zeros(entry.value) == (result != a_l), (x, y)
            seen.add((result, a_l, y >> 3 & 1))  # B_l: the flip
        assert seen == {(r, a, b) for r in (False, True) for a in (0, 1)
                        for b in (0, 1)}

    def test_checks_before_sending(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        with pytest.raises(BitwiseComparisonError, match="gap"):
            drive(dgk_leq_within_gap_lanes([GapLane(alice, [1], bob, [1], -1,
                                                    KEYS)]))
        with pytest.raises(BitwiseComparisonError, match="values"):
            drive(dgk_leq_within_gap_lanes([GapLane(alice, [1, 2], bob, [1], 3,
                                                    KEYS)]))
        with pytest.raises(BitwiseComparisonError, match="3 \\* bits"):
            drive(dgk_leq_within_gap_lanes([GapLane(alice, [1], bob, [1],
                                                    1 << DGK_U, KEYS)]))
        assert channel.transcript.entries == []


class TestWithinGapLanes:
    """Several gap batches -- each with its own key holder, keys, gap
    and label -- phase by phase across the lanes."""

    @staticmethod
    def _lanes(alice, bob):
        """Alice keyed at gap 1000 (10 bits), bob at gap 5 (3 bits)."""
        return [GapLane(alice, [7, 2000], bob, [900, 1500], 1000, KEYS,
                        "a"),
                GapLane(bob, [3, 9, 4], alice, [5, 4, 4], 5, SMALL_KEYS,
                        "b")]

    def test_each_lane_decides_its_own_pairs(self):
        alice, bob = _fresh_parties(3)
        assert drive(dgk_leq_within_gap_lanes(self._lanes(alice, bob))) \
            == [[True, False], [True, False, True]]

    def test_lanes_in_opposite_directions_share_their_flights(self):
        """Every lane's requests, then every lane's answers: alice's
        bits, bob's bits and his witnesses, alice's witnesses -- three
        flights for both lanes."""
        channel = Channel()
        alice, bob = make_party_pair(channel, 4, 5)
        drive(dgk_leq_within_gap_lanes(self._lanes(alice, bob)))
        entries = channel.transcript.entries
        assert [e.label for e in entries] \
            == (["a/x_bits"] * 2 + ["b/x_bits"] * 3 + ["a/witnesses"] * 2
                + ["b/witnesses"] * 3)
        assert [len(e.value) for e in entries] \
            == [10] * 2 + [3] * 3 + [11] * 2 + [4] * 3
        assert channel.stats.rounds == 3

    def test_lanes_in_one_direction_share_one_round_trip(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 6, 7)
        results = drive(dgk_leq_within_gap_lanes([
            GapLane(alice, [7], bob, [900], 1000, KEYS, "a"),
            GapLane(alice, [9, 4], bob, [4, 4], 5, KEYS, "c")]))
        assert results == [[True], [False, True]]
        assert [e.label for e in channel.transcript.entries] \
            == ["a/x_bits", "c/x_bits", "c/x_bits", "a/witnesses",
                "c/witnesses", "c/witnesses"]
        assert channel.stats.rounds == 2

    def test_a_lane_sends_and_learns_what_it_does_alone(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 8, 9)
        together = drive(dgk_leq_within_gap_lanes(self._lanes(alice, bob)))
        for lane, results in zip(self._lanes(alice, bob), together):
            alone = Channel()
            key_holder, other = make_party_pair(alone, 8, 9)
            if lane.key_holder is bob:
                other, key_holder = key_holder, other
            assert drive(dgk_leq_within_gap_lanes([GapLane(
                key_holder, lane.xs, other, lane.ys, lane.gap, lane.keypair,
                lane.label)])) == [results]
            sent = [(e.label, len(e.value))
                    for e in channel.transcript.entries
                    if e.label.startswith(f"{lane.label}/")]
            assert [(e.label, len(e.value))
                    for e in alone.transcript.entries] == sent

    def test_every_lane_is_checked_before_anything_is_sent(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        with pytest.raises(BitwiseComparisonError, match="values"):
            drive(dgk_leq_within_gap_lanes([
                GapLane(alice, [1], bob, [1], 3, KEYS),
                GapLane(bob, [1, 2], alice, [1], 3, SMALL_KEYS)]))
        assert channel.transcript.entries == []


def _literal_bits(public, x: int, bits: int, rng) -> list[int]:
    """Step 1 position by position with plain powers: ``E(x_t) = g^(x_t)
    * h^r mod n``, MSB first, one draw of ``r`` per bit."""
    n, r_bits = public.n, dgk_parameters(public.n.bit_length()).r_bits
    return [pow(public.g, (x >> (bits - 1 - t)) & 1, n)
            * pow(public.h, rng.getrandbits(r_bits), n) % n
            for t in range(bits)]


def _cloned_coins(*parties) -> list[random.Random]:
    clones = []
    for party in parties:
        clone = random.Random()
        clone.setstate(party.rng.getstate())
        clones.append(clone)
    return clones


class TestLiteralKernels:
    """Every DGK ciphertext the forms send -- the key holder's bit
    encryptions (CRT tables on its own primes) and the other party's
    witnesses (a fixed-base ``h^r`` table) -- equals the literal formula
    rebuilt position by position with plain powers from cloned coins, so
    a faster kernel cannot change a ciphertext unnoticed."""

    @pytest.fixture(params=[256, 1024])
    def keys(self, request):
        return KEYS if request.param == 256 else cached_dgk_keypair(1024, 31)

    def test_batch(self, keys):
        public = keys.public_key
        for seed, (x, ys, bits) in enumerate([(9, [5, 11, 0], 8),
                                              (2**39 + 7, [3, 2**40 - 1], 40),
                                              (1, [0], 1)]):
            channel = Channel()
            alice, bob = make_party_pair(channel, 60 + seed, 70 + seed)
            holder_coins, other_coins = _cloned_coins(alice, bob)
            drive(dgk_greater_than_batch(alice, x, bob, ys, bits, keys,
                                         label="t"))
            x_bits = _literal_bits(public, x, bits, holder_coins)
            assert channel.transcript.with_label("t/x_bits")[0].value \
                == x_bits
            assert channel.transcript.with_label("t/witnesses")[0].value \
                == [_reference_witnesses(public, x_bits, y, bits, other_coins)
                    for y in ys]

    def test_pairwise(self, keys):
        public = keys.public_key
        xs, ys, bits = [9, 5, 255, 0], [5, 9, 0, 0], 8
        channel = Channel()
        alice, bob = make_party_pair(channel, 80, 81)
        holder_coins, other_coins = _cloned_coins(alice, bob)
        drive(dgk_greater_than_pairwise(alice, xs, bob, ys, bits, keys,
                                        label="t"))
        x_bits = [_literal_bits(public, x, bits, holder_coins) for x in xs]
        assert [e.value for e in channel.transcript.with_label("t/x_bits")] \
            == x_bits
        assert [e.value
                for e in channel.transcript.with_label("t/witnesses")] \
            == [_reference_witnesses(public, sent, y, bits, other_coins)
                for sent, y in zip(x_bits, ys)]

    def test_gap_lanes(self, keys):
        """Both lanes of a Section 5 step: each key holder sends ``E`` of
        ``A'``'s low ``l`` bits; the other party appends ``E(0) = 1`` and
        witnesses over those bits when ``B_l = 0``, over their
        complements ``g * E(x_t)^-1`` when ``B_l = 1``."""
        lanes_of = [(1000, [7, 2000, 500], [900, 1500, 1500], "a"),
                    (5, [3, 9, 4, 40], [5, 12, 4, 36], "b")]
        channel = Channel()
        alice, bob = make_party_pair(channel, 90, 91)
        alice_coins, bob_coins = _cloned_coins(alice, bob)
        lanes = [GapLane(alice, xs, bob, ys, gap, keys, label)
                 if label == "a" else
                 GapLane(bob, xs, alice, ys, gap, SMALL_KEYS, label)
                 for gap, xs, ys, label in lanes_of]
        drive(dgk_leq_within_gap_lanes(lanes))
        coins = {alice.name: alice_coins, bob.name: bob_coins}
        sent_bits = {}
        for lane in lanes:
            public, low_bits = lane.keypair.public_key, lane.low_bits
            half = 1 << low_bits
            sent_bits[lane.label] = [
                _literal_bits(public, -x % half, low_bits,
                              coins[lane.key_holder.name]) for x in lane.xs]
            assert [e.value for e in
                    channel.transcript.with_label(f"{lane.label}/x_bits")] \
                == sent_bits[lane.label]
        for lane in lanes:
            public, low_bits = lane.keypair.public_key, lane.low_bits
            n, half = public.n, 1 << lane.low_bits
            expected = []
            for x_bits, y in zip(sent_bits[lane.label], lane.ys):
                doubled = x_bits + [1]
                b = y % (2 * half)
                if b < half:
                    received, peer_bits = doubled, 2 * (half - 1 - b)
                else:
                    received = [public.g * pow(value, -1, n) % n
                                for value in doubled]
                    peer_bits = 2 * (b - half)
                expected.append(_reference_witnesses(
                    public, received, peer_bits, low_bits + 1,
                    coins[lane.other.name]))
            assert [e.value for e in
                    channel.transcript.with_label(f"{lane.label}/witnesses")] \
                == expected
