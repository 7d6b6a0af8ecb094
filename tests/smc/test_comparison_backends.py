"""Cross-backend tests of the unified ``a <= b`` interface.

Every backend must implement the identical functionality; these tests
are parametrized over all three so any semantic drift between YMPP,
DGK-style, and the oracle fails loudly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.comparison import (
    ComparisonError,
    ComparisonLane,
    make_comparison_backend,
)
from repro.smc.session import SmcConfig, SmcSession

BACKENDS = ("oracle", "bitwise", "ympp")


def _session(backend: str, seed: int = 0) -> SmcSession:
    alice, bob = make_party_pair(Channel(), seed, seed + 1)
    return SmcSession(alice, bob,
                      SmcConfig(comparison=backend, key_seed=50 + seed % 7))


class TestAllBackendsAgree:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("a,b", [
        (0, 0), (0, 1), (1, 0), (5, 5), (-10, 10), (10, -10),
        (-7, -7), (-8, -7), (-7, -8), (100, 100), (99, 100),
    ])
    def test_boundary_pairs(self, backend, a, b):
        session = _session(backend, seed=abs(a * 13 + b))
        out = session.compare_leq(session.alice, a, session.bob, b,
                                  lo=-10, hi=100, reveal_to="both")
        assert out.result == (a <= b)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("reveal", ["a", "b", "both"])
    def test_reveal_targets(self, backend, reveal):
        session = _session(backend, seed=3)
        out = session.compare_leq(session.alice, 4, session.bob, 9,
                                  lo=0, hi=16, reveal_to=reveal)
        assert out.result is True
        if reveal == "both":
            assert set(out.revealed_to) == {"alice", "bob"}
        else:
            expected = "alice" if reveal == "a" else "bob"
            assert out.revealed_to == (expected,)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=-50, max_value=50),
           st.integers(min_value=-50, max_value=50))
    def test_bitwise_random(self, a, b):
        session = _session("bitwise", seed=1)
        out = session.compare_leq(session.alice, a, session.bob, b,
                                  lo=-50, hi=50, reveal_to="a")
        assert out.result == (a <= b)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=-20, max_value=20),
           st.integers(min_value=-20, max_value=20))
    def test_ympp_random(self, a, b):
        session = _session("ympp", seed=2)
        out = session.compare_leq(session.alice, a, session.bob, b,
                                  lo=-20, hi=20, reveal_to="b")
        assert out.result == (a <= b)


class TestBatchApi:
    """``leq_batch``: same semantics as one ``leq`` per pair."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("reveal", ["a", "b", "both"])
    def test_matches_per_item_loop(self, backend, reveal):
        a_values = [0, 3, -7, 12, 12, -10]
        b_values = [0, 3, 12, -7, 12, 12]
        batch_session = _session(backend, seed=11)
        outcomes = batch_session.compare_leq_batch(
            batch_session.alice, a_values, batch_session.bob, b_values,
            lo=-10, hi=12, reveal_to=reveal)
        loop_session = _session(backend, seed=11)
        loop = [loop_session.compare_leq(
            loop_session.alice, a, loop_session.bob, b,
            lo=-10, hi=12, reveal_to=reveal)
            for a, b in zip(a_values, b_values)]
        assert [o.result for o in outcomes] == [o.result for o in loop] \
            == [a <= b for a, b in zip(a_values, b_values)]
        assert [o.revealed_to for o in outcomes] == \
            [o.revealed_to for o in loop]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("reveal", ["a", "b", "both"])
    def test_amortized_constant_key_side(self, backend, reveal):
        """The region-query shape: every item compared to one declared-
        constant value on the learning party's side."""
        session = _session(backend, seed=12)
        values = [-5, 0, 4, 5, 6, 20]
        if reveal in ("a", "both"):
            a_values, b_values = [5] * len(values), values
            expected = [5 <= v for v in values]
        else:
            a_values, b_values = values, [5] * len(values)
            expected = [v <= 5 for v in values]
        outcomes = session.compare_leq_batch(
            session.alice, a_values, session.bob, b_values,
            lo=-5, hi=20, reveal_to=reveal, amortize=True)
        assert [o.result for o in outcomes] == expected

    @pytest.mark.parametrize("reveal,messages", [
        ("a", 2), ("b", 2), ("both", 3)])
    def test_bitwise_undeclared_batch_is_one_round_trip(self, reveal,
                                                        messages):
        """Every pair keeps its own messages, sent phase by phase: the
        batch's rounds do not grow with its size, its bytes are a
        loop's."""
        a_values = [0, 3, -7, 12, 12, -10]
        b_values = [0, 3, 12, -7, 12, 12]
        batch_session = _session("bitwise", seed=13)
        batch_stats = batch_session.alice.endpoint.stats
        transcript = batch_session.alice.endpoint.transcript
        before = len(transcript.entries)
        batch_session.compare_leq_batch(
            batch_session.alice, a_values, batch_session.bob, b_values,
            lo=-10, hi=12, reveal_to=reveal)
        loop_session = _session("bitwise", seed=13)
        for a, b in zip(a_values, b_values):
            loop_session.compare_leq(loop_session.alice, a,
                                     loop_session.bob, b, lo=-10, hi=12,
                                     reveal_to=reveal)
        loop_stats = loop_session.alice.endpoint.stats
        senders = [entry.sender for entry in transcript.entries[before:]]
        assert 1 + sum(first != second for first, second
                       in zip(senders, senders[1:])) == messages
        assert batch_stats.total_messages == loop_stats.total_messages
        assert batch_stats.total_bytes == loop_stats.total_bytes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invocations_count_pairs_not_round_trips(self, backend):
        session = _session(backend, seed=13)
        session.compare_leq_batch(session.alice, [1, 2, 3], session.bob,
                                  [2, 2, 2], lo=0, hi=4, reveal_to="b")
        assert session.comparison_backend.invocations == 3

    def test_empty_batch(self):
        session = _session("bitwise", seed=14)
        assert session.compare_leq_batch(session.alice, [], session.bob, [],
                                         lo=0, hi=4) == []
        assert session.comparison_backend.invocations == 0

    def test_per_item_interval_checks(self):
        session = _session("oracle")
        with pytest.raises(ComparisonError, match="a=11 outside"):
            session.compare_leq_batch(session.alice, [1, 11], session.bob,
                                      [2, 2], lo=0, hi=10)
        with pytest.raises(ComparisonError, match="b=-1 outside"):
            session.compare_leq_batch(session.alice, [1, 2], session.bob,
                                      [2, -1], lo=0, hi=10)

    def test_length_mismatch(self):
        session = _session("oracle")
        with pytest.raises(ComparisonError, match="a-values"):
            session.compare_leq_batch(session.alice, [1, 2], session.bob,
                                      [2], lo=0, hi=10)

    def test_bad_reveal_target(self):
        session = _session("oracle")
        with pytest.raises(ComparisonError, match="reveal_to"):
            session.compare_leq_batch(session.alice, [1], session.bob, [2],
                                      lo=0, hi=3, reveal_to="everyone")

    def test_amortize_declaration_controls_bit_encryption_sharing(self):
        """The amortization is declaration-driven: amortize=True shares
        one x_bits message for the whole batch; without the declaration
        every pair re-encrypts -- even when the values *happen* to be
        equal, because inferring amortization from private-value
        equality would leak collisions through the message pattern."""
        def x_bits_messages(b_values, amortize):
            channel = Channel()
            alice, bob = make_party_pair(channel, 1, 2)
            session = SmcSession(alice, bob, SmcConfig(
                comparison="bitwise", key_seed=53))
            session.compare_leq_batch(
                alice, [1] * len(b_values), bob, b_values,
                lo=0, hi=10, reveal_to="b", amortize=amortize, label="t")
            return sum(1 for e in channel.transcript.entries
                       if e.label.endswith("/x_bits"))
        assert x_bits_messages([5, 5, 5, 5], amortize=True) == 1
        # Undeclared: per-pair messages, independent of value equality.
        assert x_bits_messages([5, 5, 5, 5], amortize=False) == 4
        assert x_bits_messages([5, 6, 7], amortize=False) == 3

    def test_amortize_with_varying_key_side_rejected(self):
        """A false constant-side declaration fails loudly before any
        message is sent, for every backend."""
        for backend in BACKENDS:
            channel = Channel()
            alice, bob = make_party_pair(channel, 1, 2)
            session = SmcSession(alice, bob, SmcConfig(
                comparison=backend, key_seed=54))
            baseline = len(channel.transcript.entries)
            with pytest.raises(ComparisonError, match="amortize"):
                session.compare_leq_batch(alice, [1, 2], bob, [5, 6],
                                          lo=0, hi=10, reveal_to="b",
                                          amortize=True)
            assert len(channel.transcript.entries) == baseline
        # The a side is the key side under reveal "a"; varying b is fine.
        session = _session("bitwise", seed=16)
        outcomes = session.compare_leq_batch(
            session.alice, [4, 4], session.bob, [3, 5],
            lo=0, hi=10, reveal_to="a", amortize=True)
        assert [o.result for o in outcomes] == [False, True]

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1,
                    max_size=8),
           st.integers(min_value=-30, max_value=30))
    def test_bitwise_random_batches_against_threshold(self, a_values, b):
        session = _session("bitwise", seed=15)
        outcomes = session.compare_leq_batch(
            session.alice, a_values, session.bob, [b] * len(a_values),
            lo=-30, hi=30, reveal_to="b", amortize=True)
        assert [o.result for o in outcomes] == [a <= b for a in a_values]


class TestGapDeclaration:
    """``gap``: a lane's public bound on every ``|a_i - b_i|``, here on
    one-lane :meth:`leq_lanes` calls."""

    PAIRS = [(0, 0), (3, 7), (7, 3), (-10, -6), (50, 46), (100, 100),
             (96, 100), (-6, -10)]

    @staticmethod
    def _one_lane(session, a_values, b_values, *, lo, hi, gap, label="cmp"):
        [outcomes] = session.comparison_backend.leq_lanes([ComparisonLane(
            session.alice, a_values, session.bob, b_values, lo=lo, hi=hi,
            gap=gap, label=label)])
        return outcomes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_and_invocations(self, backend):
        session = _session(backend, seed=17)
        a_values, b_values = map(list, zip(*self.PAIRS))
        outcomes = self._one_lane(session, a_values, b_values, lo=-10,
                                  hi=100, gap=4)
        assert [o.result for o in outcomes] \
            == [a <= b for a, b in self.PAIRS]
        assert all(o.revealed_to == ("alice",) for o in outcomes)
        assert session.comparison_backend.invocations == len(self.PAIRS)

    def test_bitwise_pays_for_the_gap_not_the_interval(self):
        """Same messages and labels as the undeclared batch; each pair's
        bit ciphertexts and witnesses shrink from the interval's width
        (2^20 + 1 values: 21 positions) to ``bits(gap) + 1``."""
        def lists(gap):
            session = _session("bitwise", seed=18)
            transcript = session.alice.endpoint.transcript
            before = len(transcript.entries)
            a_values, b_values = [0, 2**20, 77], [5, 2**20 - 5, 80]
            if gap is None:
                session.compare_leq_batch(
                    session.alice, a_values, session.bob, b_values,
                    lo=0, hi=2**20, reveal_to="a", label="t")
            else:
                self._one_lane(session, a_values, b_values, lo=0,
                               hi=2**20, gap=gap, label="t")
            return [(e.label, len(e.value))
                    for e in transcript.entries[before:]]
        undeclared = lists(None)
        declared = lists(5)
        assert [label for label, _ in declared] \
            == [label for label, _ in undeclared]
        assert {size for _, size in undeclared} == {21}
        assert [size for _, size in declared] == [3] * 3 + [4] * 3

    def test_oracle_refuses_a_broken_promise(self):
        session = _session("oracle")
        self._one_lane(session, [0, 10], [4, 6], lo=0, hi=10, gap=4)
        with pytest.raises(ComparisonError, match="gap 4"):
            self._one_lane(session, [0, 10], [4, 5], lo=0, hi=10, gap=4)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("declaration,match", [
        (dict(gap=-1), "non-negative int"),
        (dict(gap=True), "non-negative int"),
        (dict(gap=4.0), "non-negative int"),
        (dict(lo=10, hi=0), "empty interval"),
        (dict(b_values=[4]), "2 a-values but 1 b-values"),
        (dict(a_values=[3, 11]), "a=11 outside"),
    ])
    def test_refused_declarations_send_nothing(self, backend, declaration,
                                               match):
        session = _session(backend, seed=19)
        transcript = session.alice.endpoint.transcript
        before = len(transcript.entries)
        lane = {"a_values": [3, 3], "b_values": [4, 5], "lo": 0, "hi": 10,
                "gap": 4, **declaration}
        with pytest.raises(ComparisonError, match=match):
            self._one_lane(session, **lane)
        assert len(transcript.entries) == before
        assert session.comparison_backend.invocations == 0

    def test_every_item_is_still_interval_checked(self):
        session = _session("bitwise", seed=20)
        with pytest.raises(ComparisonError, match="b=11 outside"):
            self._one_lane(session, [9, 10], [9, 11], lo=0, hi=10, gap=4)


class TestLanes:
    """``leq_lanes``: one gap-declared batch per lane, each revealed to
    its own ``a_party``."""

    @staticmethod
    def _lanes(session):
        return [ComparisonLane(session.alice, [0, 7, -6], session.bob,
                               [3, 3, -10], lo=-10, hi=100, gap=4,
                               label="x"),
                ComparisonLane(session.bob, [50, 96], session.alice,
                               [46, 100], lo=0, hi=100, gap=4, label="y")]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_reveal_targets_and_invocations(self, backend):
        session = _session(backend, seed=21)
        outcomes = session.comparison_backend.leq_lanes(
            self._lanes(session))
        assert [[o.result for o in lane] for lane in outcomes] \
            == [[True, False, False], [False, True]]
        assert [{o.revealed_to for o in lane} for lane in outcomes] \
            == [{("alice",)}, {("bob",)}]
        assert session.comparison_backend.invocations == 5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_refused_lane_sends_nothing(self, backend):
        session = _session(backend, seed=23)
        transcript = session.alice.endpoint.transcript
        before = len(transcript.entries)
        lanes = self._lanes(session)
        lanes[1] = ComparisonLane(session.bob, [50], session.alice, [101],
                                  lo=0, hi=100, gap=4, label="y")
        with pytest.raises(ComparisonError, match="b=101 outside"):
            session.comparison_backend.leq_lanes(lanes)
        assert len(transcript.entries) == before
        assert session.comparison_backend.invocations == 0

    def test_oracle_refuses_a_broken_promise_in_any_lane(self):
        session = _session("oracle")
        lanes = self._lanes(session)
        lanes[1] = ComparisonLane(session.bob, [50], session.alice, [40],
                                  lo=0, hi=100, gap=4, label="y")
        with pytest.raises(ComparisonError, match="gap 4"):
            session.comparison_backend.leq_lanes(lanes)


class TestWidthBoundary:
    """The backend width choice ``bits = max(1, (domain + 1).bit_length())``
    must cover every shifted input *and* the ``b + 1`` strict-to-loose
    carry -- including intervals where ``b + 1`` needs one bit more than
    ``domain`` itself (``domain = 2^k - 1``)."""

    # Interval sizes around bit-width edges: domain = hi - lo.
    #   0 -> degenerate single-value interval (bits floor of 1)
    #   1 -> b + 1 can reach 2, needing the extra bit
    #   2^k - 1 -> b + 1 carries into bit k + 1
    #   2^k -> b + 1 fits the existing width
    DOMAINS = (0, 1, 3, 4, 7, 8, 255, 256)

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("reveal", ["a", "b", "both"])
    def test_corner_pairs_per_point(self, domain, reveal):
        lo = -3  # asymmetric shift so lo != 0 is exercised too
        hi = lo + domain
        session = _session("bitwise", seed=domain % 5)
        for a in (lo, hi):
            for b in (lo, hi):
                out = session.compare_leq(session.alice, a, session.bob, b,
                                          lo=lo, hi=hi, reveal_to=reveal)
                assert out.result == (a <= b), (domain, a, b)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_corner_pairs_batch(self, domain):
        lo = -3
        hi = lo + domain
        pairs = [(a, b) for a in (lo, hi) for b in (lo, hi)]
        session = _session("bitwise", seed=domain % 5)
        outcomes = session.compare_leq_batch(
            session.alice, [a for a, _ in pairs],
            session.bob, [b for _, b in pairs],
            lo=lo, hi=hi, reveal_to="b")
        assert [o.result for o in outcomes] == [a <= b for a, b in pairs]

    def test_b_plus_one_carry_needs_extra_bit(self):
        """domain = 3: shifted b = 3 = 0b11, b + 1 = 0b100 -- the DGK
        key holder's value only fits because the width covers
        domain + 1.  a = b = hi is the exact carry case."""
        from repro.smc.comparison import BitwiseComparison
        assert max(1, (3 + 1).bit_length()) == 3  # not 2
        session = _session("bitwise", seed=1)
        assert isinstance(session.comparison_backend, BitwiseComparison)
        out = session.compare_leq(session.alice, 3, session.bob, 3,
                                  lo=0, hi=3, reveal_to="b")
        assert out.result is True
        outcomes = session.compare_leq_batch(
            session.alice, [3, 3], session.bob, [3, 2],
            lo=0, hi=3, reveal_to="b")
        assert [o.result for o in outcomes] == [True, False]


class TestKeyOwnership:
    """Key material must follow party identity, not argument roles.

    The seed-era backends bound keys to the ``a``/``b`` slots, so
    passing ``a_party=bob`` ran the protocol under alice's keypair.
    """

    def test_bitwise_key_holder_uses_own_keypair(self, monkeypatch):
        import repro.smc.comparison as comparison
        captured = {}
        real = comparison.dgk_greater_than

        def spy(key_holder, x, other, y, bits, keypair, **kwargs):
            captured[key_holder.name] = keypair
            return real(key_holder, x, other, y, bits, keypair, **kwargs)

        monkeypatch.setattr(comparison, "dgk_greater_than", spy)
        session = _session("bitwise", seed=6)
        # a_party=bob, reveal "a": bob is the DGK key holder and must
        # run under *bob's* keypair.
        out = session.compare_leq(session.bob, 3, session.alice, 5,
                                  lo=0, hi=10, reveal_to="a")
        assert out.result is True
        assert captured["bob"] is session._contexts["bob"].dgk
        # Symmetric check: reveal "b" makes alice the key holder.
        captured.clear()
        session.compare_leq(session.bob, 3, session.alice, 5,
                            lo=0, hi=10, reveal_to="b")
        assert captured["alice"] is session._contexts["alice"].dgk

    def test_ympp_i_holder_uses_own_keypair(self, monkeypatch):
        import repro.smc.comparison as comparison
        captured = {}
        real = comparison.ympp_less_than

        def spy(i_party, i, j_party, j, n0, keypair, **kwargs):
            captured[i_party.name] = keypair
            return real(i_party, i, j_party, j, n0, keypair, **kwargs)

        monkeypatch.setattr(comparison, "ympp_less_than", spy)
        session = _session("ympp", seed=7)
        # a_party=bob, reveal "a": bob plays Algorithm 1's j-holder (he
        # learns), alice is the i-holder and must own the RSA keys --
        # the seed-era code would have used bob's here.
        session.compare_leq(session.bob, 2, session.alice, 4,
                            lo=0, hi=8, reveal_to="a")
        assert captured["alice"] is session._contexts["alice"].rsa

    def test_unknown_party_rejected(self):
        from repro.crypto.keycache import cached_paillier_keypair
        from repro.smc.comparison import BitwiseComparison
        backend = BitwiseComparison(
            {"carol": cached_paillier_keypair(256, 60)})
        session = _session("oracle", seed=8)
        with pytest.raises(ComparisonError, match="no Paillier key"):
            backend.leq(session.alice, 1, session.bob, 2, lo=0, hi=4,
                        reveal_to="a")


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ComparisonError, match="unknown"):
            make_comparison_backend("quantum")

    def test_missing_keys(self):
        with pytest.raises(ComparisonError, match="requires"):
            make_comparison_backend("ympp")
        with pytest.raises(ComparisonError, match="requires"):
            make_comparison_backend("bitwise")

    def test_out_of_interval(self):
        session = _session("oracle")
        with pytest.raises(ComparisonError, match="outside"):
            session.compare_leq(session.alice, 11, session.bob, 5,
                                lo=0, hi=10)

    def test_empty_interval(self):
        session = _session("oracle")
        with pytest.raises(ComparisonError, match="empty"):
            session.compare_leq(session.alice, 1, session.bob, 1,
                                lo=5, hi=4)

    def test_bad_reveal_target(self):
        session = _session("oracle")
        with pytest.raises(ComparisonError, match="reveal_to"):
            session.compare_leq(session.alice, 1, session.bob, 2,
                                lo=0, hi=3, reveal_to="everyone")


class TestInvocationCounting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counter_increments(self, backend):
        session = _session(backend, seed=4)
        backend_obj = session.comparison_backend
        assert backend_obj.invocations == 0
        for round_number in range(3):
            session.compare_leq(session.alice, round_number, session.bob, 2,
                                lo=0, hi=4, reveal_to="a")
        assert backend_obj.invocations == 3


class TestCommunication:
    def test_oracle_sends_nothing(self):
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        session = SmcSession(alice, bob,
                             SmcConfig(comparison="oracle", key_seed=51))
        baseline = channel.stats.total_bytes  # key exchange only
        session.compare_leq(alice, 1, bob, 2, lo=0, hi=3)
        assert channel.stats.total_bytes == baseline

    def test_crypto_backends_send_bytes(self):
        for backend in ("bitwise", "ympp"):
            channel = Channel()
            alice, bob = make_party_pair(channel, 1, 2)
            session = SmcSession(alice, bob,
                                 SmcConfig(comparison=backend, key_seed=52))
            baseline = channel.stats.total_bytes
            session.compare_leq(alice, 1, bob, 2, lo=0, hi=3)
            assert channel.stats.total_bytes > baseline
