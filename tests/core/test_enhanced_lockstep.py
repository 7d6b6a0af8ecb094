"""Overlapped lockstep core tests for the Section 5 protocol.

A point's core bit depends only on the point, so a pass computes every
own point's bit before the expansion, and the two passes run their
interactive tests together, one lane each: one step shares both passes'
distances, each later step runs every comparison each unfinished
selection of either pass can ask at once, and a pass's final core tests
are its step after its last selection step.  The labels must equal the
plaintext model, each tested point must disclose exactly one core bit
-- a noise seed the traversal reaches again is not tested again -- and
the rounds must equal the closed form.

Pass ``p`` has ``P_p`` steps: none without tested points; otherwise the
sharing, its ``S_p`` selection steps and its final tests on a backend
that sends comparison messages (a scan steps once per comparison, a
quickselect once per partition level), the sharing alone on the oracle.
Alice's lane goes first in every step, so a step of both lanes sends
``alice | bob | alice``, a step of alice's lane alone ``alice | bob``
and one of bob's alone ``bob | alice``; the key exchange (alice, then
bob) takes 2 rounds, and a step's first flight merges with the round
before it when the same party sent that one.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clustering.neighborhoods import BruteForceIndex
from repro.clustering.union_density import union_density_dbscan
from repro.core import enhanced
from repro.core.config import ProtocolConfig
from repro.core.enhanced import run_enhanced_horizontal_dbscan
from repro.core.leakage import Disclosure, LeakageEvent
from repro.data.partitioning import HorizontalPartition
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.comparison import OracleComparison
from repro.smc.kth_smallest import run_lockstep
from repro.smc.session import SmcConfig, SmcSession

side_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=0, max_size=6)

#: Alice's point 0 is noise on its own test, then a seed of her core
#: point 1: the traversal tests it twice, the protocol once.
RETESTED_NOISE_SEED = (((0, 0), (10, 0)), ((20, 0), (100, 100)))

#: Bitwise examples: (alice, bob, min_pts) and the phase counts
#: (P_A, P_B) of their scan runs.
OVERLAP_CASES = {
    "equal_passes": (*RETESTED_NOISE_SEED, 3, (3, 3)),
    "alice_longer": (((0, 0), (5, 0), (20, 20)),
                     ((0, 5), (5, 5), (25, 20), (90, 0)), 4, (8, 5)),
    "bob_longer": (((0, 0), (5, 0), (20, 20), (40, 0)),
                   ((0, 5), (50, 50)), 3, (3, 7)),
    "alice_only": (((3, 3), (60, 60)), ((0, 0), (5, 0), (0, 5)), 3,
                   (5, 0)),
    "bob_only": (((0, 0), (5, 0), (0, 5)), ((3, 3), (60, 60)), 3, (0, 5)),
}

#: ``{case: {label: [messages, bytes]}}`` of the OVERLAP_CASES' scan
#: runs, recorded when the second pass still started after the first
#: had ended: overlapping the passes changes only the order.  The
#: ``share/masked_products`` entries were re-derived when the replies
#: were packed: each message now carries one 32-byte ciphertext where
#: it carried one per peer point (at most 4, one chunk at these keys).
#: The ``share/encrypted_alpha`` entries were re-derived when the
#: sharing went to the cross terms alone: each message now carries
#: d = 2 ciphertexts of 32 bytes where it carried d + 2 = 4.
SEQUENTIAL_COUNTS = json.loads(
    (Path(__file__).parent / "enhanced_label_counts.json").read_text())


def _config(backend: str, min_pts: int, selection: str) -> ProtocolConfig:
    # key_seed 130 derives the keys tests/core/test_enhanced.py already
    # uses: the process-wide key cache holds 64 keypairs per kind, and
    # tests/crypto/test_paillier.py expects its own to survive until it
    # runs.
    return ProtocolConfig(
        eps=1.0, scale=10, min_pts=min_pts, selection=selection,
        smc=SmcConfig(comparison=backend, key_seed=130, mask_sigma=8,
                      paillier_bits=128),
        alice_seed=3, bob_seed=4)


def _needed(own, eps_squared, min_pts) -> list[int]:
    """``k = MinPts - |own neighbours|`` per own point."""
    index = BruteForceIndex(list(own))
    return [min_pts - len(index.region_query(point, eps_squared))
            for point in own]


def _tested_ranks(own, peer, config) -> list[int]:
    """The ranks of the points that need the peer: 1 <= k <= n_peer."""
    return [k for k in _needed(own, config.eps_squared, config.min_pts)
            if 0 < k <= len(peer)]


def _scan_steps(ranks, n_peer) -> int:
    """The longest scan selection: ``k(2n - k - 1)/2`` comparisons."""
    return max((k * (2 * n_peer - k - 1) // 2 for k in ranks), default=0)


def expected_rounds(alice_steps: int, bob_steps: int) -> int:
    """The closed form over the passes' step counts ``P_A``, ``P_B``.

    After the exchange (alice, then bob): while both lanes run, the
    first step takes 3 rounds and every later one 2, alice's next
    requests riding her answers; a step of one lane takes 2, or 1 where
    its opener sent the round before.  So ``2 + 2 max(P_A, P_B) +
    [P_B >= P_A]`` with both passes, ``2 + 2 P_A`` with alice's alone
    and ``1 + 2 P_B`` with bob's alone.
    """
    if alice_steps and bob_steps:
        return (2 + 2 * max(alice_steps, bob_steps)
                + (bob_steps >= alice_steps))
    if alice_steps:
        return 2 + 2 * alice_steps
    return 1 + 2 * bob_steps if bob_steps else 2


def _run(alice, bob, config):
    """Run the protocol on a session whose lockstep is recorded:
    ``batches[pass]`` holds each of the pass's selection steps'
    comparison count, ``lanes`` every lanes call's ``(label, a_values,
    b_values, bits)`` per lane, and ``alone`` the arguments of each
    pass's comparison lane, to replay it by itself."""
    channel = Channel()
    session = SmcSession(*make_party_pair(channel, config.alice_seed,
                                          config.bob_seed), config.smc)
    backend = session.comparison_backend
    leq_lanes = backend.leq_lanes
    batches = {"alice": [], "bob": []}
    lanes = []
    alone = []

    async def counting(requests):
        outcomes = await leq_lanes(requests)
        lanes.append([])
        for lane, lane_outcomes in zip(requests, outcomes):
            for name in batches:
                if lane.label.startswith(f"enhanced/{name}_pass/kselect/"):
                    batches[name].append(len(lane.a_values))
            lanes[-1].append((lane.label, list(lane.a_values),
                              list(lane.b_values),
                              [outcome.result for outcome in lane_outcomes]))
        return outcomes

    core_tests = enhanced._core_tests

    def captured(*args):
        # The pivot stream is copied before the lockstep draws from it.
        alone.append((*args[:-1], copy.deepcopy(args[-1])))
        return core_tests(*args)

    backend.leq_lanes = counting
    enhanced._core_tests = captured
    try:
        result = run_enhanced_horizontal_dbscan(
            HorizontalPartition(tuple(alice), tuple(bob)), config,
            session=session)
    finally:
        enhanced._core_tests = core_tests
    return result, batches, lanes, alone, channel.stats


def _ledger(own, peer, config, name) -> list[LeakageEvent]:
    """One ORDER_BIT and one CORE_BIT per tested point, in point order."""
    label = f"enhanced/{name}_pass"
    events = []
    for k in _tested_ranks(own, peer, config):
        events.append(LeakageEvent(
            label, name, Disclosure.ORDER_BIT,
            f"selection of rank {k} among {len(peer)} shared distances"))
        events.append(LeakageEvent(label, name, Disclosure.CORE_BIT,
                                   f"k={k}"))
    return events


def _check(alice, bob, config) -> dict[str, int]:
    result, batches, _, _, stats = _run(alice, bob, config)
    steps = {name: len(sizes) for name, sizes in batches.items()}
    sides = {"alice": (alice, bob), "bob": (bob, alice)}
    labels = {"alice": result.alice_labels, "bob": result.bob_labels}
    pass_steps = []
    for name, (own, peer) in sides.items():
        model = union_density_dbscan(list(own), list(peer),
                                     config.eps_squared, config.min_pts)
        assert labels[name] == model.labels.as_tuple(), name
        ranks = _tested_ranks(own, peer, config)
        assert result.ledger.count(Disclosure.CORE_BIT, name) == len(ranks)
        if config.selection == "scan":
            assert steps[name] == _scan_steps(ranks, len(peer))
        elif ranks and len(peer) > 1:
            # Quickselect asks a whole partition per step: the first step
            # holds every tested point's n_peer - 1 comparisons against
            # its first pivot, so once n_peer > 2 a pass takes fewer
            # steps than comparisons.
            assert batches[name][0] == len(ranks) * (len(peer) - 1)
            if len(peer) > 2:
                assert steps[name] < sum(batches[name])
        if not ranks:
            pass_steps.append(0)
        elif config.smc.comparison == "oracle":
            pass_steps.append(1)
        else:
            pass_steps.append(steps[name] + 2)
    # Alice's pass, then bob's, each in point order.
    assert result.ledger.events == (_ledger(alice, bob, config, "alice")
                                    + _ledger(bob, alice, config, "bob"))
    for hidden in (Disclosure.NEIGHBOR_COUNT, Disclosure.NEIGHBOR_BIT,
                   Disclosure.DOT_PRODUCT):
        assert result.ledger.count(hidden) == 0
    assert stats.rounds == expected_rounds(*pass_steps)
    return steps


def test_the_closed_form_by_hand():
    """enhanced2's 8 + 8 steps take 19 rounds; the other shapes by
    their flights."""
    assert expected_rounds(8, 8) == 2 + 3 + 2 * 7
    assert expected_rounds(8, 5) == 2 + 3 + 2 * 4 + 1 + 2 * 2
    assert expected_rounds(3, 7) == 2 + 3 + 2 * 2 + 2 * 4
    assert expected_rounds(5, 0) == 2 + 2 * 5
    assert expected_rounds(0, 5) == 2 + 1 + 2 * 4
    assert expected_rounds(1, 1) == 5
    assert expected_rounds(0, 0) == 2


class TestLockstepOracle:
    @settings(max_examples=60, deadline=None)
    @given(side_strategy, side_strategy,
           st.integers(min_value=1, max_value=6),
           st.sampled_from(["scan", "quickselect"]))
    @example((), ((0, 0),), 1, "scan")                       # empty side
    @example(((0, 0), (1, 0), (0, 1)), ((30, 30),), 2, "scan")  # k <= 0
    @example(((0, 0),), ((0, 5),), 5, "quickselect")         # k > n_peer
    @example(*RETESTED_NOISE_SEED, 3, "scan")
    @example(*RETESTED_NOISE_SEED, 3, "quickselect")
    def test_labels_disclosures_and_rounds(self, alice, bob, min_pts,
                                           selection):
        _check(alice, bob, _config("oracle", min_pts, selection))


class TestLockstepBitwise:
    @pytest.mark.parametrize("alice,bob,min_pts", [
        RETESTED_NOISE_SEED + (3,),
        (((0, 0), (5, 0), (20, 20)), ((0, 5), (5, 5), (25, 20), (90, 0)),
         4),
        ((), ((0, 0), (5, 5)), 2),
        (((0, 0),), ((0, 5),), 5),
    ])
    @pytest.mark.parametrize("selection", ["scan", "quickselect"])
    def test_labels_disclosures_and_rounds(self, alice, bob, min_pts,
                                           selection):
        _check(alice, bob, _config("bitwise", min_pts, selection))

    def test_a_retested_noise_seed_is_tested_once(self):
        """Alice's traversal tests her point 0, her point 1, then her
        point 0 again; the protocol runs two core tests, in a pass of
        S + 2 = 3 steps."""
        config = _config("bitwise", 3, "scan")
        alice, bob = RETESTED_NOISE_SEED
        assert _needed(alice, config.eps_squared, 3) == [1, 1]
        steps = _check(alice, bob, config)
        # Two selections of rank 1 over bob's 2 points: 1 comparison.
        assert steps["alice"] == 1


class TestOverlappedPasses:
    """The passes' lanes share every step: only the message order
    changes."""

    @pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
    def test_rounds_follow_the_closed_form(self, case):
        alice, bob, min_pts, (alice_steps, bob_steps) = OVERLAP_CASES[case]
        config = _config("bitwise", min_pts, "scan")
        steps = _check(alice, bob, config)
        assert [steps["alice"] + 2 if alice_steps else 0,
                steps["bob"] + 2 if bob_steps else 0] \
            == [alice_steps, bob_steps]

    @pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
    def test_messages_and_bytes_by_label_are_the_sequential_ones(
            self, case):
        alice, bob, min_pts, _ = OVERLAP_CASES[case]
        *_, stats = _run(alice, bob, _config("bitwise", min_pts, "scan"))
        assert {label: [stats.messages_by_label[label],
                        stats.bytes_by_label[label]]
                for label in stats.messages_by_label} \
            == SEQUENTIAL_COUNTS[case]

    @pytest.mark.parametrize("selection", ["scan", "quickselect"])
    @pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
    def test_each_lane_asks_what_its_pass_asks_alone(self, case,
                                                     selection):
        """Replayed by itself on the oracle, from the same shares, ranks
        and pivot stream, each pass's lane asks the same comparisons
        step by step -- the same labels and values -- and gets the same
        bits as in the overlapped run."""
        alice, bob, min_pts, phases = OVERLAP_CASES[case]
        _, _, lanes, alone, _ = _run(alice, bob,
                                     _config("bitwise", min_pts, selection))
        assert len(alone) == sum(1 for steps in phases if steps)
        overlapped = {}
        for step in lanes:
            assert len({label.split("/")[1] for label, *_ in step}) \
                == len(step)
            for label, *asked in step:
                overlapped.setdefault(label.split("/")[1], []).append(
                    (label, *asked))
        for args in alone:
            oracle = OracleComparison()
            leq_lanes = oracle.leq_lanes
            replayed = []

            async def recording(requests):
                [lane] = requests
                [outcomes] = await leq_lanes(requests)
                replayed.append((lane.label, list(lane.a_values),
                                 list(lane.b_values),
                                 [outcome.result for outcome in outcomes]))
                return [outcomes]

            oracle.leq_lanes = recording
            drive(run_lockstep(oracle, [enhanced._core_tests(*args)]))
            driving = args[0]
            assert replayed == overlapped[driving.label.split("/")[1]]

    @pytest.mark.parametrize("selection", ["scan", "quickselect"])
    @pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
    def test_each_step_sends_every_request_then_every_answer(self, case,
                                                             selection):
        """Step ``t`` of every pass -- its sharing, selection step
        ``t - 1`` or final tests -- runs in one lanes call: alice's
        requests, bob's, then the answers to alice's lane, then those to
        bob's, each lane's messages in point order."""
        alice, bob, min_pts, _ = OVERLAP_CASES[case]
        config = _config("bitwise", min_pts, selection)
        channel = Channel()
        session = SmcSession(*make_party_pair(channel, config.alice_seed,
                                              config.bob_seed), config.smc)
        run_enhanced_horizontal_dbscan(
            HorizontalPartition(tuple(alice), tuple(bob)), config,
            session=session)
        labels = [entry.label for entry in channel.transcript.entries
                  if not entry.label.startswith("keys/")]
        selection_steps = {
            name: len({label.split("/")[3] for label in labels
                       if label.startswith(f"enhanced/{name}_pass/kselect/")})
            for name in ("alice", "bob")}

        def slot(label):
            _, pass_label, phase, *rest = label.split("/")
            name = pass_label.removesuffix("_pass")
            if phase == "share":
                step = 0
            elif phase == "core_test":
                step = selection_steps[name] + 1
            else:
                step = int(rest[0].removeprefix("step")) + 1
            answer = rest[-1] in ("masked_products", "witnesses")
            return step, answer, name == "bob"

        assert labels == sorted(labels, key=slot)
