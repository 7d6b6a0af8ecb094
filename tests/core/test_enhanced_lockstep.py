"""Lockstep core tests for the Section 5 protocol.

A point's core bit depends only on the point, so a pass computes every
own point's bit before the expansion: one round-trip shares every tested
point's distances, each selection step runs the next comparison of
every unfinished selection, and one more round-trip runs all the final
core tests.  The labels must equal the plaintext model, each tested
point must disclose exactly one core bit -- a noise seed the traversal
reaches again is not tested again -- and the rounds must equal the
closed form: 2 for the key exchange, then per pass with tested points
2 for the sharing plus, on a backend that sends comparison messages,
2 per lockstep step (``S_p`` selection steps and the final tests); the
second pass starts with the party that sent the round before it, so
its first round merges with that one.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clustering.neighborhoods import BruteForceIndex
from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.enhanced import run_enhanced_horizontal_dbscan
from repro.core.leakage import Disclosure
from repro.data.partitioning import HorizontalPartition
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession

side_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=0, max_size=6)

#: Alice's point 0 is noise on its own test, then a seed of her core
#: point 1: the traversal tests it twice, the protocol once.
RETESTED_NOISE_SEED = (((0, 0), (10, 0)), ((20, 0), (100, 100)))


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


def expected_rounds(pass_rounds: list[int]) -> int:
    """Key exchange (alice, then bob), then alice's and bob's passes.

    Every pass ends with the peer's message, so bob's pass -- which bob
    opens -- always follows a round bob sent.
    """
    alice_pass, bob_pass = pass_rounds
    return 2 + alice_pass + bob_pass - (1 if bob_pass else 0)


def _run(alice, bob, config):
    """Run the protocol on a session whose lockstep steps are counted:
    ``steps[pass label]`` is the number of selection batches."""
    channel = Channel()
    session = SmcSession(*make_party_pair(channel, config.alice_seed,
                                          config.bob_seed), config.smc)
    backend = session.comparison_backend
    leq_batch = backend.leq_batch
    steps = {"alice": 0, "bob": 0}

    def counting(*args, label, **kwargs):
        for name in steps:
            if label.startswith(f"enhanced/{name}_pass/kselect/"):
                steps[name] += 1
        return leq_batch(*args, label=label, **kwargs)

    backend.leq_batch = counting
    result = run_enhanced_horizontal_dbscan(
        HorizontalPartition(tuple(alice), tuple(bob)), config,
        session=session)
    return result, steps


def _check(alice, bob, config) -> dict[str, int]:
    result, steps = _run(alice, bob, config)
    sides = {"alice": (alice, bob), "bob": (bob, alice)}
    labels = {"alice": result.alice_labels, "bob": result.bob_labels}
    pass_rounds = []
    for name, (own, peer) in sides.items():
        model = union_density_dbscan(list(own), list(peer),
                                     config.eps_squared, config.min_pts)
        assert labels[name] == model.labels.as_tuple(), name
        ranks = _tested_ranks(own, peer, config)
        assert result.ledger.count(Disclosure.CORE_BIT, name) == len(ranks)
        if config.selection == "scan":
            assert steps[name] == _scan_steps(ranks, len(peer))
        if not ranks:
            pass_rounds.append(0)
        elif config.smc.comparison == "oracle":
            pass_rounds.append(2)
        else:
            pass_rounds.append(2 + 2 * (steps[name] + 1))
    for hidden in (Disclosure.NEIGHBOR_COUNT, Disclosure.NEIGHBOR_BIT,
                   Disclosure.DOT_PRODUCT):
        assert result.ledger.count(hidden) == 0
    assert result.stats["rounds"] == expected_rounds(pass_rounds)
    return steps


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
        point 0 again; the protocol runs two core tests, in one pass of
        2 + 2 * (S + 1) rounds."""
        config = _config("bitwise", 3, "scan")
        alice, bob = RETESTED_NOISE_SEED
        assert _needed(alice, config.eps_squared, 3) == [1, 1]
        steps = _check(alice, bob, config)
        # Two selections of rank 1 over bob's 2 points: 1 comparison.
        assert steps["alice"] == 1
