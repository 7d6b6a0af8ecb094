"""Mirrored-choreography channel: substitution, equivalence, desyncs.

These tests run the *same* choreography as two asyncio tasks -- each
with only its own party's real input, the peer's replaced by a
placeholder, and only its own party's steps executed -- over a pair of
queues, through the daemons' mirror channel, the execution model the
party daemons use, and assert the protocol observables match a single
in-process run with the real inputs on both sides.
"""

import asyncio

import pytest

from repro.net.channel import Channel, ProtocolDesyncError, drive
from repro.net.party import Party, make_party_pair
from repro.net.serialization import FixedWidthList
from repro.net.transcript import transcript_digest
from repro.net.transport import TransportTimeoutError
from repro.obs.metrics import Counter
from repro.runtime.mirror import MirrorChannel, MirrorChannelError
from repro.smc.session import (
    FullKeyProvider,
    SmcConfig,
    SmcSession,
    exchange_public_keys,
)

SMC = SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=871)


class QueueTransport:
    """One endpoint's side of a link whose far end is another task:
    ``deliver`` feeds the peer's queue; ``try_collect`` takes a frame
    that has arrived on ours and ``wait_message`` awaits one, as a
    daemon's session view does."""

    def __init__(self, local_name: str, inbox: asyncio.Queue,
                 outbox: asyncio.Queue, timeout_s: float):
        self.local_name = local_name
        self.inbox, self.outbox = inbox, outbox
        self.timeout_s = timeout_s

    def deliver(self, sender, receiver, label, wire):
        self.outbox.put_nowait((label, wire))

    def try_collect(self, receiver, expected_label):
        try:
            return self.inbox.get_nowait()
        except asyncio.QueueEmpty:
            return None

    async def wait_message(self, want):
        try:
            return await asyncio.wait_for(self.inbox.get(), self.timeout_s)
        except asyncio.TimeoutError:
            raise TransportTimeoutError(
                f"{self.local_name} waited {self.timeout_s}s for "
                f"{want}") from None


def mirror_pair(timeout_s: float = 10.0):
    to_alice, to_bob = asyncio.Queue(), asyncio.Queue()
    return [MirrorChannel(
                "alice", "bob", "alice",
                QueueTransport("alice", to_alice, to_bob, timeout_s)),
            MirrorChannel(
                "alice", "bob", "bob",
                QueueTransport("bob", to_bob, to_alice, timeout_s))]


def run_mirrored(choreography, inputs: dict[str, object],
                 placeholder: object, timeout_s: float = 10.0) -> dict:
    """Run ``choreography(channel, local_inputs)`` in both processes'
    style, as two tasks on one loop: each gets its own value real, the
    peer's replaced."""
    async def both() -> dict:
        left, right = mirror_pair(timeout_s)
        outcomes = {}

        async def side(local, channel):
            view = {name: (value if name == local else placeholder)
                    for name, value in inputs.items()}
            try:
                outcomes[local] = await choreography(channel, view)
            except BaseException:
                channel.close()
                raise

        await asyncio.gather(side("alice", left), side("bob", right))
        return {"outcomes": outcomes,
                "channels": {"alice": left, "bob": right}}

    return asyncio.run(both())


async def comparison_choreography(channel, values):
    """A key exchange and a full DGK comparison, placeholder-tolerant on
    either side."""
    alice, bob = make_party_pair(channel, 41, 42)
    provider = FullKeyProvider(SMC)
    contexts = {"alice": provider.context_for("alice", 0),
                "bob": provider.context_for("bob", 1)}
    await exchange_public_keys(alice, bob, contexts, SMC.paillier_bits)
    session = SmcSession(alice, bob, SMC, preset_contexts=contexts)
    outcome = await session.compare_leq(alice, values["alice"], bob,
                                        values["bob"], lo=0, hi=100,
                                        reveal_to="b", label="t")
    return outcome.result


class TestMirrorEquivalence:
    def test_comparison_matches_in_process_run(self):
        run = run_mirrored(comparison_choreography,
                           {"alice": 3, "bob": 7}, placeholder=0)
        # The revealing party (bob) computes the authentic predicate.
        assert run["outcomes"]["bob"] is True

        reference_channel = Channel()
        reference = drive(comparison_choreography(reference_channel,
                                                  {"alice": 3, "bob": 7}))
        assert reference is True
        # Both mirrored transcripts are byte-identical to the reference:
        # every frame was computed by the party owning the data.
        reference_digest = transcript_digest(reference_channel.transcript)
        for name in ("alice", "bob"):
            channel = run["channels"][name]
            assert transcript_digest(channel.transcript) \
                == reference_digest
            channel.assert_drained()

    def test_stats_match_in_process_accounting(self):
        run = run_mirrored(comparison_choreography,
                           {"alice": 30, "bob": 7}, placeholder=0)
        assert run["outcomes"]["bob"] is False
        reference_channel = Channel()
        drive(comparison_choreography(reference_channel,
                                      {"alice": 30, "bob": 7}))
        reference = reference_channel.stats.snapshot()
        for name in ("alice", "bob"):
            assert run["channels"][name].stats.snapshot() == reference


class TestMirrorMechanics:
    def test_non_hosted_receive_raises(self):
        async def scenario():
            left, right = mirror_pair()
            assert left.left.hosted and not left.right.hosted
            assert right.right.hosted and not right.left.hosted
            # A local send is not echoed: the remote party's receive is
            # a step block missing its hosted guard, and fails loudly.
            await left.left.send("m", [1, 2])
            with pytest.raises(ProtocolDesyncError,
                               match="not hosted.*'m'"):
                left.right.receive("m")
            # In the peer's process the same send is the substitution
            # point and its hosted receive gets the authentic frame.
            await right._send("alice", "bob", "m", None)
            assert right.right.receive("m") == [1, 2]
            left.close()
            right.close()

        asyncio.run(scenario())

    def test_substitution_records_authentic_values(self):
        async def scenario():
            left, right = mirror_pair()

            async def bob_side():
                # Bob's process: bob's send is local and real.
                await right.right.send("secret", 777)

            bob = asyncio.create_task(bob_side())
            # Alice's process: the choreography says "bob sends", with
            # a garbage value computed from placeholders; the mirror
            # must await and substitute the authentic 777 from the wire.
            await left._send("bob", "alice", "secret", -1)
            assert left.left.receive("secret") == 777
            assert left.transcript.entries[-1].value == 777
            await bob
            assert bob.done()

        asyncio.run(scenario())

    def test_cross_process_label_divergence_detected(self):
        async def scenario():
            left, right = mirror_pair(timeout_s=2.0)

            async def bob_side():
                await right.right.send("phase_two", 1)

            bob = asyncio.create_task(bob_side())
            with pytest.raises(ProtocolDesyncError, match="cross-process"):
                await left._send("bob", "alice", "phase_one", 0)
            await bob

        asyncio.run(scenario())

    def test_receive_without_send_is_desync_not_hang(self):
        left, _ = mirror_pair(timeout_s=2.0)
        with pytest.raises(ProtocolDesyncError, match="no matching send"):
            left.left.receive("never")

    def test_assert_drained_reports_leftovers(self):
        async def scenario():
            left, right = mirror_pair()
            await left.left.send("m", 5)
            left.assert_drained()   # a local send leaves nothing behind
            # The peer substitutes the frame but never receives it.
            await right._send("alice", "bob", "m", None)
            with pytest.raises(ProtocolDesyncError,
                               match="not drained: 1 unconsumed "
                                     "substituted"):
                right.assert_drained()
            right.close()
            left.close()

        asyncio.run(scenario())

    def test_unknown_local_party_rejected(self):
        transport = QueueTransport("alice", asyncio.Queue(),
                                   asyncio.Queue(), timeout_s=1.0)
        with pytest.raises(MirrorChannelError, match="not an endpoint"):
            MirrorChannel("alice", "bob", "carol", transport)

    def test_same_party_names_rejected(self):
        transport = QueueTransport("alice", asyncio.Queue(),
                                   asyncio.Queue(), timeout_s=1.0)
        with pytest.raises(MirrorChannelError, match="distinct"):
            MirrorChannel("alice", "alice", "alice", transport)

    def test_closed_channel_refuses_sends_and_receives(self):
        async def scenario():
            left, _ = mirror_pair()
            left.close()
            with pytest.raises(MirrorChannelError, match="closed"):
                await left.left.send("m", 1)
            with pytest.raises(MirrorChannelError, match="closed"):
                await left._send("bob", "alice", "m", None)
            with pytest.raises(MirrorChannelError, match="closed"):
                left.left.receive("m")

        asyncio.run(scenario())

    def test_substituted_frame_checks_the_receive_label(self):
        async def scenario():
            left, right = mirror_pair()
            await left.left.send("m", 5)
            await right._send("alice", "bob", "m", None)
            with pytest.raises(ProtocolDesyncError,
                               match="expected message 'n' but got 'm'"):
                right.right.receive("n")

        asyncio.run(scenario())

    def test_substitution_waits_for_the_peer_keys(self):
        """A frame not yet taken off the link waits for the peer's keys
        first, even when the frame itself arrives before them."""
        async def scenario():
            left, right = mirror_pair()
            right.peer_keys = asyncio.Event()
            substitution = asyncio.create_task(
                right._send("alice", "bob", "m", None))
            await asyncio.sleep(0)
            await left.left.send("m", 9)
            for _ in range(5):
                await asyncio.sleep(0)
            assert not substitution.done()
            right.peer_keys.set()
            await substitution
            assert right.right.receive("m") == 9

        asyncio.run(scenario())

    def test_live_counter_counts_own_and_substituted_frames(self):
        async def scenario():
            left, right = mirror_pair()
            left.obs_live = counter = Counter()
            await left.left.send("offer", 1)
            await right.right.send("answer", 2)
            await left._send("bob", "alice", "answer", None)
            return counter.value

        assert asyncio.run(scenario()) == 2


# Values of every wire tag, the ciphertext list form included.
WIRE_VALUES = {
    "int": 7, "negative": -300, "wide": 2**300, "bool": True,
    "str": "label", "none": None, "list": [1, "x", None],
    "fixed-width": FixedWidthList([1, 2**255], 32),
}


class TestOneRecord:
    """A mirror channel records each frame through the same
    ``Channel._record`` as an in-process send, so its accounting and
    the values its receives return cannot drift from an in-process
    run's."""

    @pytest.mark.parametrize("value", list(WIRE_VALUES.values()),
                             ids=list(WIRE_VALUES))
    def test_both_sends_match_an_in_process_send(self, value):
        reference = Channel()
        drive(reference.left.send("v", value))
        expected = reference.right.receive("v")

        async def scenario():
            left, right = mirror_pair()
            await left.left.send("v", value)       # alice's own frame
            await right._send("alice", "bob", "v", None)  # substituted
            return left, right, right.right.receive("v")

        left, right, received = asyncio.run(scenario())
        assert received == expected
        assert type(received) is type(expected)
        assert getattr(received, "width", None) \
            == getattr(expected, "width", None)
        digest = transcript_digest(reference.transcript)
        for channel in (left, right):
            assert channel.stats.snapshot() == reference.stats.snapshot()
            assert transcript_digest(channel.transcript) == digest

    def test_every_frame_passes_the_one_record(self, monkeypatch):
        recorded = {}
        record = Channel._record

        def counting(channel, *frame):
            recorded[id(channel)] = recorded.get(id(channel), 0) + 1
            return record(channel, *frame)

        monkeypatch.setattr(Channel, "_record", counting)
        run = run_mirrored(comparison_choreography,
                           {"alice": 3, "bob": 7}, placeholder=0)
        for channel in run["channels"].values():
            frames = len(channel.transcript.entries)
            assert frames > 0
            assert recorded[id(channel)] == frames \
                == channel.stats.total_messages


class TestMirrorWithParties:
    def test_party_rngs_stay_independent_of_placeholders(self):
        """Each process draws only its hosted party's coins, from public
        seeds; the peer's placeholder input must neither shift a draw nor
        reach an authentic value."""
        async def choreography(channel, values):
            alice = Party(channel.left)
            bob = Party(channel.right)
            alice.rng.seed(5)
            bob.rng.seed(6)
            # Alice's draw and input feed her send; bob adds his draw.
            offer = None
            if alice.hosted:
                offer = alice.rng.randrange(1000) + values["alice"]
            await alice.send("a", offer)
            reply = None
            if bob.hosted:
                reply = bob.receive("a") + bob.rng.randrange(1000)
            await bob.send("b", reply)
            if alice.hosted:
                return alice.receive("b"), alice.rng.getstate()
            return reply, bob.rng.getstate()

        run = run_mirrored(choreography, {"alice": 1, "bob": 2},
                           placeholder=0)
        import random
        expected = (random.Random(5).randrange(1000) + 1
                    + random.Random(6).randrange(1000))
        for name, seed in (("alice", 5), ("bob", 6)):
            result, rng_state = run["outcomes"][name]
            assert result == expected
            one_draw = random.Random(seed)
            one_draw.randrange(1000)
            assert rng_state == one_draw.getstate()
            run["channels"][name].assert_drained()
