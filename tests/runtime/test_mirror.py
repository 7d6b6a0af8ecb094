"""Mirrored-choreography channel: substitution, equivalence, desyncs.

These tests run the *same* choreography in two threads -- each with only
its own party's real input, the peer's replaced by a placeholder, and
only its own party's steps executed -- over a socketpair, exactly the
execution model the party processes use, and assert the protocol
observables match a single in-process run with the real inputs on both
sides.
"""

import socket
import threading

import pytest

from repro.net.channel import Channel, ProtocolDesyncError
from repro.net.framing import FramedConnection
from repro.net.party import Party, make_party_pair
from repro.net.transcript import transcript_digest
from repro.net.transport import TcpTransport
from repro.runtime.mirror import MirrorChannel
from repro.smc.session import SmcConfig, SmcSession

SMC = SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=871)


def mirror_pair(timeout_s: float = 10.0):
    left_sock, right_sock = socket.socketpair()
    channels = []
    for sock, local in ((left_sock, "alice"), (right_sock, "bob")):
        connection = FramedConnection(sock, timeout_s=timeout_s,
                                      name=f"{local}@test")
        transport = TcpTransport("alice", "bob", connection,
                                 local_name=local)
        channels.append(MirrorChannel("alice", "bob", local, transport))
    return channels


def run_mirrored(choreography, inputs: dict[str, object],
                 placeholder: object, timeout_s: float = 10.0) -> dict:
    """Run ``choreography(channel, local_inputs)`` in both processes'
    style: each thread gets its own value real, the peer's replaced."""
    left, right = mirror_pair(timeout_s)
    outcomes = {}
    errors = {}

    def side(local, channel):
        view = {name: (value if name == local else placeholder)
                for name, value in inputs.items()}
        try:
            outcomes[local] = choreography(channel, view)
        except BaseException as exc:  # noqa: BLE001 - test harness
            errors[local] = exc
            channel.close(reason=f"{local} failed: {exc}")

    threads = [threading.Thread(target=side, args=("alice", left)),
               threading.Thread(target=side, args=("bob", right))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    if errors:
        raise next(iter(errors.values()))
    return {"outcomes": outcomes, "channels": {"alice": left, "bob": right}}


def comparison_choreography(channel, values):
    """A full DGK comparison, placeholder-tolerant on either side."""
    alice, bob = make_party_pair(channel, 41, 42)
    session = SmcSession(alice, bob, SMC)
    outcome = session.compare_leq(alice, values["alice"], bob,
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
        reference = comparison_choreography(reference_channel,
                                            {"alice": 3, "bob": 7})
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
        comparison_choreography(reference_channel, {"alice": 30, "bob": 7})
        reference = reference_channel.stats.snapshot()
        for name in ("alice", "bob"):
            assert run["channels"][name].stats.snapshot() == reference


class TestMirrorMechanics:
    def test_non_hosted_receive_raises(self):
        left, right = mirror_pair()
        assert left.left.hosted and not left.right.hosted
        assert right.right.hosted and not right.left.hosted
        # A local send is not echoed: the remote party's receive is a
        # step block missing its hosted guard, and fails loudly.
        left.left.send("m", [1, 2])
        with pytest.raises(ProtocolDesyncError, match="not hosted.*'m'"):
            left.right.receive("m")
        # In the peer's process the same send is the substitution point
        # and its hosted receive gets the authentic frame.
        right._send("alice", "bob", "m", None)
        assert right.right.receive("m") == [1, 2]
        left.close()
        right.close()

    def test_substitution_records_authentic_values(self):
        left, right = mirror_pair()
        done = threading.Event()

        def bob_side():
            # Bob's process: bob's send is local and real.
            right.right.send("secret", 777)
            done.set()

        thread = threading.Thread(target=bob_side)
        thread.start()
        # Alice's process: the choreography says "bob sends", with a
        # garbage value computed from placeholders; the mirror must
        # substitute the authentic 777 from the wire.
        left._send("bob", "alice", "secret", -1)
        assert left.left.receive("secret") == 777
        assert left.transcript.entries[-1].value == 777
        thread.join(timeout=5)
        assert done.is_set()

    def test_cross_process_label_divergence_detected(self):
        left, right = mirror_pair(timeout_s=2.0)

        def bob_side():
            right.right.send("phase_two", 1)

        thread = threading.Thread(target=bob_side)
        thread.start()
        with pytest.raises(ProtocolDesyncError, match="cross-process"):
            left._send("bob", "alice", "phase_one", 0)
        thread.join(timeout=5)

    def test_receive_without_send_is_desync_not_hang(self):
        left, _ = mirror_pair(timeout_s=2.0)
        with pytest.raises(ProtocolDesyncError, match="no matching send"):
            left.left.receive("never")

    def test_assert_drained_reports_leftovers(self):
        left, right = mirror_pair()
        left.left.send("m", 5)
        left.assert_drained()       # a local send leaves nothing behind
        # The peer substitutes the frame but never receives it.
        right._send("alice", "bob", "m", None)
        with pytest.raises(ProtocolDesyncError,
                           match="not drained: 1 unconsumed substituted"):
            right.assert_drained()
        right.close()
        left.close()

    def test_unknown_local_party_rejected(self):
        left_sock, right_sock = socket.socketpair()
        connection = FramedConnection(left_sock, timeout_s=1.0, name="x")
        transport = TcpTransport("alice", "bob", connection,
                                 local_name="alice")
        from repro.runtime.mirror import MirrorChannelError
        with pytest.raises(MirrorChannelError, match="not an endpoint"):
            MirrorChannel("alice", "bob", "carol", transport)
        right_sock.close()
        connection.close()


class TestMirrorWithParties:
    def test_party_rngs_stay_independent_of_placeholders(self):
        """Each process draws only its hosted party's coins, from public
        seeds; the peer's placeholder input must neither shift a draw nor
        reach an authentic value."""
        def choreography(channel, values):
            alice = Party(channel.left)
            bob = Party(channel.right)
            alice.rng.seed(5)
            bob.rng.seed(6)
            # Alice's draw and input feed her send; bob adds his draw.
            offer = None
            if alice.hosted:
                offer = alice.rng.randrange(1000) + values["alice"]
            alice.send("a", offer)
            reply = None
            if bob.hosted:
                reply = bob.receive("a") + bob.rng.randrange(1000)
            bob.send("b", reply)
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
