"""Channel behaviour: framing, accounting, desync detection."""

import asyncio
import inspect

import pytest

from repro.net.channel import (
    Channel,
    ChannelClosedError,
    ProtocolDesyncError,
    drive,
)
from repro.net.party import make_party_pair
from repro.net.serialization import serialize_message


class TestSendReceive:
    def test_basic_exchange(self, channel):
        drive(channel.left.send("greeting", [1, 2, 3]))
        assert channel.right.receive("greeting") == [1, 2, 3]

    def test_fifo_ordering(self, channel):
        drive(channel.left.send("a", 1))
        drive(channel.left.send("b", 2))
        assert channel.right.receive("a") == 1
        assert channel.right.receive("b") == 2

    def test_bidirectional(self, channel):
        drive(channel.left.send("ping", 1))
        drive(channel.right.send("pong", 2))
        assert channel.right.receive("ping") == 1
        assert channel.left.receive("pong") == 2

    def test_receive_any_label(self, channel):
        drive(channel.left.send("whatever", "x"))
        assert channel.right.receive() == "x"

    def test_self_messages_not_allowed(self):
        with pytest.raises(ValueError, match="distinct"):
            Channel(left_name="same", right_name="same")


class TestDesyncDetection:
    def test_empty_inbox(self, channel):
        with pytest.raises(ProtocolDesyncError, match="inbox is empty"):
            channel.right.receive("missing")

    def test_label_mismatch(self, channel):
        drive(channel.left.send("actual", 1))
        with pytest.raises(ProtocolDesyncError, match="expected"):
            channel.right.receive("expected_something_else")

    def test_closed_channel(self, channel):
        channel.close()
        with pytest.raises(ChannelClosedError):
            drive(channel.left.send("x", 1))
        with pytest.raises(ChannelClosedError):
            channel.right.receive()


class TestAccounting:
    def test_bytes_counted(self, channel):
        drive(channel.left.send("data", 2**64))
        assert channel.stats.total_bytes > 8
        assert channel.stats.total_messages == 1

    def test_direction_split(self, channel):
        drive(channel.left.send("a", 1))
        drive(channel.left.send("b", 2))
        drive(channel.right.send("c", 3))
        directions = channel.stats.messages_by_direction
        assert directions["alice->bob"] == 2
        assert directions["bob->alice"] == 1

    def test_label_accounting(self, channel):
        drive(channel.left.send("phase1/x", 100))
        drive(channel.left.send("phase1/y", 200))
        drive(channel.left.send("phase2/z", 300))
        assert channel.stats.messages_for_phase("phase1") == 2
        assert channel.stats.bytes_for_phase("phase1") > 0

    def test_transcript_records_everything(self, channel):
        drive(channel.left.send("m1", [1, "two"]))
        channel.right.receive("m1")
        drive(channel.right.send("m2", True))
        channel.left.receive("m2")
        entries = channel.transcript.entries
        assert len(entries) == 2
        assert entries[0].sender == "alice"
        assert entries[0].value == [1, "two"]
        assert entries[1].receiver == "alice"

    @pytest.mark.parametrize("value", [12345, "abc", [1, "x", None]])
    def test_charges_the_serialized_size(self, channel, value):
        drive(channel.left.send("m", value))
        wire = serialize_message(value)
        assert channel.stats.total_bytes == len(wire)
        assert channel.transcript.entries[0].wire == wire

    def test_unserializable_value_never_counted(self, channel):
        with pytest.raises(Exception):
            drive(channel.left.send("bad", {"dict": 1}))
        assert channel.stats.total_messages == 0


class TestDrive:
    """``drive`` runs an in-process choreography with one
    ``send(None)``: nothing may suspend, because every frame is queued
    before its receive."""

    def test_returns_the_choreographys_value(self, channel):
        alice, bob = make_party_pair(channel, 1, 2)

        async def echo():
            await alice.send("ping", 41)
            await bob.send("pong", bob.receive("ping") + 1)
            return alice.receive("pong")

        assert drive(echo()) == 42
        assert channel.stats.total_messages == 2

    def test_refuses_a_peer_frame_never_sent(self, channel):
        alice, bob = make_party_pair(channel, 1, 2)

        async def one_sided():
            await alice.send("offer", 1)
            return alice.receive("answer")

        coroutine = one_sided()
        with pytest.raises(ProtocolDesyncError, match="receive answer"):
            drive(coroutine)
        assert inspect.getcoroutinestate(coroutine) \
            == inspect.CORO_CLOSED

    def test_refuses_a_choreography_that_suspends(self, channel):
        alice, _ = make_party_pair(channel, 1, 2)
        reached = []

        async def waits():
            await alice.send("before", 1)
            await asyncio.sleep(0)
            reached.append("after")

        coroutine = waits()
        with pytest.raises(ProtocolDesyncError, match="waits.*suspended"):
            drive(coroutine)
        assert inspect.getcoroutinestate(coroutine) \
            == inspect.CORO_CLOSED
        assert reached == []
