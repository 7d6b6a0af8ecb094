"""Pair links: delivery semantics, error diagnosis, thread safety."""

import asyncio
import threading

import pytest

from repro.net.channel import Channel, ProtocolDesyncError, drive
from repro.net.framing import FRAME_CONTROL
from repro.net.serialization import serialize_message
from repro.net.stats import CommunicationStats
from repro.net.transport import (
    RELEASED_TAGS_KEPT,
    AsyncTcpTransport,
    TransportClosedError,
    TransportError,
    TransportTimeoutError,
)
from repro.obs.metrics import MetricsRegistry, series_key
from repro.smc.session import SmcConfig, channel_for_config


async def tcp_transport_pair(timeout_s: float = 2.0, metrics=None):
    """Two ``AsyncTcpTransport`` hubs, alice's and bob's, on the two
    ends of one real loopback connection (call on a running loop);
    ``metrics`` is bob's registry."""
    accepted = asyncio.get_running_loop().create_future()
    server = await asyncio.start_server(
        lambda reader, writer: accepted.set_result((reader, writer)),
        "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    left = AsyncTcpTransport("alice", "bob", "alice", timeout_s=timeout_s)
    left.start(*await asyncio.open_connection("127.0.0.1", port))
    right = AsyncTcpTransport("alice", "bob", "bob", timeout_s=timeout_s,
                              metrics=metrics)
    right.start(*await accepted)
    server.close()
    return left, right


class TestInProcessChannel:
    def test_fifo_and_desync(self):
        channel = Channel("a", "b")
        drive(channel.left.send("x", 1))
        drive(channel.left.send("y", 2))
        assert channel.right.receive() == 1
        assert channel.right.receive() == 2
        with pytest.raises(ProtocolDesyncError, match="inbox is empty"):
            channel.right.receive("z")

    def test_channel_for_config(self):
        channel = channel_for_config(SmcConfig(), "x", "y")
        assert isinstance(channel, Channel)
        assert (channel.left.name, channel.right.name) == ("x", "y")


class TestTcpTransport:
    """The TCP transport: one ``AsyncTcpTransport`` hub per endpoint,
    each serving only its local party, over a real connection."""

    def test_split_party_programs_over_a_real_socket(self):
        """The genuine split execution: each endpoint in its own hub
        (here one loop; daemon processes in tests/runtime)."""
        async def run():
            left, right = await tcp_transport_pair()
            alice, bob = left.session("s"), right.session("s")
            alice.deliver("alice", "bob", "ping", b"123")
            assert await bob.wait_message("ping") == ("ping", b"123")
            bob.deliver("bob", "alice", "pong", b"6")
            assert await alice.wait_message("pong") == ("pong", b"6")
            await left.aclose()
            await right.aclose()

        asyncio.run(run())

    def test_remote_endpoint_rejected(self):
        async def run():
            left, right = await tcp_transport_pair()
            view = left.session("s")
            with pytest.raises(TransportError,
                               match="not the local endpoint"):
                view.deliver("bob", "alice", "m", b"x")
            with pytest.raises(TransportError,
                               match="not the local endpoint"):
                view.try_collect("bob", "m")
            await left.aclose()
            await right.aclose()

        asyncio.run(run())

    def test_timeout_names_pair_and_last_frame(self):
        async def run():
            left, right = await tcp_transport_pair(timeout_s=0.05)
            left.session("s").deliver("alice", "bob", "opening", b"x")
            view = right.session("s")
            assert await view.wait_message("opening") == ("opening", b"x")
            with pytest.raises(TransportTimeoutError) as excinfo:
                await view.wait_message("never_sent")
            await left.aclose()
            await right.aclose()
            return excinfo.value

        error = asyncio.run(run())
        message = str(error)
        assert "never_sent" in message
        assert "'alice'<->'bob'" in message
        assert "'s:opening'" in message  # the last frame seen
        assert isinstance(error, ProtocolDesyncError)

    def test_close_reason_reaches_the_peer(self):
        async def run():
            left, right = await tcp_transport_pair()
            view = right.session("s")
            await left.aclose("party alice died: ZeroDivisionError")
            with pytest.raises(TransportClosedError) as excinfo:
                await view.wait_message("reply")
            await right.aclose()
            return str(excinfo.value)

        message = asyncio.run(run())
        assert "alice died" in message
        assert "'alice'<->'bob'" in message
        assert "no frames were delivered" in message

    def test_peer_death_without_goodbye_is_closed_not_hang(self):
        async def run():
            left, right = await tcp_transport_pair()
            view = right.session("s")
            left.abort("crash")  # no goodbye frame
            with pytest.raises(TransportClosedError, match="link closed"):
                await view.wait_message("reply")
            await right.aclose()

        asyncio.run(run())

    def test_unmultiplexed_frame_aborts_the_link(self):
        """A plain control frame on a pair link means the two ends
        disagree about what the connection carries: every session on
        it fails."""
        async def run():
            left, right = await tcp_transport_pair()
            view = right.session("s")
            left.send_frame(left.encode_sealed(FRAME_CONTROL, b"oops"))
            with pytest.raises(TransportClosedError,
                               match="non-multiplexed"):
                await view.wait_message("m")
            await left.aclose()
            await right.aclose()

        asyncio.run(run())

    def test_protocol_equivalence_over_socket(self):
        """Frames carry the exact serialization bytes: what one end
        delivers is what the other end's session receives."""
        from repro.net.serialization import serialize_message

        async def run():
            left, right = await tcp_transport_pair()
            wire = serialize_message([12345678901234567890, "label", True,
                                      None])
            left.session("s").deliver("alice", "bob", "blob", wire)
            received = await right.session("s").wait_message("blob")
            await left.aclose()
            await right.aclose()
            return wire, received

        wire, received = asyncio.run(run())
        assert received == ("blob", wire)


async def _arrived(hub: AsyncTcpTransport, tag: str) -> None:
    """Wait until the demux task has created ``tag``'s view."""
    for _ in range(200):
        if tag in hub._sessions:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"no view for {tag!r} on {hub.name}")


class TestReleasedTags:
    """A frame that lands after its session released the tag is late:
    dropped and counted, never a view that nothing would release."""

    LATE = series_key("repro_link_late_frames_total", {"pair": "alice-bob"})

    def test_late_frames_leave_no_view(self):
        registry = MetricsRegistry()

        async def run():
            left, right = await tcp_transport_pair(metrics=registry)
            tags = ("s", "s#alice")
            for tag in tags:
                right.session(tag)
            right.release_session("s")
            for tag in tags:
                view = left.session(tag)
                view.deliver("alice", "bob", "late", b"1")
                view.send_control(serialize_message(["end_pass"]))
            # Same connection, so the fresh frame lands after the late
            # ones; its tag was never seen and gets a view.
            left.session("fresh").deliver("alice", "bob", "early", b"2")
            await _arrived(right, "fresh")
            views = set(right._sessions)
            collected = right._sessions["fresh"].try_collect("bob", "early")
            await left.aclose()
            await right.aclose()
            return views, collected

        views, collected = asyncio.run(run())
        assert views == {"fresh"}
        assert collected == ("early", b"2")
        assert registry.snapshot()["counters"][self.LATE] == 4

    def test_session_sync_reopens_a_released_tag(self):
        """A session id used again starts with its sync record, which
        may overtake the local open; a local open re-admits too."""
        registry = MetricsRegistry()
        sync = serialize_message(["session_sync", "digest"])

        async def run():
            left, right = await tcp_transport_pair(metrics=registry)
            for tag in ("again", "local"):
                right.session(tag)
                right.release_session(tag)
            left.session("again").send_control(sync)
            await _arrived(right, "again")
            record = await right.session("again").next_control()
            right.session("local")
            left.session("local").deliver("alice", "bob", "m", b"3")
            message = await right.session("local").wait_message("m")
            await left.aclose()
            await right.aclose()
            return record, message

        record, message = asyncio.run(run())
        assert record == sync
        assert message == ("m", b"3")
        assert registry.snapshot()["counters"].get(self.LATE, 0) == 0

    def test_late_session_sync_still_reopens_for_good(self):
        """Pins the leak that remains: a peer that syncs only after
        this hub timed the session out and released its tag re-creates
        the view, its next frames fill it, and nothing releases it
        again.  A sync bound to an attempt number would be dropped
        instead (ROADMAP direction 5)."""
        registry = MetricsRegistry()
        sync = serialize_message(["session_sync", "digest"])

        async def run():
            left, right = await tcp_transport_pair(metrics=registry)
            right.session("timed-out")
            right.release_session("timed-out")
            late = left.session("timed-out")
            late.send_control(sync)
            late.deliver("alice", "bob", "keys/paillier_pub", b"4")
            left.session("marker").deliver("alice", "bob", "m", b"5")
            await _arrived(right, "marker")
            stranded = right._sessions.get("timed-out")
            queued = (None if stranded is None else
                      (stranded._control_queue.qsize(),
                       stranded._message_queue.qsize()))
            await left.aclose()
            await right.aclose()
            return queued

        assert asyncio.run(run()) == (1, 1)
        assert registry.snapshot()["counters"].get(self.LATE, 0) == 0

    def test_history_is_kept_per_session(self):
        """Releasing a session drops the view of every stream of it;
        the history holds one entry for it, and a frame for any tag of
        it -- even one this hub never opened -- is late."""
        registry = MetricsRegistry()

        async def run():
            left, right = await tcp_transport_pair(metrics=registry)
            for tag in ("s", "s#alice#0", "s#alice#1", "s#bob#0"):
                right.session(tag)
            right.release_session("s")
            released = dict(right._released)
            left.session("s#bob#7").deliver("alice", "bob", "late", b"1")
            left.session("fresh").deliver("alice", "bob", "m", b"2")
            await _arrived(right, "fresh")
            views = set(right._sessions)
            await left.aclose()
            await right.aclose()
            return released, views

        released, views = asyncio.run(run())
        assert released == {"s": None}
        assert views == {"fresh"}
        assert registry.snapshot()["counters"][self.LATE] == 1

    def test_released_tags_are_bounded(self):
        hub = AsyncTcpTransport("alice", "bob", "bob")
        for index in range(RELEASED_TAGS_KEPT + 10):
            hub.release_session(f"s{index}")
        assert len(hub._released) == RELEASED_TAGS_KEPT
        assert "s0" not in hub._released
        assert f"s{RELEASED_TAGS_KEPT + 9}" in hub._released


class TestStatsThreadSafety:
    def test_concurrent_records_never_lose_counts(self):
        stats = CommunicationStats()
        per_thread = 2000

        def hammer(sender):
            for _ in range(per_thread):
                stats.record(sender, "peer", f"{sender}/label", 3)

        threads = [threading.Thread(target=hammer, args=(name,))
                   for name in ("t0", "t1", "t2", "t3")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.total_messages == 4 * per_thread
        assert stats.total_bytes == 12 * per_thread
        for name in ("t0", "t1", "t2", "t3"):
            assert stats.messages_by_direction[f"{name}->peer"] == per_thread

    def test_concurrent_transcript_indices_unique(self):
        from repro.net.transcript import Transcript
        transcript = Transcript()
        wire = serialize_message(1)

        def hammer(sender):
            for _ in range(500):
                transcript.record(sender, "peer", "l", wire)

        threads = [threading.Thread(target=hammer, args=(str(i),))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        indices = [entry.index for entry in transcript.entries]
        assert indices == list(range(2000))
