"""Transport fabrics: delivery semantics, error diagnosis, thread safety."""

import socket
import threading

import pytest

from repro.net.channel import Channel, ProtocolDesyncError
from repro.net.framing import FRAME_CONTROL, FramedConnection
from repro.net.stats import CommunicationStats
from repro.net.transport import (
    AsyncTcpTransport,
    InProcessTransport,
    TcpTransport,
    TransportClosedError,
    TransportError,
    TransportTimeoutError,
)
from repro.smc.session import SmcConfig, channel_for_config


def tcp_transport_pair(timeout_s: float = 2.0):
    left_sock, right_sock = socket.socketpair()
    left = TcpTransport("alice", "bob",
                        FramedConnection(left_sock, timeout_s=timeout_s,
                                         name="alice@pair"),
                        local_name="alice")
    right = TcpTransport("alice", "bob",
                         FramedConnection(right_sock, timeout_s=timeout_s,
                                          name="bob@pair"),
                         local_name="bob")
    return left, right


class TestInProcessTransport:
    def test_fifo_and_desync(self):
        transport = InProcessTransport("a", "b")
        transport.deliver("a", "b", "x", b"1")
        transport.deliver("a", "b", "y", b"2")
        assert transport.collect("b", None) == ("x", b"1")
        assert transport.collect("b", None) == ("y", b"2")
        with pytest.raises(ProtocolDesyncError, match="inbox is empty"):
            transport.collect("b", "z")

    def test_unknown_endpoint(self):
        transport = InProcessTransport("a", "b")
        with pytest.raises(TransportError, match="not an endpoint"):
            transport.deliver("a", "c", "x", b"1")

    def test_channel_for_config(self):
        channel = channel_for_config(SmcConfig(), "x", "y")
        assert isinstance(channel, Channel)
        assert isinstance(channel.transport, InProcessTransport)
        assert (channel.transport.left_name,
                channel.transport.right_name) == ("x", "y")


class TestTcpTransport:
    def test_split_party_programs_over_a_real_socket(self):
        """The genuine split execution: each endpoint in its own
        transport (here threads; processes in tests/runtime)."""
        left, right = tcp_transport_pair()
        channel_left = Channel(transport=left)
        channel_right = Channel(transport=right)
        results = {}

        def alice_program():
            channel_left.left.send("ping", [1, 2, 3])
            results["alice"] = channel_left.left.receive("pong")

        def bob_program():
            value = channel_right.right.receive("ping")
            channel_right.right.send("pong", sum(value))
            results["bob"] = value

        threads = [threading.Thread(target=alice_program),
                   threading.Thread(target=bob_program)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == {"alice": 6, "bob": [1, 2, 3]}
        # Each side accounts what it saw: one send, one receive.
        assert channel_left.stats.total_messages == 1
        assert channel_right.stats.total_messages == 1

    def test_remote_endpoint_rejected(self):
        left, _ = tcp_transport_pair()
        with pytest.raises(TransportError, match="not the local endpoint"):
            left.deliver("bob", "alice", "m", b"x")
        with pytest.raises(TransportError, match="not the local endpoint"):
            left.collect("bob", "m")

    def test_timeout_names_pair_and_last_frame(self):
        left, right = tcp_transport_pair(timeout_s=0.05)
        left.deliver("alice", "bob", "opening", b"x")
        assert right.collect("bob", "opening") == ("opening", b"x")
        with pytest.raises(TransportTimeoutError) as excinfo:
            right.collect("bob", "never_sent")
        message = str(excinfo.value)
        assert "never_sent" in message
        assert "'alice'<->'bob'" in message
        assert "'opening'" in message  # the last frame seen
        assert isinstance(excinfo.value, ProtocolDesyncError)

    def test_close_reason_reaches_the_peer(self):
        left, right = tcp_transport_pair()
        left.close(reason="party alice died: ZeroDivisionError")
        with pytest.raises(TransportClosedError) as excinfo:
            right.collect("bob", "reply")
        message = str(excinfo.value)
        assert "alice died" in message
        assert "'alice'<->'bob'" in message
        assert "no frames were delivered" in message

    def test_peer_death_without_goodbye_is_closed_not_hang(self):
        left, right = tcp_transport_pair()
        left.connection.close()  # crash: no goodbye frame
        with pytest.raises(TransportClosedError, match="link closed"):
            right.collect("bob", "reply")

    def test_control_frame_in_protocol_stream_is_desync(self):
        left, right = tcp_transport_pair()
        left.connection.write_frame(FRAME_CONTROL, b"oops")
        with pytest.raises(ProtocolDesyncError, match="control frame"):
            right.collect("bob", "m")

    def test_protocol_equivalence_over_socket(self):
        """A full SMC protocol run over TCP (choreographed from one
        thread per side is not possible; use the split ping-pong level
        plus the wire-format guarantee: frames carry the exact
        serialization bytes)."""
        left, right = tcp_transport_pair()
        from repro.net.serialization import serialize_message
        value = [12345678901234567890, "label", True, None]
        wire = serialize_message(value)
        left.deliver("alice", "bob", "blob", wire)
        label, received = right.collect("bob", "blob")
        assert (label, received) == ("blob", wire)


class TestSessionLinkTransport:
    def test_blocking_collect_refused(self):
        """Daemon sessions park coroutines, never threads: the blocking
        receive of the Transport interface is refused by name."""
        view = AsyncTcpTransport("alice", "bob", "alice").session("s")
        with pytest.raises(TransportError, match="try_collect"):
            view.collect("alice", "m")


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

        def hammer(sender):
            for _ in range(500):
                transcript.record(sender, "peer", "l", 1, 1)

        threads = [threading.Thread(target=hammer, args=(str(i),))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        indices = [entry.index for entry in transcript.entries]
        assert indices == list(range(2000))
