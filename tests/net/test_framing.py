"""Frame layer: roundtrips, malformed input, timeout and close paths."""

import socket
import struct
import threading

import pytest
from hypothesis import given, strategies as st

from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_MUX_CONTROL,
    FRAME_MUX_MESSAGE,
    ConnectionClosedError,
    FramedConnection,
    FramingError,
    ReceiveTimeout,
    decode_message_payload,
    encode_message_payload,
)


def connected_pair(timeout_s: float = 2.0, **kwargs):
    left, right = socket.socketpair()
    return (FramedConnection(left, timeout_s=timeout_s, name="left",
                             **kwargs),
            FramedConnection(right, timeout_s=timeout_s, name="right",
                             **kwargs))


class TestMessagePayload:
    def test_roundtrip(self):
        payload = encode_message_payload("dgk/x_bits", b"\x00\x01wire")
        assert decode_message_payload(payload) == ("dgk/x_bits",
                                                   b"\x00\x01wire")

    def test_empty_label_and_wire(self):
        assert decode_message_payload(
            encode_message_payload("", b"")) == ("", b"")

    def test_truncated_label_detected(self):
        payload = encode_message_payload("abcdef", b"")
        with pytest.raises(FramingError, match="truncated"):
            decode_message_payload(payload[:4])

    def test_too_short_for_length(self):
        with pytest.raises(FramingError, match="too short"):
            decode_message_payload(b"\x00")

    def test_invalid_utf8_label_is_framing_error(self):
        """The label decode must stay inside the framing error contract
        (a raw UnicodeDecodeError would crash a party process)."""
        payload = struct.pack(">H", 2) + b"\xff\xfe" + b"wire"
        with pytest.raises(FramingError, match="not valid UTF-8"):
            decode_message_payload(payload)

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_fail_cleanly_or_roundtrip(self, blob):
        """Fuzz companion to the serialization suite: arbitrary payloads
        must never crash the decoder with anything but the explicit
        boundary errors."""
        try:
            label, wire = decode_message_payload(blob)
        except (FramingError, UnicodeDecodeError):
            return
        assert encode_message_payload(label, wire) == blob


class TestFramedConnection:
    def test_frame_roundtrip_all_kinds(self):
        left, right = connected_pair()
        for kind in (FRAME_HELLO, FRAME_CONTROL, FRAME_GOODBYE,
                     FRAME_MUX_MESSAGE, FRAME_MUX_CONTROL):
            left.write_frame(kind, b"payload-" + kind)
            assert right.read_frame() == (kind, b"payload-" + kind)
        left.close()
        right.close()

    def test_empty_payload_frame(self):
        left, right = connected_pair()
        left.write_frame(FRAME_CONTROL)
        assert right.read_frame() == (FRAME_CONTROL, b"")

    def test_unknown_kind_rejected_on_write(self):
        left, _ = connected_pair()
        with pytest.raises(FramingError, match="unknown frame kind"):
            left.write_frame(b"Z", b"")

    def test_unknown_kind_rejected_on_read(self):
        left, right = connected_pair()
        left._sock.sendall(struct.pack(">I", 1) + b"Q")
        with pytest.raises(FramingError, match="unknown frame kind"):
            right.read_frame()

    def test_oversized_length_refused_without_allocation(self):
        left, right = connected_pair(max_frame_bytes=1024)
        left._sock.sendall(struct.pack(">I", 1 << 30) + b"M")
        with pytest.raises(FramingError, match="ceiling"):
            right.read_frame()

    def test_oversized_frame_refused_at_the_sender(self):
        """The ceiling is symmetric: an oversized frame fails loudly at
        the producing call site, not as a desync at the receiver."""
        left, _ = connected_pair(max_frame_bytes=64)
        with pytest.raises(FramingError, match="ceiling"):
            left.write_frame(FRAME_CONTROL, b"x" * 64)

    def test_zero_length_refused(self):
        left, right = connected_pair()
        left._sock.sendall(struct.pack(">I", 0))
        with pytest.raises(FramingError, match="< 1"):
            right.read_frame()

    def test_timeout_is_distinct_error(self):
        _, right = connected_pair(timeout_s=0.05)
        with pytest.raises(ReceiveTimeout, match="no data for"):
            right.read_frame()

    def test_peer_close_at_frame_boundary(self):
        left, right = connected_pair()
        left.write_frame(FRAME_CONTROL, b"last")
        left.close()
        assert right.read_frame() == (FRAME_CONTROL, b"last")
        with pytest.raises(ConnectionClosedError, match="closed"):
            right.read_frame()

    def test_mid_frame_eof_is_connection_loss(self):
        """A peer dying with a frame in flight is a *connection* failure
        (TransportClosedError upstream), not a malformed-frame desync."""
        left, right = connected_pair()
        left._sock.sendall(struct.pack(">I", 10) + b"M123")
        left.close()
        with pytest.raises(ConnectionClosedError, match="mid-frame"):
            right.read_frame()

    def test_timeout_mid_frame_is_retryable_without_corruption(self):
        """Partially received bytes survive a ReceiveTimeout: the next
        read_frame resumes the same frame instead of parsing garbage
        from its middle (the client's reader retries on timeout)."""
        left, right = connected_pair(timeout_s=0.1)
        frame = struct.pack(">I", 6) + b"C" + b"hello"
        left._sock.sendall(frame[:7])  # header + kind + 2 payload bytes
        with pytest.raises(ReceiveTimeout):
            right.read_frame()
        left._sock.sendall(frame[7:])
        assert right.read_frame() == (FRAME_CONTROL, b"hello")

    def test_timeout_before_any_bytes_then_clean_read(self):
        left, right = connected_pair(timeout_s=0.1)
        with pytest.raises(ReceiveTimeout):
            right.read_frame()
        left.write_frame(FRAME_CONTROL, b"late")
        assert right.read_frame() == (FRAME_CONTROL, b"late")

    def test_write_after_close_fails(self):
        left, _ = connected_pair()
        left.close()
        with pytest.raises(ConnectionClosedError, match="closed"):
            left.write_frame(FRAME_CONTROL, b"")

    def test_concurrent_writers_never_interleave_frames(self):
        """Two threads hammering one connection: every frame arrives
        intact (the write lock covers the whole frame)."""
        left, right = connected_pair(timeout_s=5.0)
        per_thread = 200

        def hammer(tag: bytes):
            for index in range(per_thread):
                left.write_frame(FRAME_CONTROL,
                                 tag * 3 + str(index).encode())

        threads = [threading.Thread(target=hammer, args=(tag,))
                   for tag in (b"a", b"b")]
        for thread in threads:
            thread.start()
        seen = []
        for _ in range(2 * per_thread):
            kind, payload = right.read_frame()
            assert kind == FRAME_CONTROL
            assert payload[:3] in (b"aaa", b"bbb")
            seen.append(payload)
        for thread in threads:
            thread.join()
        assert len(seen) == 2 * per_thread

    def test_large_frame_roundtrip(self):
        """Frames above the socket buffer size must reassemble exactly
        (exercises the partial-recv loop)."""
        left, right = connected_pair(timeout_s=5.0)
        blob = bytes(range(256)) * 4096  # 1 MiB
        received = {}

        def reader():
            received["frame"] = right.read_frame()

        thread = threading.Thread(target=reader)
        thread.start()
        left.write_frame(FRAME_CONTROL, blob)
        thread.join(timeout=10)
        assert received["frame"] == (FRAME_CONTROL, blob)
