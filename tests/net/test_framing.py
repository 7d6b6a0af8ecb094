"""Frame layer: roundtrips, malformed input and close paths."""

import asyncio
import socket
import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_MUX_CONTROL,
    FRAME_MUX_MESSAGE,
    ConnectionClosedError,
    FramingError,
    decode_message_payload,
    encode_frame,
    encode_message_payload,
    read_frame_async,
)
from repro.runtime import handshake


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


def read_frames(data: bytes, count: int = 1, **kwargs) -> list:
    """``count`` frames read with :func:`read_frame_async` from a stream
    that holds ``data`` and then ends."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await read_frame_async(reader, name="right", **kwargs)
                for _ in range(count)]
    return asyncio.run(run())


class TestReadFrameAsync:
    def test_frame_roundtrip_all_kinds(self):
        kinds = (FRAME_HELLO, FRAME_CONTROL, FRAME_GOODBYE,
                 FRAME_MUX_MESSAGE, FRAME_MUX_CONTROL)
        data = b"".join(encode_frame(kind, b"payload-" + kind)
                        for kind in kinds)
        assert read_frames(data, len(kinds)) \
            == [(kind, b"payload-" + kind) for kind in kinds]

    def test_empty_payload_frame(self):
        assert encode_frame(FRAME_CONTROL) == b"\x00\x00\x00\x01C"
        assert read_frames(encode_frame(FRAME_CONTROL)) \
            == [(FRAME_CONTROL, b"")]

    def test_unknown_kind_rejected_on_write(self):
        with pytest.raises(FramingError, match="unknown frame kind"):
            encode_frame(b"Z", b"")

    def test_unknown_kind_rejected_on_read(self):
        with pytest.raises(FramingError, match="unknown frame kind"):
            read_frames(struct.pack(">I", 1) + b"Q")

    def test_oversized_length_refused_without_allocation(self):
        """The length is refused before the body is read: a stream that
        ends after the header still reports the ceiling, not a short
        read."""
        with pytest.raises(FramingError, match="ceiling"):
            read_frames(struct.pack(">I", 1 << 30) + b"M",
                        max_frame_bytes=1024)

    def test_oversized_frame_refused_at_the_sender(self, monkeypatch):
        """The ceiling is symmetric: an oversized frame fails loudly at
        the producing call site, not as a desync at the receiver."""
        monkeypatch.setattr(handshake, "DEFAULT_MAX_FRAME_BYTES", 64)
        writer = _RecordingWriter()
        with pytest.raises(FramingError, match="ceiling"):
            asyncio.run(handshake._send_frame(writer, FRAME_CONTROL,
                                              b"x" * 64))
        asyncio.run(handshake._send_frame(writer, FRAME_CONTROL, b"x" * 63))
        assert writer.written == [encode_frame(FRAME_CONTROL, b"x" * 63)]

    def test_zero_length_refused(self):
        with pytest.raises(FramingError, match="< 1"):
            read_frames(struct.pack(">I", 0))

    def test_peer_close_at_frame_boundary(self):
        with pytest.raises(ConnectionClosedError,
                           match="closed the connection"):
            read_frames(encode_frame(FRAME_CONTROL, b"last"), 2)
        assert read_frames(encode_frame(FRAME_CONTROL, b"last")) \
            == [(FRAME_CONTROL, b"last")]

    @pytest.mark.parametrize("cut", [2, 4, 8])
    def test_mid_frame_eof_is_connection_loss(self, cut):
        """A peer dying with a frame in flight -- inside the length or
        the body -- is a *connection* failure (TransportClosedError
        upstream), not a malformed-frame desync."""
        frame = encode_frame(FRAME_MUX_MESSAGE, b"123456789")
        with pytest.raises(ConnectionClosedError, match="mid-frame"):
            read_frames(frame[:cut])

    def test_large_frame_roundtrip_over_a_socket(self):
        """Frames above the socket buffer size reassemble exactly."""
        blob = bytes(range(256)) * 4096  # 1 MiB

        async def run():
            left, right = socket.socketpair()
            reader, right_writer = await asyncio.open_connection(sock=right)
            _, writer = await asyncio.open_connection(sock=left)
            try:
                sent = asyncio.create_task(handshake._send_frame(
                    writer, FRAME_CONTROL, blob))
                frame = await read_frame_async(reader)
                await sent
                return frame
            finally:
                writer.close()
                right_writer.close()

        assert asyncio.run(run()) == (FRAME_CONTROL, blob)


class _RecordingWriter:
    """Records each frame :func:`_send_frame` writes."""

    def __init__(self):
        self.written = []

    def write(self, data: bytes) -> None:
        self.written.append(data)

    async def drain(self) -> None:
        pass
