"""Fuzz robustness: arbitrary bytes must never crash the deserializer
with anything but SerializationError, and valid wire data must be
re-encodable to identical bytes -- fixed-width integer lists (tag
``W``) included, which must also refuse values outside their width.
The TCP message-frame envelope gets the same treatment: a malicious or
corrupted frame must fail with the explicit boundary errors, never an
unhandled exception, and a valid ``(label, serialized value)`` envelope
must round-trip exactly."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.framing import (
    FramingError,
    decode_message_payload,
    encode_message_payload,
)
from repro.net.serialization import (
    FixedWidthList,
    SerializationError,
    deserialize_message,
    serialize_message,
)

widths = st.integers(min_value=1, max_value=40)

fixed_width_lists = widths.flatmap(lambda width: st.lists(
    st.integers(min_value=0, max_value=(1 << (8 * width)) - 1),
    max_size=5).map(lambda values: FixedWidthList(values, width)))

message_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**128), max_value=2**128),
        st.booleans(),
        st.text(max_size=20),
        st.none(),
        fixed_width_lists,
    ),
    lambda children: st.lists(children, max_size=5),
    max_leaves=20,
)


class TestFuzz:
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_fail_cleanly_or_parse(self, blob):
        try:
            value = deserialize_message(blob)
        except SerializationError:
            return
        except UnicodeDecodeError:
            # Strings are UTF-8; invalid encodings surface as decode
            # errors at the boundary, which is acceptable and explicit.
            return
        # If it parsed, it must round-trip to the same bytes.
        assert serialize_message(value) == blob

    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=6), st.binary(max_size=40))
    def test_fixed_width_headers_fail_cleanly_or_parse(self, count, width,
                                                       body):
        """A ``W`` header with a small count and width, then arbitrary
        bytes: parsing yields the same type and width, and re-encodes
        to the same bytes."""
        blob = b"W" + struct.pack(">II", count, width) + body
        try:
            value = deserialize_message(blob)
        except SerializationError:
            return
        assert type(value) is FixedWidthList and value.width == width
        assert serialize_message(value) == blob

    @given(widths, st.one_of(st.integers(max_value=-1),
                             st.integers(min_value=1 << 320)))
    def test_values_outside_the_width_refused(self, width, value):
        with pytest.raises(SerializationError):
            serialize_message(FixedWidthList([1, value], width))

    @given(message_values)
    def test_canonical_encoding(self, value):
        """Serialization is canonical: encode(decode(encode(v))) is
        byte-identical to encode(v)."""
        wire = serialize_message(value)
        assert serialize_message(deserialize_message(wire)) == wire

    @given(message_values, st.integers(min_value=0, max_value=50))
    def test_truncation_always_detected(self, value, cut):
        wire = serialize_message(value)
        if cut == 0 or cut >= len(wire):
            return
        truncated = wire[:-cut]
        try:
            restored = deserialize_message(truncated)
        except (SerializationError, UnicodeDecodeError):
            return
        # Extremely rare: a truncation that still parses must at least
        # not equal the original value's canonical bytes.
        assert serialize_message(restored) != wire


class TestFrameEnvelopeFuzz:
    """The TCP frame envelope around the serialization wire format."""

    @given(st.binary(max_size=200))
    def test_arbitrary_frame_payloads_fail_cleanly(self, blob):
        """The full inbound path -- envelope decode, then wire decode --
        must surface only the explicit boundary errors."""
        try:
            _, wire = decode_message_payload(blob)
            deserialize_message(wire)
        except (FramingError, SerializationError, UnicodeDecodeError):
            return

    @given(st.text(max_size=30), message_values)
    def test_label_and_value_roundtrip_exactly(self, label, value):
        wire = serialize_message(value)
        decoded_label, decoded_wire = decode_message_payload(
            encode_message_payload(label, wire))
        assert decoded_label == label
        assert decoded_wire == wire
        assert serialize_message(deserialize_message(decoded_wire)) == wire

    @given(st.text(max_size=30), message_values,
           st.integers(min_value=1, max_value=50))
    def test_truncated_envelopes_never_misparse_silently(self, label,
                                                         value, cut):
        payload = encode_message_payload(label, serialize_message(value))
        if cut >= len(payload):
            return
        truncated = payload[:-cut]
        try:
            _, wire = decode_message_payload(truncated)
            restored = deserialize_message(wire)
        except (FramingError, SerializationError, UnicodeDecodeError):
            return
        # A truncation that still parses end-to-end must not claim to be
        # the original message.
        assert serialize_message(restored) != serialize_message(value)
