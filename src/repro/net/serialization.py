"""Length-prefixed binary serialization for protocol messages.

Every value a protocol sends is serialized here, so the byte counts the
channel reports are the *actual wire size* of the protocol, not an
estimate.  Supported value types are the ones the paper's protocols
transmit: non-negative/negative integers (arbitrary precision), booleans,
strings (labels), nested lists/tuples of these, and lists of
non-negative integers at one byte width (:class:`FixedWidthList`, the
form every ciphertext list takes).

Wire format (type tag byte, then payload; lengths, counts and widths
are 4-byte big-endian):

- ``I`` int: 1 sign byte + length + magnitude bytes
- ``B`` bool: 1 byte
- ``S`` str: length + UTF-8 bytes
- ``L`` list/tuple: element count + concatenated elements
- ``W`` :class:`FixedWidthList`: element count + width + each element
  as ``width`` big-endian unsigned bytes
- ``N`` None: no payload

Decoding a ``W`` gives back a :class:`FixedWidthList` of the same
width, so every tag round-trips: decoding then encoding reproduces the
bytes.
"""

from __future__ import annotations

import struct


class SerializationError(ValueError):
    """Raised for unsupported types or truncated/invalid wire data."""


class FixedWidthList(list):
    """A list of non-negative integers that travels at one byte width.

    Each element costs exactly ``width`` bytes, so the message's size
    depends on its length only, never on its values.  A protocol sends
    its ciphertext lists in this form, at the width of the key that
    produced them (``ciphertext_width`` of the Paillier and DGK public
    keys).  It compares equal to a plain list of the same elements.
    """

    __slots__ = ("width",)

    def __init__(self, values, width: int):
        super().__init__(values)
        self.width = width


def serialize_message(value) -> bytes:
    """Serialize a message value to its wire representation."""
    out = bytearray()
    _write(out, value)
    return bytes(out)


def deserialize_message(data: bytes):
    """Inverse of :func:`serialize_message`.

    Raises:
        SerializationError: on trailing bytes or malformed input, both of
            which indicate a protocol framing bug.
    """
    value, offset = _read(data, 0)
    if offset != len(data):
        raise SerializationError(
            f"{len(data) - offset} trailing bytes after message"
        )
    return value


def list_header(count: int) -> bytes:
    """The bytes a ``count``-element list's encoding starts with; the
    elements' encodings follow it, concatenated."""
    return b"L" + struct.pack(">I", count)


def _write(out: bytearray, value) -> None:
    # bool must be checked before int: bool is an int subclass.
    if isinstance(value, bool):
        out += b"B"
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out += b"I"
        out.append(0 if value >= 0 else 1)
        magnitude = abs(value)
        payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1,
                                     "big")
        out += struct.pack(">I", len(payload))
        out += payload
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out += b"S"
        out += struct.pack(">I", len(encoded))
        out += encoded
    elif isinstance(value, FixedWidthList):
        _write_fixed_width(out, value)
    elif isinstance(value, (list, tuple)):
        out += list_header(len(value))
        for element in value:
            _write(out, element)
    elif value is None:
        out += b"N"
    else:
        raise SerializationError(
            f"unsupported message type: {type(value).__name__}"
        )


def _write_fixed_width(out: bytearray, value: FixedWidthList) -> None:
    width = value.width
    if type(width) is not int or not 0 < width < 1 << 32:
        raise SerializationError(f"integer list width {width!r} outside "
                                 "[1, 2^32)")
    out += b"W" + struct.pack(">II", len(value), width)
    for element in value:
        if type(element) is not int or element < 0:
            raise SerializationError(
                f"a {width}-byte integer list holds {element!r}, not a "
                "non-negative int")
        try:
            out += element.to_bytes(width, "big")
        except OverflowError:
            raise SerializationError(
                f"{element.bit_length()}-bit integer does not fit a "
                f"{width}-byte list") from None


def _read(data: bytes, offset: int):
    if offset >= len(data):
        raise SerializationError("truncated message: no type tag")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"B":
        _need(data, offset, 1)
        if data[offset] not in (0, 1):
            raise SerializationError(
                f"non-canonical boolean byte {data[offset]:#x}")
        return data[offset] == 1, offset + 1
    if tag == b"I":
        _need(data, offset, 5)
        if data[offset] not in (0, 1):
            raise SerializationError(
                f"non-canonical sign byte {data[offset]:#x}")
        negative = data[offset] == 1
        (length,) = struct.unpack_from(">I", data, offset + 1)
        offset += 5
        if length == 0:
            raise SerializationError("empty integer magnitude")
        _need(data, offset, length)
        payload = data[offset:offset + length]
        # Canonical form: minimal length (no leading zero except the
        # single-byte zero itself) and no negative zero.
        if length > 1 and payload[0] == 0:
            raise SerializationError("non-canonical integer padding")
        magnitude = int.from_bytes(payload, "big")
        if magnitude == 0 and negative:
            raise SerializationError("non-canonical negative zero")
        return (-magnitude if negative else magnitude), offset + length
    if tag == b"S":
        _need(data, offset, 4)
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        _need(data, offset, length)
        return data[offset:offset + length].decode("utf-8"), offset + length
    if tag == b"L":
        _need(data, offset, 4)
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        elements = []
        for _ in range(count):
            element, offset = _read(data, offset)
            elements.append(element)
        return elements, offset
    if tag == b"W":
        _need(data, offset, 8)
        count, width = struct.unpack_from(">II", data, offset)
        offset += 8
        if width == 0:
            raise SerializationError("zero-width integer list")
        end = offset + count * width
        _need(data, offset, count * width)
        return FixedWidthList(
            [int.from_bytes(data[start:start + width], "big")
             for start in range(offset, end, width)], width), end
    if tag == b"N":
        return None, offset
    raise SerializationError(f"unknown type tag {tag!r}")


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise SerializationError(
            f"truncated message: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
