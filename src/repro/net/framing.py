"""Length-prefixed frames over a byte stream (the TCP wire format).

Everything the daemon runtime puts on a TCP connection travels as one
*frame*::

    4-byte big-endian frame length | 1 kind byte | payload

The length counts the kind byte plus the payload, so an empty payload
frames as ``00 00 00 01 <kind>``.  Five kinds exist:

- ``H`` (hello) -- the versioned handshake record exchanged before any
  other traffic (see :mod:`repro.runtime.handshake`).
- ``C`` (control) -- a client-plane record (submit a session, a
  session's report or failure, metrics, shutdown), encoded with
  :func:`serialize_message`.
- ``X`` (goodbye) -- clean close announcement with a reason string, so
  the peer can distinguish an orderly teardown from a crash.

The two *multiplexed* kinds carry the pair links between daemons, where
one persistent connection per party-pair carries interleaved frames
from many concurrent clustering sessions:

- ``m`` (mux message) -- one protocol message with a session tag::

      2-byte tag length | session id (UTF-8) | message payload

  The message payload (:func:`encode_message_payload`) is a label --
  what the channel layer calls the protocol-phase label -- followed by
  the *exact* :mod:`repro.net.serialization` wire bytes the in-process
  fabric carries.  Framing adds routing, never re-encodes, so a daemon
  run and an in-process run serialize every value identically.
- ``c`` (mux control) -- a session's runtime control record (the
  session sync) with the same session-tag prefix.  Control records are
  **not** protocol messages: they never enter a channel's stats or
  transcript.

Every endpoint -- the daemons and the session client -- reads frames on
an event loop with :func:`read_frame_async`, which refuses a length
prefix above a ceiling before allocating anything.

Link authentication
-------------------

When a :class:`FrameAuthenticator` is attached, every frame's payload
carries a trailing 32-byte HMAC-SHA256 tag computed from an
out-of-band pre-shared key over ``context | kind | payload``.  The
``context`` (the mesh-spec digest) is known a priori on both ends --
there is no key bootstrap inside the channel -- and makes a frame
replayed from a *different* mesh fail verification even under the same
PSK.  Tags
are verified with :func:`hmac.compare_digest` before a payload reaches
any parser; failure raises :class:`FrameAuthenticationError`, which the
runtime classifies as **fatal** (an authentication failure is never
retried against the retry budget).  The MAC authenticates and
integrity-protects; it does not encrypt -- see DESIGN.md's threat
model for what that buys and what it does not.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import struct

FRAME_HELLO = b"H"
FRAME_CONTROL = b"C"
FRAME_GOODBYE = b"X"
FRAME_MUX_MESSAGE = b"m"
FRAME_MUX_CONTROL = b"c"

_FRAME_KINDS = (FRAME_HELLO, FRAME_CONTROL, FRAME_GOODBYE,
                FRAME_MUX_MESSAGE, FRAME_MUX_CONTROL)

#: Frame kinds that carry a session tag (see :func:`encode_mux_payload`).
MUX_KINDS = (FRAME_MUX_MESSAGE, FRAME_MUX_CONTROL)

# Generous ceiling: the largest legitimate frames are ciphertext batches
# (a few MB at realistic key sizes and batch widths).  A corrupt length
# prefix above this fails loudly instead of allocating.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FramingError(RuntimeError):
    """Malformed frame: bad kind, oversized length, or a short read."""


class ConnectionClosedError(FramingError):
    """The stream ended (EOF or reset) where a frame was expected."""


class FrameAuthenticationError(FramingError):
    """A frame's MAC failed verification (tamper, truncation, replay
    from another session, or a pre-shared-key mismatch).

    Subclasses :class:`FramingError` so generic plumbing treats it as a
    wire-level failure, but the runtime's failure classifier matches it
    *first* and maps it to a fatal, never-retried cause: retrying an
    authentication failure cannot succeed and would burn the recovery
    budget against an active attacker or a misconfigured fleet.
    """


#: Length of the per-frame HMAC-SHA256 tag appended to sealed payloads.
MAC_BYTES = 32


class FrameAuthenticator:
    """Per-frame HMAC sealing/verification for one authenticated link.

    Args:
        psk: the out-of-band pre-shared key (text or bytes).  Never
            serialized anywhere; both ends must receive it through a
            channel outside the mesh (environment, CLI flag).
        context: public per-link binding mixed into every tag -- the
            mesh-spec digest for daemon pair and client links.  Both
            ends know it before connecting, so authentication needs no
            in-band negotiation, and a frame captured on one mesh fails
            verification when replayed into another even under the same
            PSK.
    """

    def __init__(self, psk: str | bytes, context: str):
        if not psk:
            raise FramingError("link authentication needs a non-empty PSK")
        raw = psk.encode("utf-8") if isinstance(psk, str) else bytes(psk)
        # Hash the PSK into a fixed-width HMAC key so arbitrary-length
        # passphrases behave identically and the raw secret is not kept
        # on the instance.
        self._key = hashlib.sha256(b"repro-link-psk|" + raw).digest()
        self.context = context
        self._context_bytes = context.encode("utf-8")

    def tag(self, kind: bytes, payload: bytes) -> bytes:
        """The 32-byte MAC over ``context | kind | payload``."""
        return hmac.new(self._key,
                        self._context_bytes + b"|" + kind + payload,
                        hashlib.sha256).digest()

    def seal(self, kind: bytes, payload: bytes) -> bytes:
        """Payload with its tag appended (what goes on the wire)."""
        return payload + self.tag(kind, payload)

    def open(self, kind: bytes, sealed: bytes, *,
             name: str = "link") -> bytes:
        """Verify and strip the trailing tag; raise on any mismatch."""
        if len(sealed) < MAC_BYTES:
            raise FrameAuthenticationError(
                f"{name}: authenticated {kind!r} frame of {len(sealed)} "
                f"bytes is shorter than the {MAC_BYTES}-byte MAC")
        payload, received = sealed[:-MAC_BYTES], sealed[-MAC_BYTES:]
        if not hmac.compare_digest(received, self.tag(kind, payload)):
            raise FrameAuthenticationError(
                f"{name}: MAC verification failed on a {kind!r} frame "
                f"(tampered frame, cross-session replay, or pre-shared "
                f"key mismatch)")
        return payload


def encode_frame(kind: bytes, payload: bytes = b"") -> bytes:
    """The exact bytes of one frame on the wire.

    Every endpoint encodes its frames here; the ``truncate`` fault
    (``repro.runtime.faults``) writes a prefix of one, so the receiver
    sees the stream end mid-frame -- the connection-loss shape the
    framing layer distinguishes from a timeout.
    """
    if kind not in _FRAME_KINDS:
        raise FramingError(f"unknown frame kind {kind!r}")
    return _LENGTH.pack(1 + len(payload)) + kind + payload


def encode_message_payload(label: str, wire: bytes) -> bytes:
    """Message payload of an ``m`` frame: 2-byte label length, label,
    wire bytes."""
    encoded = label.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise FramingError(f"label too long ({len(encoded)} bytes)")
    return struct.pack(">H", len(encoded)) + encoded + wire


def decode_message_payload(payload: bytes) -> tuple[str, bytes]:
    """Inverse of :func:`encode_message_payload`."""
    if len(payload) < 2:
        raise FramingError("message frame too short for a label length")
    (label_length,) = struct.unpack_from(">H", payload, 0)
    if len(payload) < 2 + label_length:
        raise FramingError(
            f"message frame truncated: label needs {label_length} bytes, "
            f"have {len(payload) - 2}")
    try:
        label = payload[2:2 + label_length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FramingError(f"frame label is not valid UTF-8: {exc}") from exc
    return label, payload[2 + label_length:]


def encode_mux_payload(session_id: str, inner: bytes) -> bytes:
    """Payload of an ``m``/``c`` frame: session tag + untouched inner bytes.

    ``inner`` is the message payload (``m``) or the serialized control
    record (``c``), untouched -- the tag is routing only, so the
    protocol bytes under multiplexing are byte-identical to an
    in-process run's.
    """
    tag = session_id.encode("utf-8")
    if not tag:
        raise FramingError("mux frames need a non-empty session id")
    if len(tag) > 0xFFFF:
        raise FramingError(f"session id too long ({len(tag)} bytes)")
    return struct.pack(">H", len(tag)) + tag + inner


def decode_mux_payload(payload: bytes) -> tuple[str, bytes]:
    """Inverse of :func:`encode_mux_payload`."""
    if len(payload) < 2:
        raise FramingError("mux frame too short for a session-tag length")
    (tag_length,) = struct.unpack_from(">H", payload, 0)
    if tag_length == 0:
        raise FramingError("mux frame has an empty session tag")
    if len(payload) < 2 + tag_length:
        raise FramingError(
            f"mux frame truncated: session tag needs {tag_length} bytes, "
            f"have {len(payload) - 2}")
    try:
        session_id = payload[2:2 + tag_length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FramingError(
            f"mux session tag is not valid UTF-8: {exc}") from exc
    return session_id, payload[2 + tag_length:]


async def read_frame_async(reader: asyncio.StreamReader, *,
                           max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                           name: str = "link",
                           authenticator: FrameAuthenticator | None = None,
                           ) -> tuple[bytes, bytes]:
    """One ``(kind, payload)`` frame from an asyncio stream.

    A length below 1 or above ``max_frame_bytes`` and an unknown kind
    raise :class:`FramingError`; EOF, at a frame boundary or mid-frame,
    and a reset raise :class:`ConnectionClosedError`, so every reader
    classifies peer death alike.  Timeouts are the caller's concern
    (``asyncio.timeout`` or none at all -- a daemon's demux reader
    legitimately idles between sessions).  When an ``authenticator`` is
    given, the trailing MAC is verified and stripped before the payload
    is returned -- and in particular before any mux demultiplexing
    parses it.
    """
    header = b""
    try:
        header = await reader.readexactly(_LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        if length < 1:
            raise FramingError(f"{name}: frame length {length} < 1")
        if length > max_frame_bytes:
            raise FramingError(
                f"{name}: frame length {length} exceeds the "
                f"{max_frame_bytes}-byte ceiling")
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        if exc.partial or header:
            raise ConnectionClosedError(
                f"{name}: stream ended mid-frame (peer died with a "
                f"frame in flight)") from exc
        raise ConnectionClosedError(
            f"{name}: peer closed the connection") from exc
    except (ConnectionResetError, OSError) as exc:
        raise ConnectionClosedError(
            f"{name}: connection lost while reading a frame "
            f"({exc})") from exc
    kind, payload = body[:1], body[1:]
    if kind not in _FRAME_KINDS:
        raise FramingError(f"{name}: unknown frame kind {kind!r}")
    if authenticator is not None:
        payload = authenticator.open(kind, payload, name=name)
    return kind, payload
