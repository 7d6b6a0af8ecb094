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

:class:`FramedConnection` wraps a connected blocking socket with these
frames, a receive timeout, a maximum frame size (malformed length
prefixes must not trigger gigabyte allocations), and close-versus-
timeout error mapping; the session client uses it.  The daemons read
frames on their event loops with :func:`read_frame_async`.

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
import socket
import struct
import threading

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


class ReceiveTimeout(FramingError):
    """No frame arrived within the configured timeout."""


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
    """The exact bytes :meth:`FramedConnection.write_frame` emits.

    The daemon hubs encode every frame here; the ``truncate`` fault
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

    The event-loop twin of :meth:`FramedConnection.read_frame`, with the
    same length/kind validation; EOF maps to
    :class:`ConnectionClosedError` so loop-side readers classify peer
    death exactly like the blocking client does.  Timeouts are the
    caller's concern (``asyncio.wait_for`` or none at all -- a daemon's
    demux reader legitimately idles between sessions).  When an
    ``authenticator`` is given, the trailing MAC is verified and
    stripped before the payload is returned -- and in particular before
    any mux demultiplexing parses it.
    """
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
        if exc.partial:
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


class FramedConnection:
    """Typed length-prefixed frames over one connected socket.

    Writes are locked (the client's submitting threads share one
    connection per daemon); reads are single-consumer by design --
    exactly one logical reader per link at any time -- and locked anyway
    so a misuse corrupts nothing.
    """

    def __init__(self, sock: socket.socket, *,
                 timeout_s: float = 30.0,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 name: str = "link",
                 authenticator: FrameAuthenticator | None = None):
        if timeout_s <= 0:
            raise FramingError(f"timeout_s must be > 0, got {timeout_s}")
        if max_frame_bytes < 1:
            raise FramingError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}")
        self._sock = sock
        self.timeout_s = timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.name = name
        #: Optional per-frame MAC layer; sealing happens on write,
        #: verification on read, both below the kind/payload interface
        #: so callers never see tags.
        self.authenticator = authenticator
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        # Partial-read buffer: bytes consumed from the socket stay here
        # until a whole frame is available, so a ReceiveTimeout never
        # loses data and read_frame is safely retryable mid-frame.
        self._pending = b""
        self._closed = False
        sock.settimeout(timeout_s)

    # -- writing -----------------------------------------------------------

    def write_frame(self, kind: bytes, payload: bytes = b"") -> None:
        if kind not in _FRAME_KINDS:
            raise FramingError(f"unknown frame kind {kind!r}")
        if self.authenticator is not None:
            payload = self.authenticator.seal(kind, payload)
        if 1 + len(payload) > self.max_frame_bytes:
            # Mirror of the read-side ceiling: fail at the producing call
            # site with the real cause, not at the receiver as a
            # malformed-frame desync.
            raise FramingError(
                f"{self.name}: frame of {1 + len(payload)} bytes exceeds "
                f"the {self.max_frame_bytes}-byte ceiling; raise "
                f"max_frame_bytes on both ends for batches this large")
        frame = encode_frame(kind, payload)
        with self._send_lock:
            if self._closed:
                raise ConnectionClosedError(
                    f"{self.name}: write on closed connection")
            try:
                self._sock.sendall(frame)
            except (BrokenPipeError, ConnectionResetError, OSError) as exc:
                raise ConnectionClosedError(
                    f"{self.name}: peer gone while writing "
                    f"{kind!r} frame ({exc})") from exc

    def write_goodbye(self, reason: str = "done") -> None:
        self.write_frame(FRAME_GOODBYE, reason.encode("utf-8"))

    # -- reading -----------------------------------------------------------

    def _fill(self, count: int, context: str) -> None:
        """Grow the pending buffer to ``count`` bytes without consuming.

        A timeout raises :class:`ReceiveTimeout` but *keeps* whatever
        arrived -- the next call resumes where this one stopped, so a
        frame that straddles a timeout window (slow peer, split TCP
        segments) is never corrupted by a retry.  EOF with bytes already
        buffered means the peer died with a frame in flight -- a
        connection loss, not a protocol bug.
        """
        while len(self._pending) < count:
            try:
                chunk = self._sock.recv(count - len(self._pending))
            except socket.timeout:
                raise ReceiveTimeout(
                    f"{self.name}: no data for {self.timeout_s}s while "
                    f"reading {context}") from None
            except (ConnectionResetError, OSError) as exc:
                raise ConnectionClosedError(
                    f"{self.name}: connection lost while reading "
                    f"{context} ({exc})") from exc
            if not chunk:
                if self._pending:
                    raise ConnectionClosedError(
                        f"{self.name}: stream ended mid-frame while "
                        f"reading {context} (peer died with a frame in "
                        f"flight)")
                raise ConnectionClosedError(
                    f"{self.name}: peer closed the connection")
            self._pending += chunk

    def read_frame(self) -> tuple[bytes, bytes]:
        """Read one ``(kind, payload)`` frame, blocking up to the timeout.

        Retryable after :class:`ReceiveTimeout`: partially received
        bytes stay buffered and the next call resumes the same frame.
        """
        with self._recv_lock:
            self._fill(_LENGTH.size, "a frame length")
            (length,) = _LENGTH.unpack_from(self._pending)
            if length < 1:
                raise FramingError(
                    f"{self.name}: frame length {length} < 1")
            if length > self.max_frame_bytes:
                raise FramingError(
                    f"{self.name}: frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte ceiling")
            self._fill(_LENGTH.size + length, "a frame body")
            body = self._pending[_LENGTH.size:_LENGTH.size + length]
            self._pending = self._pending[_LENGTH.size + length:]
            kind, payload = body[:1], body[1:]
            if kind not in _FRAME_KINDS:
                raise FramingError(
                    f"{self.name}: unknown frame kind {kind!r}")
            if self.authenticator is not None:
                payload = self.authenticator.open(kind, payload,
                                                  name=self.name)
            return kind, payload

    def close(self) -> None:
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed
