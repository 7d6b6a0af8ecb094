"""Versioned link handshake for the daemon runtime.

Before any other byte flows on a TCP link, both ends exchange one hello
frame binding everything that must agree for the link to make sense:

- the runtime **protocol version** (wire format + handshake layout);
- the **session id** (empty on every link today: a link carries many
  sessions, each validated when it is submitted);
- the **pair id** (which unordered mesh pair a daemon link carries, or
  the client and daemon names of a submission link);
- the **party id** (which endpoint the peer claims to be);
- the **config digest** (SHA-256 over the canonical mesh spec: party
  names, listen ports, link behaviour, whether links authenticate);
- the endpoint **role** (``daemon`` or ``client``).

A mismatch on any field refuses the link with a goodbye naming the
field and both values, and the connection closes -- the failure mode is
an immediate, diagnosable refusal, never a mid-protocol desync where
two differently-configured parties exchange ciphertexts that decrypt to
garbage three rounds later.  Sessions are validated individually when
they are submitted (the daemons' per-session sync records).

Every endpoint -- the session client, a daemon dialing a peer, a daemon
accepting a peer or a client -- sends, reads and refuses hellos on
asyncio streams through the one set of helpers at the end of this
module.
"""

from __future__ import annotations

import asyncio
import hmac
from dataclasses import dataclass, replace
from typing import NoReturn

from repro.net.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_GOODBYE,
    FRAME_HELLO,
    ConnectionClosedError,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramingError,
    encode_frame,
    read_frame_async,
)
from repro.net.serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)

#: Bumped whenever the frame layout, the hello record, or the control
#: plane changes incompatibly.  3: the hello carries the endpoint
#: *role* and the wire grows the session-multiplexed ``m``/``c`` frame
#: kinds.  4: the hello carries an ``auth_tag`` (empty on
#: unauthenticated links) and authenticated links MAC every frame.
#: 5: the recovery epoch, the completed-pass count and the ``party``
#: role leave the hello, and the dedicated ``M`` message frame leaves
#: the wire.  6: protocol messages send ciphertext lists as the
#: serializer's fixed-width ``W`` lists, at their key's width.
#: 7: packed reply lists -- ``blinded_sums``, ``masked_sums`` and
#: ``masked_products`` carry one ciphertext per chunk of values, which
#: a v6 peer would read as a short list.
PROTOCOL_VERSION = 7

#: Endpoint roles.  ``daemon`` marks a resident daemon's pair links;
#: ``client`` marks a session-submission connection into a daemon.
ROLE_DAEMON = "daemon"
ROLE_CLIENT = "client"


class HandshakeError(RuntimeError):
    """The peer's hello disagrees with ours; the link was refused.

    Attributes:
        field_name: which hello field mismatched (``None`` when the
            failure was not a field comparison -- e.g. a malformed
            frame).
        ours / theirs: the two values of the mismatched field.
        peer: the endpoint the handshake was with, when the caller
            knows it (the client names the daemon it dialed).
    """

    def __init__(self, message: str, *, field_name: str | None = None,
                 ours=None, theirs=None, peer: str | None = None):
        super().__init__(message)
        self.field_name = field_name
        self.ours = ours
        self.theirs = theirs
        self.peer = peer


class HandshakePeerLost(HandshakeError):
    """The peer vanished mid-handshake (EOF/reset, no refusal record).

    Distinct from a refusal because it is *retryable*: a dialing daemon
    whose peer dropped the fresh connection (a peer still booting) re-
    dials instead of aborting the whole link-up.  A daemon that drops a
    hello whose MAC fails answers exactly this way, on purpose: a wrong
    PSK gets no oracle.
    """


@dataclass(frozen=True)
class Hello:
    """One endpoint's handshake record.

    ``auth_tag`` is the link-authentication field: on an authenticated
    link it is the hex HMAC (under the out-of-band PSK) over the
    record's seven *core* fields, computed by :meth:`authenticated` and
    verified by the validators.  It is belt-and-braces on top of the
    per-frame MAC -- it binds the hello's *content* under the PSK even
    if the framing layer is ever bypassed -- and stays empty (ignored)
    on unauthenticated links.
    """

    version: int
    session_id: str
    pair_left: str
    pair_right: str
    party_id: str
    config_digest: str
    role: str = ROLE_DAEMON
    auth_tag: str = ""

    def core_wire(self) -> bytes:
        """Serialized seven core fields -- what ``auth_tag`` signs."""
        return serialize_message([
            self.version, self.session_id, self.pair_left, self.pair_right,
            self.party_id, self.config_digest, self.role,
        ])

    def authenticated(self, authenticator) -> "Hello":
        """Copy with ``auth_tag`` filled from the link authenticator."""
        if authenticator is None:
            return self
        tag = authenticator.tag(FRAME_HELLO, self.core_wire()).hex()
        return replace(self, auth_tag=tag)

    def auth_tag_valid(self, authenticator) -> bool:
        """Constant-time check of ``auth_tag`` against the PSK."""
        expected = authenticator.tag(FRAME_HELLO, self.core_wire()).hex()
        return hmac.compare_digest(self.auth_tag, expected)

    def to_wire(self) -> bytes:
        return serialize_message([
            self.version, self.session_id, self.pair_left, self.pair_right,
            self.party_id, self.config_digest, self.role, self.auth_tag,
        ])

    @classmethod
    def from_wire(cls, payload: bytes) -> "Hello":
        try:
            fields = deserialize_message(payload)
        except (SerializationError, UnicodeDecodeError) as exc:
            raise HandshakeError(f"unreadable hello frame: {exc}") from exc
        if (not isinstance(fields, list) or len(fields) != 8
                or not isinstance(fields[0], int)
                or not all(isinstance(f, str) for f in fields[1:])):
            raise HandshakeError(
                f"malformed hello record: {fields!r}")
        return cls(version=fields[0], session_id=fields[1],
                   pair_left=fields[2], pair_right=fields[3],
                   party_id=fields[4], config_digest=fields[5],
                   role=fields[6], auth_tag=fields[7])


def hello_mismatch(mine: Hello, theirs: Hello, expected_peer: str,
                   authenticator=None) -> tuple[str, object, object] | None:
    """First binding mismatch between two daemons' hellos, or ``None``.

    Returns ``(field_name, ours, theirs)`` so both ends of the daemon's
    asyncio link-up refuse with identical diagnostics; a client checks
    a daemon's answer here too.  The config
    digest is compared constant-time (it is the one field an attacker
    could usefully probe byte-by-byte); with an ``authenticator``, the
    peer's ``auth_tag`` must also verify under the shared PSK.
    """
    for field_name, ours_value, theirs_value in (
            ("protocol version", mine.version, theirs.version),
            ("session id", mine.session_id, theirs.session_id),
            ("pair", (mine.pair_left, mine.pair_right),
             (theirs.pair_left, theirs.pair_right)),
            ("role", mine.role, theirs.role)):
        if ours_value != theirs_value:
            return field_name, ours_value, theirs_value
    if not hmac.compare_digest(mine.config_digest, theirs.config_digest):
        return "config digest", mine.config_digest, theirs.config_digest
    if theirs.party_id != expected_peer:
        return "party", expected_peer, theirs.party_id
    if authenticator is not None and not theirs.auth_tag_valid(authenticator):
        return "auth tag", "<valid HMAC under the shared PSK>", \
            theirs.auth_tag or "<missing>"
    return None


def client_hello_mismatch(theirs: Hello, config_digest: str,
                          authenticator=None,
                          ) -> tuple[str, object, object] | None:
    """What a daemon refuses on a client hello: version + spec digest.

    Client ids are unknown to the daemon in advance and scope nothing
    security-relevant, so they are never compared; per-session
    validation happens when a session is actually submitted.
    """
    if PROTOCOL_VERSION != theirs.version:
        return "protocol version", PROTOCOL_VERSION, theirs.version
    if not hmac.compare_digest(config_digest, theirs.config_digest):
        return "config digest", config_digest, theirs.config_digest
    if authenticator is not None and not theirs.auth_tag_valid(authenticator):
        return "auth tag", "<valid HMAC under the shared PSK>", \
            theirs.auth_tag or "<missing>"
    return None


# -- the hello exchange on asyncio streams: client, dial and accept -------

async def _send_frame(writer: asyncio.StreamWriter, kind: bytes,
                      payload: bytes,
                      authenticator: FrameAuthenticator | None = None,
                      ) -> None:
    """Write one frame -- sealed on an authenticated link -- in a single
    write, so frames from concurrent tasks never interleave, and wait
    for the stream to drain.  A frame over the reader's ceiling fails
    here, at the producing call site, with the real cause."""
    if authenticator is not None:
        payload = authenticator.seal(kind, payload)
    if 1 + len(payload) > DEFAULT_MAX_FRAME_BYTES:
        raise FramingError(
            f"frame of {1 + len(payload)} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME_BYTES}-byte ceiling")
    writer.write(encode_frame(kind, payload))
    await writer.drain()


async def read_hello_async(reader: asyncio.StreamReader, name: str,
                           authenticator: FrameAuthenticator | None = None,
                           ) -> Hello:
    """Read one hello frame; map EOF/goodbye to the handshake errors."""
    try:
        kind, payload = await read_frame_async(
            reader, name=name, authenticator=authenticator)
    except FrameAuthenticationError:
        # Never fold a MAC failure into "peer vanished": that path is
        # retried, and an attacker (or wrong PSK) re-fails identically.
        raise
    except (ConnectionClosedError, FramingError) as exc:
        raise HandshakePeerLost(
            f"{name}: peer vanished during the handshake ({exc})") from exc
    if kind == FRAME_GOODBYE:
        raise HandshakeError(
            f"{name}: peer refused the link: "
            f"{payload.decode('utf-8', 'replace')}")
    if kind != FRAME_HELLO:
        raise HandshakeError(
            f"{name}: expected a hello frame, got kind {kind!r}")
    return Hello.from_wire(payload)


async def _refuse_stream(writer: asyncio.StreamWriter, name: str,
                         reason: str,
                         authenticator: FrameAuthenticator | None = None,
                         **details) -> NoReturn:
    """Refuse a link: a goodbye naming ``reason``, the stream closed,
    and :class:`HandshakeError` raised with ``details`` (``field_name``,
    ``ours``, ``theirs``, ``peer``)."""
    try:
        await _send_frame(writer, FRAME_GOODBYE,
                          f"handshake refused: {reason}".encode(),
                          authenticator)
    except OSError:
        pass
    writer.close()
    raise HandshakeError(f"{name}: {reason}", **details)


async def _refuse_mismatch(writer: asyncio.StreamWriter, name: str,
                           mismatch: tuple[str, object, object], other: str,
                           authenticator: FrameAuthenticator | None = None,
                           peer: str | None = None) -> NoReturn:
    """:func:`_refuse_stream` for a ``(field_name, ours, theirs)``
    mismatch in the hello of the ``other`` end."""
    field_name, ours, theirs = mismatch
    await _refuse_stream(
        writer, name,
        f"{field_name} mismatch: ours {ours!r}, {other} {theirs!r}",
        authenticator, field_name=field_name, ours=ours, theirs=theirs,
        peer=peer)


async def perform_client_handshake(reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter, *,
                                   name: str, client_id: str,
                                   daemon_id: str, config_digest: str,
                                   timeout_s: float,
                                   authenticator: FrameAuthenticator
                                   | None = None) -> Hello:
    """Client side of a session-submission link into a daemon.

    The client binds the protocol version and the mesh-spec digest (not
    a run manifest -- sessions are validated individually when they are
    submitted).  The daemon's answer must carry its own party id with
    the ``daemon`` role and the same digest, within ``timeout_s``.  A
    daemon that drops the connection, or stays silent, raises
    :class:`HandshakePeerLost` -- a daemon drops a hello whose MAC
    fails.
    """
    mine = Hello(version=PROTOCOL_VERSION, session_id="",
                 pair_left=client_id, pair_right=daemon_id,
                 party_id=client_id, config_digest=config_digest,
                 role=ROLE_CLIENT).authenticated(authenticator)
    try:
        await _send_frame(writer, FRAME_HELLO, mine.to_wire(), authenticator)
        async with asyncio.timeout(timeout_s):
            theirs = await read_hello_async(reader, name, authenticator)
    except HandshakeError as exc:
        exc.peer = daemon_id
        raise
    except TimeoutError as exc:
        raise HandshakePeerLost(
            f"{name}: the daemon sent no hello within {timeout_s}s",
            peer=daemon_id) from exc
    except OSError as exc:
        raise HandshakePeerLost(
            f"{name}: daemon vanished during the handshake ({exc})",
            peer=daemon_id) from exc
    # The daemon's answer is our hello in the daemon's role and name.
    mismatch = hello_mismatch(replace(mine, role=ROLE_DAEMON), theirs,
                              daemon_id, authenticator)
    if mismatch is not None:
        await _refuse_mismatch(writer, name, mismatch, "daemon",
                               authenticator, peer=daemon_id)
    return theirs
