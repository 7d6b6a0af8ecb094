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
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, replace

from repro.net.framing import (
    FRAME_GOODBYE,
    FRAME_HELLO,
    ConnectionClosedError,
    FrameAuthenticationError,
    FramedConnection,
    FramingError,
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


def read_hello(connection: FramedConnection) -> Hello:
    """Read one hello frame; map EOF/goodbye to the handshake errors.

    The second half of :func:`perform_client_handshake`; the daemon's
    asyncio accept loop reads hellos with
    :func:`~repro.runtime.daemon.read_hello_async` instead.
    """
    try:
        kind, payload = connection.read_frame()
    except FrameAuthenticationError:
        # Not a vanished peer: the peer is present but fails the MAC
        # (tamper or PSK mismatch).  Let the classifier see the real
        # cause -- fatal, never retried.
        raise
    except (ConnectionClosedError, FramingError) as exc:
        raise HandshakePeerLost(
            f"{connection.name}: peer vanished during the handshake "
            f"({exc})") from exc
    if kind == FRAME_GOODBYE:
        raise HandshakeError(
            f"{connection.name}: peer refused the link: "
            f"{payload.decode('utf-8', 'replace')}")
    if kind != FRAME_HELLO:
        _refuse(connection,
                f"expected a hello frame, got kind {kind!r}")
    return Hello.from_wire(payload)


def hello_mismatch(mine: Hello, theirs: Hello, expected_peer: str,
                   authenticator=None) -> tuple[str, object, object] | None:
    """First binding mismatch between two daemons' hellos, or ``None``.

    Returns ``(field_name, ours, theirs)`` so both ends of the daemon's
    asyncio link-up refuse with identical diagnostics.  The config
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


def perform_client_handshake(connection: FramedConnection, *,
                             client_id: str, daemon_id: str,
                             config_digest: str) -> Hello:
    """Client side of a session-submission link into a daemon.

    The client binds the protocol version and the mesh-spec digest (not
    a run manifest -- sessions are validated individually when they are
    submitted).  The daemon's answer must carry its own party id with
    the ``daemon`` role and the same digest.
    """
    mine = Hello(version=PROTOCOL_VERSION, session_id="",
                 pair_left=client_id, pair_right=daemon_id,
                 party_id=client_id, config_digest=config_digest,
                 role=ROLE_CLIENT).authenticated(connection.authenticator)
    try:
        connection.write_frame(FRAME_HELLO, mine.to_wire())
    except (ConnectionClosedError, FramingError) as exc:
        raise HandshakePeerLost(
            f"{connection.name}: daemon vanished during the handshake "
            f"({exc})", peer=daemon_id) from exc
    try:
        theirs = read_hello(connection)
    except HandshakeError as exc:
        exc.peer = daemon_id
        raise
    checks = [
        ("protocol version", PROTOCOL_VERSION, theirs.version,
         PROTOCOL_VERSION == theirs.version),
        ("role", ROLE_DAEMON, theirs.role, ROLE_DAEMON == theirs.role),
        ("config digest", config_digest, theirs.config_digest,
         hmac.compare_digest(config_digest, theirs.config_digest)),
        ("party", daemon_id, theirs.party_id,
         daemon_id == theirs.party_id),
    ]
    if connection.authenticator is not None:
        checks.append(
            ("auth tag", "<valid HMAC under the shared PSK>",
             theirs.auth_tag or "<missing>",
             theirs.auth_tag_valid(connection.authenticator)))
    for field_name, ours_value, theirs_value, matches in checks:
        if not matches:
            _refuse(connection,
                    f"{field_name} mismatch: ours {ours_value!r}, "
                    f"daemon {theirs_value!r}",
                    field_name=field_name, ours=ours_value,
                    theirs=theirs_value, peer=daemon_id)
    return theirs


def _refuse(connection: FramedConnection, reason: str, *,
            field_name: str | None = None, ours=None, theirs=None,
            peer: str | None = None) -> None:
    try:
        connection.write_goodbye(f"handshake refused: {reason}")
    except ConnectionClosedError:
        pass
    connection.close()
    raise HandshakeError(f"{connection.name}: {reason}",
                         field_name=field_name, ours=ours, theirs=theirs,
                         peer=peer)
