"""Versioned link handshake for the socket runtime.

Before any protocol byte flows on a TCP link, both ends exchange one
hello frame binding everything that must agree for the link to make
sense:

- the runtime **protocol version** (wire format + handshake layout);
- the **session id** (one orchestrated run = one session; a stray party
  from yesterday's run cannot join today's);
- the **pair id** (which unordered mesh pair this socket carries);
- the **party id** (which endpoint of the pair the peer claims to be);
- the **config digest** (SHA-256 over the canonical run manifest: party
  names, seeds, counts, every protocol parameter);
- the **epoch** (which link-up attempt of the session this is: 0 for
  the initial fleet, +1 per recovery cycle -- a stale process still
  holding last epoch's state cannot rejoin the recovered mesh).

A mismatch on any field raises :class:`HandshakeError` naming the field
and both values, and the connection closes cleanly -- the failure mode
is an immediate, diagnosable refusal, never a mid-protocol desync where
two differently-configured parties exchange ciphertexts that decrypt to
garbage three rounds later.

One hello field is *informational* rather than refused on mismatch:
``passes_done``, the sender's count of completed protocol passes.  After
a recovery the parties legitimately disagree (a re-spawned party may
have checkpointed fewer passes than a survivor), and the mesh resumes
at the *minimum* across all links -- see
:meth:`repro.runtime.party.PartyProcess` for the negotiation.
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
#: plane changes incompatibly.  2: the hello carries the recovery epoch
#: and the sender's completed-pass count.  3: the hello carries the
#: endpoint *role* (party / daemon / client) and the wire grows the
#: session-multiplexed ``m``/``c`` frame kinds.  4: the hello carries
#: an ``auth_tag`` (empty on unauthenticated links) and authenticated
#: links MAC every frame.
PROTOCOL_VERSION = 4

#: Endpoint roles carried in the v3 hello.  ``party`` is the PR-5
#: single-session party process (both ends of a mesh link).  ``daemon``
#: marks a resident multi-session daemon's pair links, where the hello
#: binds the *mesh spec* digest instead of a run manifest (sessions are
#: validated individually later, via per-session sync records).
#: ``client`` marks a session-submission connection into a daemon.
ROLE_PARTY = "party"
ROLE_DAEMON = "daemon"
ROLE_CLIENT = "client"


class HandshakeError(RuntimeError):
    """The peer's hello disagrees with ours; the link was refused.

    Attributes:
        field_name: which hello field mismatched (``None`` when the
            failure was not a field comparison -- e.g. a malformed
            frame).
        ours / theirs: the two values of the mismatched field, so a
            caller can react to *what* diverged (the recovery loop
            adopts the higher epoch instead of dying on a lower one).
    """

    def __init__(self, message: str, *, field_name: str | None = None,
                 ours=None, theirs=None):
        super().__init__(message)
        self.field_name = field_name
        self.ours = ours
        self.theirs = theirs


class HandshakePeerLost(HandshakeError):
    """The peer vanished mid-handshake (EOF/reset, no refusal record).

    Distinct from a refusal because it is *retryable*: a dialing party
    whose peer dropped the fresh connection (crash between accept and
    hello, an injected connection drop) re-dials instead of aborting
    the whole link-up.
    """


@dataclass(frozen=True)
class Hello:
    """One endpoint's handshake record.

    ``auth_tag`` is the v4 link-authentication field: on an
    authenticated link it is the hex HMAC (under the out-of-band PSK)
    over the record's nine *core* fields, computed by
    :meth:`authenticated` and verified by the validators.  It is
    belt-and-braces on top of the per-frame MAC -- it binds the hello's
    *content* under the PSK even if the framing layer is ever bypassed
    -- and stays empty (ignored) on unauthenticated links.
    """

    version: int
    session_id: str
    pair_left: str
    pair_right: str
    party_id: str
    config_digest: str
    epoch: int = 0
    passes_done: int = 0
    role: str = ROLE_PARTY
    auth_tag: str = ""

    def core_wire(self) -> bytes:
        """Serialized nine core fields -- what ``auth_tag`` signs."""
        return serialize_message([
            self.version, self.session_id, self.pair_left, self.pair_right,
            self.party_id, self.config_digest, self.epoch, self.passes_done,
            self.role,
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
            self.party_id, self.config_digest, self.epoch, self.passes_done,
            self.role, self.auth_tag,
        ])

    @classmethod
    def from_wire(cls, payload: bytes) -> "Hello":
        try:
            fields = deserialize_message(payload)
        except (SerializationError, UnicodeDecodeError) as exc:
            raise HandshakeError(f"unreadable hello frame: {exc}") from exc
        # A v3 peer sends nine elements (no auth_tag); accept both
        # shapes so the mismatch surfaces as a clean "protocol version"
        # refusal instead of a malformed-record error.
        if (not isinstance(fields, list) or len(fields) not in (9, 10)
                or not isinstance(fields[0], int)
                or not all(isinstance(f, str) for f in fields[1:6])
                or not isinstance(fields[6], int)
                or not isinstance(fields[7], int)
                or not isinstance(fields[8], str)
                or (len(fields) == 10 and not isinstance(fields[9], str))):
            raise HandshakeError(
                f"malformed hello record: {fields!r}")
        return cls(version=fields[0], session_id=fields[1],
                   pair_left=fields[2], pair_right=fields[3],
                   party_id=fields[4], config_digest=fields[5],
                   epoch=fields[6], passes_done=fields[7],
                   role=fields[8],
                   auth_tag=fields[9] if len(fields) == 10 else "")


def perform_handshake(connection: FramedConnection, mine: Hello,
                      expected_peer: str) -> Hello:
    """Exchange hellos on a fresh link; validate or refuse.

    Both sides send first and read second (the frames cross in flight,
    so neither order can deadlock).  On any mismatch a goodbye frame
    with the refusal reason is sent best-effort before raising, so the
    peer's own handshake fails with the same diagnosis instead of a
    bare EOF.

    Returns the peer's hello: callers read ``passes_done`` from it (the
    one informational, never-refused field) to negotiate where a
    recovered mesh resumes.
    """
    mine = mine.authenticated(connection.authenticator)
    try:
        connection.write_frame(FRAME_HELLO, mine.to_wire())
    except (ConnectionClosedError, FramingError) as exc:
        raise HandshakePeerLost(
            f"{connection.name}: peer vanished during the handshake "
            f"({exc})") from exc
    theirs = read_hello(connection)
    _validate_symmetric(connection, mine, theirs, expected_peer)
    return theirs


def read_hello(connection: FramedConnection) -> Hello:
    """Read one hello frame; map EOF/goodbye to the handshake errors.

    The second half of both dialing handshakes (:func:`perform_handshake`
    and :func:`perform_client_handshake`); the daemon's asyncio accept
    loop reads hellos with :func:`~repro.runtime.daemon.read_hello_async`
    instead.
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
    """First binding mismatch between two symmetric hellos, or ``None``.

    Returns ``(field_name, ours, theirs)`` so both the sync
    :class:`~repro.net.framing.FramedConnection` path and the daemon's
    asyncio accept loop refuse with identical diagnostics.  The config
    digest is compared constant-time (it is the one field an attacker
    could usefully probe byte-by-byte); with an ``authenticator``, the
    peer's ``auth_tag`` must also verify under the shared PSK.
    """
    for field_name, ours_value, theirs_value in (
            ("protocol version", mine.version, theirs.version),
            ("session id", mine.session_id, theirs.session_id),
            ("pair", (mine.pair_left, mine.pair_right),
             (theirs.pair_left, theirs.pair_right)),
            ("epoch", mine.epoch, theirs.epoch),
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


def _validate_symmetric(connection: FramedConnection, mine: Hello,
                        theirs: Hello, expected_peer: str) -> None:
    mismatch = hello_mismatch(mine, theirs, expected_peer,
                              connection.authenticator)
    if mismatch is None:
        return
    field_name, ours_value, theirs_value = mismatch
    if field_name == "party":
        _refuse(connection,
                f"party mismatch: expected {ours_value!r} on the far "
                f"end, peer claims {theirs_value!r}",
                field_name=field_name, ours=ours_value,
                theirs=theirs_value)
    _refuse(connection,
            f"{field_name} mismatch: ours {ours_value!r}, "
            f"peer {theirs_value!r}",
            field_name=field_name, ours=ours_value, theirs=theirs_value)


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
            f"({exc})") from exc
    theirs = read_hello(connection)
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
                    theirs=theirs_value)
    return theirs


def _refuse(connection: FramedConnection, reason: str, *,
            field_name: str | None = None, ours=None, theirs=None) -> None:
    try:
        connection.write_goodbye(f"handshake refused: {reason}")
    except ConnectionClosedError:
        pass
    connection.close()
    raise HandshakeError(f"{connection.name}: {reason}",
                         field_name=field_name, ours=ours, theirs=theirs)
