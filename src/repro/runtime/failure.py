"""Typed failures of the distributed runtime.

A failed session is described by one :class:`FailureReport` per party
that failed it: the party, a stable *cause* string, and the
*classification* the orchestrator acts on:

- ``retryable`` -- transient process or network failures (a crashed
  daemon, a timeout, a lost connection).  ``repro orchestrate`` re-runs
  the whole session on a fresh daemon fleet under its retry budget.
- ``fatal`` -- determinism or configuration violations (a desync, a
  refused handshake, a failed MAC).  A re-run fails identically and
  could mask a correctness bug, so the run stops with the report
  attached.

The daemon that fails a session classifies it (it knows *why*,
:func:`classify_exception`) and sends the cause with its
``session_failed`` record; the client rebuilds the report, and the
orchestrator decides (it knows the budget).  A daemon that dies too
hard to say anything -- ``os._exit`` from an injected kill, a signal --
is classified from its exit code alone, as a retryable ``crash``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.framing import (
    ConnectionClosedError,
    FrameAuthenticationError,
    FramingError,
)
from repro.net.serialization import SerializationError
from repro.net.transport import (
    ProtocolDesyncError,
    TransportClosedError,
    TransportTimeoutError,
)
from repro.runtime.handshake import HandshakeError, HandshakePeerLost
from repro.runtime.mirror import MirrorChannelError

#: Classifications the orchestrator's retry loop understands.
RETRYABLE = "retryable"
FATAL = "fatal"

#: Causes, stable strings for tests, the wire and the CLI summary.
CAUSE_CRASH = "crash"                       # the daemon process exited
CAUSE_TIMEOUT = "timeout"                   # peer silent past the deadline
CAUSE_CONNECTION_LOST = "connection-lost"   # EOF/reset mid-protocol
CAUSE_REJECTED = "rejected"                 # admission refused the session
CAUSE_HANDSHAKE_REFUSED = "handshake-refused"
CAUSE_DESYNC = "desync"                     # protocol-level label mismatch
CAUSE_AUTH_FAILED = "auth-failed"           # frame MAC / PSK rejection
CAUSE_INTERNAL = "internal-error"

_FATAL_CAUSES = frozenset({
    CAUSE_DESYNC,
    CAUSE_HANDSHAKE_REFUSED,
    # A MAC failure is either an attacker or a misconfigured PSK; a
    # re-run re-fails identically, so spending the retry budget on it
    # would only delay (and blur) the diagnosis.
    CAUSE_AUTH_FAILED,
    CAUSE_INTERNAL,
})


def classification_of(cause: str) -> str:
    """The classification of a cause string."""
    return FATAL if cause in _FATAL_CAUSES else RETRYABLE


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map a session failure to its ``(cause, classification)``.

    Order matters: the framing and transport hierarchies overlap
    (``ConnectionClosedError`` subclasses ``FramingError``;
    ``TransportTimeoutError`` subclasses ``ProtocolDesyncError``;
    ``HandshakePeerLost`` subclasses ``HandshakeError``), so the
    retryable leaves are matched before their fatal ancestors.
    """
    if isinstance(exc, FrameAuthenticationError):
        # Before every retryable branch: it subclasses FramingError.
        cause = CAUSE_AUTH_FAILED
    elif isinstance(exc, HandshakePeerLost):
        cause = CAUSE_CONNECTION_LOST
    elif isinstance(exc, HandshakeError):
        cause = CAUSE_HANDSHAKE_REFUSED
    elif isinstance(exc, TransportTimeoutError):
        cause = CAUSE_TIMEOUT
    elif isinstance(exc, (TransportClosedError, ConnectionClosedError)):
        cause = CAUSE_CONNECTION_LOST
    elif isinstance(exc, (ProtocolDesyncError, MirrorChannelError,
                          FramingError, SerializationError)):
        cause = CAUSE_DESYNC
    else:
        cause = CAUSE_INTERNAL
    return cause, classification_of(cause)


@dataclass(frozen=True)
class FailureReport:
    """One party's account of why a session failed."""

    party: str
    cause: str
    classification: str
    message: str

    @classmethod
    def from_cause(cls, party: str, cause: str,
                   message: str) -> "FailureReport":
        return cls(party=party, cause=cause,
                   classification=classification_of(cause),
                   message=message)

    def summary(self) -> str:
        return (f"party {self.party!r} failed ({self.classification} "
                f"{self.cause}): {self.message}")
