"""Duplex channel between two semi-honest parties, over a Transport.

The protocols in this library are written in "choreography" style: a
single thread alternates between the two parties' local steps, and every
cross-party value moves through a :class:`Channel`.  Sending serializes
the value (charging exact wire bytes to the shared
:class:`CommunicationStats`) and appends to the :class:`Transcript`;
receiving deserializes from the wire bytes, so a value that cannot
round-trip the wire format can never silently leak through the
accounting.

Every choreography is an ``async def`` whose sends are awaited and
whose receives are plain calls.  On a daemon a remote send is where the
mirror channel awaits the peer's frame
(:class:`~repro.runtime.async_pass.RestartableMirrorChannel`); in
process every frame is queued before its receive, so :func:`drive` runs
a choreography to its end with no event loop.

Delivery itself is delegated to a
:class:`~repro.net.transport.Transport`: the default
:class:`~repro.net.transport.InProcessTransport` delivers through
per-receiver FIFO deques (empty inbox = :class:`ProtocolDesyncError`);
across processes, :class:`~repro.runtime.mirror.MirrorChannel` keeps the
same accounting over a daemon's session link.  The channel's accounting
does not depend on the fabric.
"""

from __future__ import annotations

from repro.net.serialization import deserialize_message, serialize_message
from repro.net.stats import CommunicationStats
from repro.net.transcript import Transcript
from repro.net.transport import (  # noqa: F401  (re-exported for callers)
    InProcessTransport,
    ProtocolDesyncError,
    Transport,
    TransportTimeoutError,
)


class ChannelClosedError(RuntimeError):
    """Raised when sending or receiving on a closed channel."""


class Channel:
    """A duplex link between two named parties."""

    def __init__(self, left_name: str = "alice", right_name: str = "bob",
                 transcript: Transcript | None = None,
                 stats: CommunicationStats | None = None,
                 transport: Transport | None = None):
        if left_name == right_name:
            raise ValueError("parties must have distinct names")
        self.transcript = transcript if transcript is not None else Transcript()
        self.stats = stats if stats is not None else CommunicationStats()
        if transport is None:
            transport = InProcessTransport(left_name, right_name)
        self.transport = transport
        self._closed = False
        self.left = ChannelEndpoint(self, left_name, right_name)
        self.right = ChannelEndpoint(self, right_name, left_name)

    @property
    def endpoints(self) -> tuple["ChannelEndpoint", "ChannelEndpoint"]:
        return self.left, self.right

    def close(self, reason: str | None = None) -> None:
        """Close the link; ``reason`` is passed to
        :meth:`Transport.close` for fabrics that can report it."""
        self.transport.close(reason)
        self._closed = True

    async def _send(self, sender: str, receiver: str, label: str,
                    value) -> None:
        if self._closed:
            raise ChannelClosedError("channel is closed")
        wire = serialize_message(value)
        self.stats.record(sender, receiver, label, len(wire))
        self.transcript.record(sender, receiver, label, wire)
        self.transport.deliver(sender, receiver, label, wire)

    def _receive(self, receiver: str, expected_label: str | None):
        if self._closed:
            raise ChannelClosedError("channel is closed")
        label, wire = self.transport.collect(receiver, expected_label)
        if expected_label is not None and label != expected_label:
            raise ProtocolDesyncError(
                f"{receiver} expected message {expected_label!r} "
                f"but got {label!r}"
            )
        return deserialize_message(wire)


def drive(coroutine):
    """Run an in-process choreography to its end and return its value.

    Its first ``send(None)`` must end in ``StopIteration``.  One that
    suspends instead is closed and refused with
    :class:`ProtocolDesyncError`; one that raises has ended, and its
    exception propagates.  No coroutine is left suspended.
    """
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise ProtocolDesyncError(
        f"choreography {coroutine.__qualname__!r} suspended; an "
        f"in-process choreography finds every frame already sent")


class ChannelEndpoint:
    """One party's handle on a channel: ``send`` to the peer, ``receive``.

    ``hosted`` says whether this process executes the party's steps.
    Both endpoints of an in-process :class:`Channel` are hosted; a
    channel whose far party lives in another process (the runtime's
    mirror channel) hosts only its local endpoint.  Choreographies
    guard each party's step blocks with it (see
    :attr:`repro.net.party.Party.hosted`).
    """

    def __init__(self, channel: Channel, name: str, peer_name: str, *,
                 hosted: bool = True):
        self._channel = channel
        self.name = name
        self.peer_name = peer_name
        self.hosted = hosted

    async def send(self, label: str, value) -> None:
        """Send ``value`` to the peer, tagged with a protocol-phase label
        (a coroutine: a mirror channel may await the peer's frame here)."""
        await self._channel._send(self.name, self.peer_name, label, value)

    def receive(self, expected_label: str | None = None):
        """Pop the next inbound message; verify its label when given."""
        return self._channel._receive(self.name, expected_label)

    @property
    def stats(self) -> CommunicationStats:
        return self._channel.stats

    @property
    def transcript(self) -> Transcript:
        return self._channel.transcript

    def __repr__(self) -> str:
        return f"ChannelEndpoint({self.name!r} <-> {self.peer_name!r})"
