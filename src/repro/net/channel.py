"""Duplex channel between two semi-honest parties.

The protocols in this library are written in "choreography" style: a
single thread alternates between the two parties' local steps, and every
cross-party value moves through a :class:`Channel`.  Sending serializes
the value (charging exact wire bytes to the shared
:class:`CommunicationStats`) and appends to the :class:`Transcript`;
receiving deserializes from the wire bytes, so a value that cannot
round-trip the wire format can never silently leak through the
accounting.

Every choreography is an ``async def`` whose sends are awaited and
whose receives are plain calls.  In process the channel queues each
frame on its receiver's FIFO deque before the receive runs, so
:func:`drive` runs a choreography to its end with no event loop, and an
empty inbox is a protocol bug (:class:`ProtocolDesyncError`), never a
timing condition.  A daemon's channel is the same class with its far
party remote (:class:`~repro.runtime.mirror.MirrorChannel`): a remote
send is where it awaits the peer's frame, and every frame, sent or
taken off the wire, is recorded by the one :meth:`Channel._record`, so
the accounting does not depend on where the far party runs.
"""

from __future__ import annotations

from collections import deque

from repro.net.serialization import deserialize_message, serialize_message
from repro.net.stats import CommunicationStats
from repro.net.transcript import Transcript
from repro.net.transport import ProtocolDesyncError


class ChannelClosedError(RuntimeError):
    """Raised when sending or receiving on a closed channel."""


class Channel:
    """A duplex link between two named parties, with one inbox each."""

    def __init__(self, left_name: str = "alice", right_name: str = "bob"):
        if left_name == right_name:
            raise ValueError("parties must have distinct names")
        self.transcript = Transcript()
        self.stats = CommunicationStats()
        self._inboxes: dict[str, deque[tuple[str, bytes]]] = {
            left_name: deque(), right_name: deque()}
        self._closed = False
        self.left = ChannelEndpoint(self, left_name, right_name)
        self.right = ChannelEndpoint(self, right_name, left_name)

    @property
    def endpoints(self) -> tuple["ChannelEndpoint", "ChannelEndpoint"]:
        return self.left, self.right

    def close(self) -> None:
        self._closed = True

    def _record(self, sender: str, receiver: str, label: str,
                wire: bytes) -> bytes:
        """Account for one frame -- its bytes in the stats, its entry in
        the transcript -- and return it.  Every frame of every channel
        is recorded here once: an in-process send, a daemon's own send
        and the peer's frame a daemon takes off the wire."""
        self.stats.record(sender, receiver, label, len(wire))
        self.transcript.record(sender, receiver, label, wire)
        return wire

    async def _send(self, sender: str, receiver: str, label: str,
                    value) -> None:
        if self._closed:
            raise ChannelClosedError("channel is closed")
        self._inboxes[receiver].append((label, self._record(
            sender, receiver, label, serialize_message(value))))

    def _receive(self, receiver: str, expected_label: str | None):
        if self._closed:
            raise ChannelClosedError("channel is closed")
        inbox = self._inboxes[receiver]
        if not inbox:
            raise ProtocolDesyncError(
                f"{receiver} tried to receive "
                f"{expected_label or 'a message'} but the inbox is empty")
        label, wire = inbox.popleft()
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
    mirror channel) un-hosts the remote one.  Choreographies guard each
    party's step blocks with it (see :attr:`repro.net.party.Party.hosted`).
    """

    def __init__(self, channel: Channel, name: str, peer_name: str):
        self._channel = channel
        self.name = name
        self.peer_name = peer_name
        self.hosted = True

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
