"""Mirrored-choreography execution across a process boundary.

Execution model
---------------

Every protocol in this library is written as a *choreography*: one
function holds both parties' local steps in their global order, and
every cross-party value moves through a channel.  That style cannot be
"split" mechanically -- each party's code is interleaved with its
peer's -- but it has a property the runtime exploits: **a party's
outbound messages depend only on its own inputs, its own coin stream,
and the messages it received**.  That is precisely the semi-honest view
(Definition 5) the privacy analysis is built on, and the codebase
enforces it structurally (no protocol reads the peer's state except
through ``send``/``receive``).

So each party daemon runs the *same* choreography, but executes only
the party it hosts.  This channel's endpoints carry that fact
(:attr:`~repro.net.channel.ChannelEndpoint.hosted`): the ``local_name``
endpoint is hosted, the remote one is not, and every choreography
guards each party's step blocks with :attr:`~repro.net.party.Party.hosted`.
The remote party's inputs are public-shape placeholders (all-zero points
with the true, public, counts) that no guarded step reads.  The channel
performs the substitution that makes the execution real:

- a **local** party's send executes normally: the value is serialized,
  recorded and written to the socket as one frame;
- a **remote** party's send is only a marker -- the choreography did
  not compute its value (it passes a placeholder, usually ``None``) --
  and here the mirror takes the authentic frame from the socket
  instead: the real peer process, holding the real data, computed and
  sent it at the same point of its own choreography.  The send is
  awaited, so when the frame has not arrived yet the choreography's
  coroutine suspends there until it does.  Stats and the transcript
  record the authentic bytes, so the accounting is identical to an
  in-process run;
- a **local** receive pops the frame the preceding remote send
  substituted; it never touches the socket.  A **remote** receive is a
  missing guard: it raises :class:`ProtocolDesyncError` naming the
  label, so a step block that should not run here fails loudly instead
  of silently burning CPU on placeholders.

The substitution itself is the daemons' subclass's
(:class:`~repro.runtime.async_pass.RestartableMirrorChannel`): it
suspends the query's coroutine on the event loop, never a thread.  This
base class holds what both directions share: the endpoints, stats,
transcript and the inbox of substituted frames.

Why this terminates: both processes execute the same deterministic
sequence of sends (control flow depends only on public shapes, wire
values, and seed-derived coins -- property-tested).  A process waits
only at a remote-send substitution, i.e. for a frame its peer
produces at the same choreography point; since the order is shared,
there is no circular wait.  The same order also means a party's send
waits for every remote send before it on the channel.  Where two sends
do not depend on each other -- a pair's two key announcements -- the
daemon gives each its own channel, so both leave at once, and the
pair's accounting concatenates the channels in choreography order
(:func:`repro.multiparty.mesh.link_accounting`).

Why this is equivalent: every frame on the wire is computed by the
party that owns the data, from authentic inputs and its seed-derived
coin stream -- the same stream the in-process mesh derives via
``derive_pair_rng``.  A hosted party's steps run exactly as they do in
process (where every party is hosted), so its coin draws, sends and
ledger records are unchanged.  Hence byte-identical messages,
transcripts, stats, predicate bits, labels, and ledger events (asserted
by the integration suite).

What the placeholders may influence: the non-hosted party's results,
which the guarded choreography returns as shape-correct placeholders
and callers on this side must treat as garbage (the party program only
consumes results owned by its local party).  Key material follows the
same ownership rule *structurally*: a party daemon derives only its
**own** slot's keypair from ``key_seed``; every peer context is a
:mod:`sealed <repro.crypto.sealed>` public-only stand-in whose authentic
public key is captured from the wire key exchange (pinned against the
manifest's ``key_digests``).  No hosted step decrypts under a peer's
key, so every decrypt entry point of a sealed key raises
:class:`~repro.crypto.sealed.PublicOnlyKeyError`.  See DESIGN.md,
'Sealed per-party keys'.
"""

from __future__ import annotations

from collections import deque

from repro.net.channel import ChannelEndpoint
from repro.net.serialization import deserialize_message
from repro.net.stats import CommunicationStats
from repro.net.transcript import Transcript
from repro.net.transport import ProtocolDesyncError, Transport


class MirrorChannelError(RuntimeError):
    """Misuse of the mirror channel (unknown party, closed link)."""


class MirrorChannel:
    """Channel-compatible duplex link whose far party lives elsewhere.

    Drop-in for :class:`repro.net.channel.Channel` wherever a session or
    protocol holds a channel: same endpoints, stats, transcript, and
    close semantics, over a transport serving ``local_name``.  Delivery
    is the mirrored substitution described in the module docstring; its
    send is the subclass's
    (:meth:`~repro.runtime.async_pass.RestartableMirrorChannel._send`).
    """

    def __init__(self, left_name: str, right_name: str, local_name: str,
                 transport: Transport):
        if left_name == right_name:
            raise MirrorChannelError("parties must have distinct names")
        if local_name not in (left_name, right_name):
            raise MirrorChannelError(
                f"{local_name!r} is not an endpoint of "
                f"({left_name!r}, {right_name!r})")
        self.transcript = Transcript()
        self.stats = CommunicationStats()
        self.transport = transport
        self.local_name = local_name
        self.remote_name = (right_name if local_name == left_name
                            else left_name)
        self._closed = False
        # Frames substituted off the wire, awaiting the local receive.
        self._remote_inbox: deque[tuple[str, bytes]] = deque()
        self.left = ChannelEndpoint(self, left_name, right_name,
                                    hosted=left_name == local_name)
        self.right = ChannelEndpoint(self, right_name, left_name,
                                     hosted=right_name == local_name)

    @property
    def endpoints(self) -> tuple[ChannelEndpoint, ChannelEndpoint]:
        return self.left, self.right

    def close(self, reason: str | None = None) -> None:
        if not self._closed:
            self._closed = True
            self.transport.close(reason)

    def assert_drained(self) -> None:
        """Post-run invariant: every substituted frame met its receive.

        A leftover means the two processes' choreographies diverged --
        raise with enough context to see where.
        """
        if self._remote_inbox:
            raise ProtocolDesyncError(
                f"mirror channel {self.local_name!r}<->{self.remote_name!r} "
                f"not drained: {len(self._remote_inbox)} unconsumed "
                f"substituted frames (first label "
                f"{self._remote_inbox[0][0]!r})")

    # -- Channel protocol --------------------------------------------------

    def _receive(self, receiver: str, expected_label: str | None):
        if self._closed:
            raise MirrorChannelError("channel is closed")
        if receiver != self.local_name:
            raise ProtocolDesyncError(
                f"{receiver} is not hosted by this process but the "
                f"choreography reached its receive of "
                f"{expected_label or 'a message'!r}: a step block is "
                f"missing its hosted guard (mirror channel "
                f"{self.local_name!r}<->{self.remote_name!r})")
        if not self._remote_inbox:
            raise ProtocolDesyncError(
                f"{receiver} tried to receive "
                f"{expected_label or 'a message'} but no matching send "
                f"has executed (mirror channel "
                f"{self.local_name!r}<->{self.remote_name!r})")
        label, wire = self._remote_inbox.popleft()
        if expected_label is not None and label != expected_label:
            raise ProtocolDesyncError(
                f"{receiver} expected message {expected_label!r} "
                f"but got {label!r}")
        return deserialize_message(wire)
