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

The mirror channel is a :class:`~repro.net.channel.Channel` whose far
party is remote: it inherits the endpoints, stats, transcript and the
local party's inbox, where substituted frames wait for their receive,
and it records every frame -- its own sends and the peer's substituted
ones -- through the same :meth:`~repro.net.channel.Channel._record` as
an in-process send.  A substitution whose frame has not arrived
suspends the query's coroutine on the event loop, never a thread.

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

import asyncio

from repro.net.channel import Channel
from repro.net.serialization import serialize_message
from repro.net.transport import ProtocolDesyncError
from repro.obs.metrics import NULL_INSTRUMENT


class MirrorChannelError(RuntimeError):
    """Misuse of the mirror channel (unknown party, closed link)."""


class MirrorChannel(Channel):
    """A :class:`~repro.net.channel.Channel` whose far party lives in
    another process: the daemons' one channel.

    Same endpoints, stats, transcript and close semantics as an
    in-process channel, over a session link (``transport``) serving
    ``local_name``; the remote endpoint is not hosted.  Delivery is the
    mirrored substitution of the module docstring: a local send is
    recorded and written to the link, and a remote send takes the frame
    the link has already queued (``try_collect``) or, when it is still
    in flight, awaits :attr:`peer_keys` and then the link's
    ``wait_message``, which ``timeout_s`` bounds.
    """

    #: Live frame accounting (``repro_segment_frames_total{mode="live"}``)
    #: -- the daemon rebinds it to its registry's counter; the class
    #: default keeps non-instrumented channels at one no-op call.
    obs_live = NULL_INSTRUMENT

    def __init__(self, left_name: str, right_name: str, local_name: str,
                 transport):
        if left_name == right_name:
            raise MirrorChannelError("parties must have distinct names")
        if local_name not in (left_name, right_name):
            raise MirrorChannelError(
                f"{local_name!r} is not an endpoint of "
                f"({left_name!r}, {right_name!r})")
        super().__init__(left_name, right_name)
        self.transport = transport
        self.local_name = local_name
        self.remote_name = (right_name if local_name == left_name
                            else left_name)
        (self.right if local_name == left_name else self.left).hosted = False
        # Set once the peer's keys are adopted (an asyncio.Event), or
        # None: a frame wait awaits it first.  The peer announces its
        # keys before it sends any frame of the pair, so this adds no
        # wait, and a silent peer fails the session at its
        # announcement alone.
        self.peer_keys: asyncio.Event | None = None

    def assert_drained(self) -> None:
        """Post-run invariant: every substituted frame met its receive.

        A leftover means the two processes' choreographies diverged --
        raise with enough context to see where.
        """
        inbox = self._inboxes[self.local_name]
        if inbox:
            raise ProtocolDesyncError(
                f"mirror channel {self.local_name!r}<->{self.remote_name!r} "
                f"not drained: {len(inbox)} unconsumed "
                f"substituted frames (first label {inbox[0][0]!r})")

    async def _send(self, sender: str, receiver: str, label: str,
                    value) -> None:
        if self._closed:
            raise MirrorChannelError("channel is closed")
        if sender == self.local_name:
            wire = self._record(sender, receiver, label,
                                serialize_message(value))
            self.transport.deliver(sender, receiver, label, wire)
            self.obs_live.inc()
            return
        # The remote party's send: substitute the authentic frame.  The
        # locally-passed value is a placeholder and is dropped
        # unserialized.
        item = self.transport.try_collect(self.local_name, label)
        if item is None:
            if self.peer_keys is not None:
                await self.peer_keys.wait()
            item = await self.transport.wait_message(f"frame {label!r}")
        authentic_label, wire = item
        if authentic_label != label:
            raise ProtocolDesyncError(
                "cross-process desync on "
                f"{self.local_name!r}<->{self.remote_name!r}: this "
                f"choreography reached {sender}'s send of {label!r} but "
                f"the peer process sent {authentic_label!r}")
        self._inboxes[receiver].append(
            (label, self._record(sender, receiver, label, wire)))
        self.obs_live.inc()

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
        if not self._inboxes[receiver]:
            raise ProtocolDesyncError(
                f"{receiver} tried to receive "
                f"{expected_label or 'a message'} but no matching send "
                f"has executed (mirror channel "
                f"{self.local_name!r}<->{self.remote_name!r})")
        return super()._receive(receiver, expected_label)
