"""Message-delivery fabrics for a two-party link.

A :class:`~repro.net.channel.Channel` owns *accounting* (wire
serialization, byte/round statistics, the transcript); the
:class:`Transport` underneath it owns *delivery*: how a framed message
travels from one endpoint's outbox to the other endpoint's inbox, and
what "the inbox is empty" means.  The fabrics, one per place a link
can live:

- :class:`InProcessTransport` -- both endpoints in one interpreter:
  plain FIFO deques, zero cost, and an empty inbox is a protocol bug
  (:class:`ProtocolDesyncError`), never a timing condition.  Every
  in-process channel runs on it.
- :class:`TcpTransport` -- a real socket: the link's two endpoints live
  in *different OS processes* (the party-process runtime), connected
  by a :class:`~repro.net.framing.FramedConnection`.  Each process
  serves only its local endpoint -- ``deliver`` writes one
  length-prefixed frame carrying the label and the exact
  :mod:`repro.net.serialization` wire bytes, ``collect`` blocks on the
  socket -- so the message sequence on the wire is byte-identical to
  what the in-process fabric queues.  Timeouts map to
  :class:`TransportTimeoutError`, peer teardown (goodbye frame or EOF)
  to :class:`TransportClosedError`, and both error messages name the
  pair, the local party, and the last frame seen, so an orchestrated
  party that dies mid-protocol is diagnosable from the survivor's
  exception alone.  (A resumed party re-drives its checkpointed passes
  over :class:`~repro.runtime.checkpoint.ReplayTransport` first.)
- :class:`SessionLinkTransport` -- one daemon session's view of an
  :class:`AsyncTcpTransport`, the persistent pair connection that
  multiplexes many sessions on the daemon's event loop.

Transports never look inside ``wire`` bytes and never see plaintext
values; the trust boundary stays in the channel layer.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from abc import ABC, abstractmethod
from collections import deque

from repro.net.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_MESSAGE,
    FRAME_MUX_CONTROL,
    FRAME_MUX_MESSAGE,
    MUX_KINDS,
    ConnectionClosedError,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramedConnection,
    FramingError,
    ReceiveTimeout,
    decode_message_payload,
    decode_mux_payload,
    encode_frame,
    encode_message_payload,
    encode_mux_payload,
    read_frame_async,
)
from repro.obs.metrics import MetricsRegistry


class TransportError(RuntimeError):
    """Raised on delivery to unknown endpoints or misconfiguration."""


class ProtocolDesyncError(RuntimeError):
    """Raised when a receive finds an empty inbox or a label mismatch.

    In a single-threaded choreography an empty inbox means the two party
    programs disagree about the message sequence -- always a bug, never a
    timing issue, so it fails loudly.
    """


class TransportTimeoutError(ProtocolDesyncError):
    """A blocking receive outlived its timeout (deadlock or dead peer).

    Subclasses :class:`ProtocolDesyncError`: by the time the timeout has
    expired the two party programs demonstrably disagree about the
    message sequence, so callers that handle desyncs handle this too.
    """


class TransportClosedError(TransportError):
    """The link was closed while (or before) a receive was waiting."""


def link_context(left_name: str, right_name: str,
                 last_frame: tuple[str, str, str] | None,
                 local_name: str | None = None) -> str:
    """The shared diagnosis suffix of transport errors: which pair,
    (optionally) which local party, and the last ``sender->receiver
    label`` frame that made it across -- how far the protocol got."""
    trail = (f"last frame {last_frame[0]}->{last_frame[1]} "
             f"{last_frame[2]!r}" if last_frame
             else "no frames were delivered")
    local = f", local {local_name!r}" if local_name is not None else ""
    return f"pair {left_name!r}<->{right_name!r}{local}; {trail}"


class Transport(ABC):
    """Delivery fabric between the two named endpoints of one link."""

    def __init__(self, left_name: str, right_name: str):
        if left_name == right_name:
            raise TransportError("endpoints must have distinct names")
        self.left_name = left_name
        self.right_name = right_name

    def _check_endpoint(self, name: str) -> None:
        if name not in (self.left_name, self.right_name):
            raise TransportError(
                f"{name!r} is not an endpoint of this link "
                f"({self.left_name!r} <-> {self.right_name!r})")

    @abstractmethod
    def deliver(self, sender: str, receiver: str, label: str,
                wire: bytes) -> None:
        """Append one framed message to ``receiver``'s inbox."""

    @abstractmethod
    def collect(self, receiver: str,
                expected_label: str | None) -> tuple[str, bytes]:
        """Pop the next inbound ``(label, wire)`` for ``receiver``.

        ``expected_label`` is advisory -- it only improves error
        messages; label *verification* happens in the channel so every
        fabric enforces identical framing rules.
        """

    def close(self, reason: str | None = None) -> None:
        """Release fabric resources; delivery after close is undefined.

        ``reason`` is a human-readable diagnosis (e.g. *"party bob died:
        ZeroDivisionError"*) that fabrics with blocking receivers thread
        into the error their parked peers see.  Fabrics with nothing to
        unblock ignore it.
        """


class InProcessTransport(Transport):
    """Seed-era FIFO deques: free delivery, loud desync on empty inbox."""

    def __init__(self, left_name: str = "alice", right_name: str = "bob"):
        super().__init__(left_name, right_name)
        self._inboxes: dict[str, deque] = {left_name: deque(),
                                           right_name: deque()}

    def deliver(self, sender: str, receiver: str, label: str,
                wire: bytes) -> None:
        self._check_endpoint(receiver)
        self._inboxes[receiver].append((label, wire))

    def collect(self, receiver: str,
                expected_label: str | None) -> tuple[str, bytes]:
        self._check_endpoint(receiver)
        inbox = self._inboxes[receiver]
        if not inbox:
            raise ProtocolDesyncError(
                f"{receiver} tried to receive "
                f"{expected_label or 'a message'} but the inbox is empty")
        return inbox.popleft()


class TcpTransport(Transport):
    """Real socket fabric: each endpoint lives in its own OS process.

    One process constructs this transport around the connected,
    handshaken :class:`~repro.net.framing.FramedConnection` of a link
    and names which endpoint is *local*.  ``deliver`` is only valid for
    the local sender (a process cannot fabricate its peer's traffic) and
    writes one message frame -- the label plus the exact serialization
    wire bytes.  ``collect`` is only valid for the local receiver and
    blocks on the socket.

    Error mapping, all carrying pair / party / last-frame context:

    - receive timeout -> :class:`TransportTimeoutError` (a desync or a
      hung peer);
    - goodbye frame or EOF/reset -> :class:`TransportClosedError`
      (orderly teardown vs. peer death, the reason string tells which);
    - control/hello frames inside the protocol stream, or malformed
      frames -> :class:`ProtocolDesyncError`.
    """

    def __init__(self, left_name: str, right_name: str,
                 connection: FramedConnection, local_name: str):
        super().__init__(left_name, right_name)
        self._check_endpoint(local_name)
        self.connection = connection
        self.local_name = local_name
        self.peer_name = (right_name if local_name == left_name
                          else left_name)
        self._last_frame: tuple[str, str, str] | None = None

    def _context(self) -> str:
        return link_context(self.left_name, self.right_name,
                            self._last_frame, local_name=self.local_name)

    def deliver(self, sender: str, receiver: str, label: str,
                wire: bytes) -> None:
        self._check_endpoint(sender)
        self._check_endpoint(receiver)
        if sender != self.local_name:
            raise TransportError(
                f"{sender!r} is not the local endpoint of this process; "
                f"a socket fabric only transmits its own party's messages "
                f"({self._context()})")
        try:
            self.connection.write_message(label, wire)
        except ConnectionClosedError as exc:
            raise TransportClosedError(
                f"{sender} could not send {label!r}: {exc} "
                f"({self._context()})") from exc
        self._last_frame = (sender, receiver, label)

    def collect(self, receiver: str,
                expected_label: str | None) -> tuple[str, bytes]:
        self._check_endpoint(receiver)
        if receiver != self.local_name:
            raise TransportError(
                f"{receiver!r} is not the local endpoint of this process "
                f"({self._context()})")
        want = expected_label or "a message"
        try:
            kind, payload = self.connection.read_frame()
        except ReceiveTimeout as exc:
            raise TransportTimeoutError(
                f"{receiver} waited {self.connection.timeout_s}s for "
                f"{want}; the peer never sent it ({self._context()})"
            ) from exc
        except ConnectionClosedError as exc:
            raise TransportClosedError(
                f"link closed while {receiver} waited for {want}: {exc} "
                f"({self._context()})") from exc
        except FrameAuthenticationError:
            # Not a desync: the peer (or someone on the path) fails the
            # MAC.  Propagate unchanged so the failure classifier maps
            # it to the fatal, never-retried auth cause instead of the
            # generic desync.
            raise
        except FramingError as exc:
            raise ProtocolDesyncError(
                f"malformed frame while {receiver} waited for {want}: "
                f"{exc} ({self._context()})") from exc
        if kind == FRAME_GOODBYE:
            raise TransportClosedError(
                f"peer {self.peer_name!r} closed the link "
                f"({payload.decode('utf-8', 'replace')!r}) while "
                f"{receiver} waited for {want} ({self._context()})")
        if kind != FRAME_MESSAGE:
            # Control/hello frames inside the protocol stream, or a
            # session-multiplexed ``m``/``c`` frame on a dedicated
            # single-session link -- either way the two ends disagree
            # about what this connection carries.
            what = ("control frame" if kind == FRAME_CONTROL
                    else f"{kind!r} frame")
            raise ProtocolDesyncError(
                f"unexpected {what} inside the protocol stream "
                f"while {receiver} waited for {want} ({self._context()})")
        try:
            label, wire = decode_message_payload(payload)
        except FramingError as exc:
            raise ProtocolDesyncError(
                f"unreadable message frame while {receiver} waited for "
                f"{want}: {exc} ({self._context()})") from exc
        self._last_frame = (self.peer_name, receiver, label)
        return label, wire

    def close(self, reason: str | None = None) -> None:
        if not self.connection.closed:
            try:
                self.connection.write_goodbye(reason or "done")
            except ConnectionClosedError:
                pass  # peer already gone; nothing to announce
            self.connection.close()


class AsyncTcpTransport:
    """Session-demultiplexing hub over one persistent mux connection.

    The daemon runtime keeps exactly one TCP connection per party-pair,
    alive across many clustering sessions.  This hub owns that
    connection's event-loop plumbing:

    - an *inbound demux task* reads ``m``/``c`` frames and routes each,
      by session tag, into the per-session future queues of a
      :class:`SessionLinkTransport` view (created eagerly on first
      sight of a tag, so a peer whose session raced ahead of ours never
      loses frames);
    - an *outbound writer task* drains a loop-side queue of pre-encoded
      frames, so worker threads enqueue via ``call_soon_threadsafe``
      and per-thread send order is preserved end to end.

    Each :meth:`session` view is a full :class:`Transport`: the
    unchanged :class:`~repro.runtime.mirror.MirrorChannel` machinery
    runs over it, which is the equivalence argument -- multiplexing
    changes which frames share a socket, never the bytes or the
    per-session order of any (session, pair, direction) stream.

    ``net_delay_s`` is the daemon's simulated-latency profile: every
    inbound frame is released to its queue ``net_delay_s`` after it is
    read (``loop.call_later`` keeps FIFO order for equal delays).  The
    sleep is *real* loop time shared by all sessions on the connection,
    so latency hiding across concurrent sessions is measured, not
    modeled.
    """

    _CLOSED = object()  # queue poison; never crosses the wire

    def __init__(self, left_name: str, right_name: str, local_name: str,
                 *, timeout_s: float = 30.0, net_delay_s: float = 0.0,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 authenticator: FrameAuthenticator | None = None,
                 metrics: "MetricsRegistry | None" = None):
        if left_name == right_name:
            raise TransportError("endpoints must have distinct names")
        if local_name not in (left_name, right_name):
            raise TransportError(
                f"{local_name!r} is not an endpoint of this link "
                f"({left_name!r} <-> {right_name!r})")
        if timeout_s <= 0:
            raise TransportError(f"timeout_s must be > 0, got {timeout_s}")
        if net_delay_s < 0:
            raise TransportError(
                f"net_delay_s must be >= 0, got {net_delay_s}")
        self.left_name = left_name
        self.right_name = right_name
        self.local_name = local_name
        self.peer_name = (right_name if local_name == left_name
                          else left_name)
        self.timeout_s = timeout_s
        self.net_delay_s = net_delay_s
        self.max_frame_bytes = max_frame_bytes
        #: Optional per-frame MAC layer shared by every session on the
        #: connection (context: the mesh-spec digest, known a priori on
        #: both ends).  Outbound frames are sealed at encode time via
        #: :meth:`encode_sealed`; inbound frames are verified in
        #: :meth:`_pump_in` *before* any demultiplexing parses them.
        self.authenticator = authenticator
        self.name = f"mux {left_name}<->{right_name} at {local_name}"
        self._loop: asyncio.AbstractEventLoop | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._outbox: asyncio.Queue | None = None
        self._sessions: dict[str, SessionLinkTransport] = {}
        self._tasks: list[asyncio.Task] = []
        self._closed = False
        self._close_reason: str | None = None
        self._auth_failed = False
        self._last_frame: tuple[str, str, str] | None = None
        # Frame/byte accounting per (pair, direction, kind).  A missing
        # registry degrades to the shared null instruments, so the hot
        # pumps pay one attribute call when observability is off.
        if metrics is None:
            metrics = MetricsRegistry(enabled=False)
        self.metrics = metrics
        self._obs_pair = f"{left_name}-{right_name}"
        self._frames_out: dict[bytes, object] = {}
        self._frames_in: dict[bytes, object] = {}
        self._bytes_out = metrics.counter(
            "repro_link_bytes_total", pair=self._obs_pair, dir="out")
        self._bytes_in = metrics.counter(
            "repro_link_bytes_total", pair=self._obs_pair, dir="in")
        self._auth_failures = metrics.counter(
            "repro_link_auth_failures_total", pair=self._obs_pair)

    def _frame_counter(self, table: dict, direction: str, kind: bytes):
        counter = table.get(kind)
        if counter is None:
            counter = table[kind] = self.metrics.counter(
                "repro_link_frames_total", pair=self._obs_pair,
                dir=direction, kind=kind.decode("ascii", "replace"))
        return counter

    # -- lifecycle (event-loop thread only) --------------------------------

    def start(self, reader: asyncio.StreamReader,
              writer: asyncio.StreamWriter) -> None:
        """Adopt a connected, handshaken stream pair and start pumping."""
        self._loop = asyncio.get_running_loop()
        self._reader = reader
        self._writer = writer
        self._outbox = asyncio.Queue()
        self._tasks = [self._loop.create_task(self._pump_out()),
                       self._loop.create_task(self._pump_in())]

    def session(self, session_id: str) -> "SessionLinkTransport":
        """The (auto-created) per-session view of this connection."""
        view = self._sessions.get(session_id)
        if view is None:
            if self._closed:
                raise TransportClosedError(
                    f"{self.name}: connection closed"
                    + (f": {self._close_reason}" if self._close_reason
                       else ""))
            view = SessionLinkTransport(self, session_id)
            self._sessions[session_id] = view
        return view

    def release(self, session_id: str) -> None:
        """Forget a finished session's queues (memory hygiene)."""
        self._sessions.pop(session_id, None)

    async def aclose(self, reason: str = "done") -> None:
        """Orderly teardown: goodbye frame, close the stream, poison
        every parked receiver."""
        if self._closed:
            return
        self._poison(reason)
        if self._writer is not None:
            try:
                self._writer.write(self.encode_sealed(
                    FRAME_GOODBYE, reason.encode("utf-8")))
                await self._writer.drain()
            except (ConnectionResetError, OSError):
                pass  # peer already gone; nothing to announce
            self._writer.close()
        for task in self._tasks:
            task.cancel()

    def _poison(self, reason: str) -> None:
        self._closed = True
        if self._close_reason is None:
            self._close_reason = reason
        for view in self._sessions.values():
            view._message_queue.put_nowait(self._CLOSED)
            view._control_queue.put_nowait(self._CLOSED)

    def _abort(self, reason: str) -> None:
        """Connection-level failure seen by the demux reader: every
        session on this link fails with the same diagnosis."""
        self._poison(reason)
        if self._writer is not None:
            self._writer.close()

    def _abort_in_order(self, reason: str) -> None:
        """Abort *after* every already-delayed inbound frame lands.

        With simulated latency, data frames are released to their
        queues ``net_delay_s`` after being read; poisoning immediately
        on goodbye/EOF would let the closure overtake frames the peer
        sent (and TCP delivered) before closing -- e.g. a final
        END_PASS racing the peer daemon's drain teardown.  Scheduling
        the abort through the same ``call_later`` lane preserves the
        stream's FIFO order end to end."""
        if self.net_delay_s > 0:
            self._loop.call_later(self.net_delay_s, self._abort, reason)
        else:
            self._abort(reason)

    # -- outbound (any thread) ---------------------------------------------

    def encode_sealed(self, kind: bytes, payload: bytes) -> bytes:
        """Encode one frame, sealing it when the link is authenticated.

        Every outbound frame on this connection must go through here
        (or carry a tag applied by the same authenticator): a mix of
        sealed and unsealed frames on one authenticated link would fail
        verification at the peer.
        """
        if self.authenticator is not None:
            payload = self.authenticator.seal(kind, payload)
        frame = encode_frame(kind, payload)
        self._frame_counter(self._frames_out, "out", kind).inc()
        self._bytes_out.inc(len(frame))
        return frame

    def send_frame(self, frame: bytes) -> None:
        """Enqueue one pre-encoded frame for the writer task.

        Thread-safe: per-thread enqueue order is preserved, which is
        all the protocol needs -- within one session exactly one thread
        sends on a given link at a time.
        """
        if len(frame) > 4 + self.max_frame_bytes:
            raise FramingError(
                f"{self.name}: frame of {len(frame) - 4} bytes exceeds "
                f"the {self.max_frame_bytes}-byte ceiling")
        if self._closed:
            raise TransportClosedError(
                f"{self.name}: send on closed connection"
                + (f": {self._close_reason}" if self._close_reason
                   else ""))
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            self._outbox.put_nowait(frame)
        else:
            self._loop.call_soon_threadsafe(self._outbox.put_nowait, frame)

    # -- pump tasks (event-loop thread) ------------------------------------

    async def _pump_out(self) -> None:
        while True:
            frame = await self._outbox.get()
            if frame is self._CLOSED:
                return
            try:
                self._writer.write(frame)
                await self._writer.drain()
            except (ConnectionResetError, OSError) as exc:
                self._abort(f"peer gone while writing ({exc})")
                return

    async def _pump_in(self) -> None:
        while True:
            try:
                kind, payload = await read_frame_async(
                    self._reader, max_frame_bytes=self.max_frame_bytes,
                    name=self.name, authenticator=self.authenticator)
            except ConnectionClosedError as exc:
                self._abort_in_order(f"connection lost ({exc})")
                return
            except FrameAuthenticationError as exc:
                # Verified (and failed) before any demux parsing; the
                # flag makes every parked receiver on this hub re-raise
                # the auth failure instead of a retryable closure.
                self._auth_failed = True
                self._auth_failures.inc()
                self._abort(f"link authentication failed ({exc})")
                return
            except FramingError as exc:
                self._abort(f"malformed frame ({exc})")
                return
            self._frame_counter(self._frames_in, "in", kind).inc()
            self._bytes_in.inc(5 + len(payload))
            if kind == FRAME_GOODBYE:
                self._abort_in_order(
                    f"peer {self.peer_name!r} closed the link "
                    f"({payload.decode('utf-8', 'replace')!r})")
                return
            if kind not in MUX_KINDS:
                self._abort(f"non-multiplexed {kind!r} frame on a mux "
                            f"connection")
                return
            try:
                session_id, inner = decode_mux_payload(payload)
                if kind == FRAME_MUX_MESSAGE:
                    item = decode_message_payload(inner)
                else:
                    item = inner
            except FramingError as exc:
                self._abort(f"unreadable mux frame ({exc})")
                return
            view = self.session(session_id)
            target = (view._message_queue if kind == FRAME_MUX_MESSAGE
                      else view._control_queue)
            if kind == FRAME_MUX_MESSAGE:
                self._last_frame = (self.peer_name, self.local_name,
                                    f"{session_id}:{item[0]}")
            if self.net_delay_s > 0:
                # Real loop time, shared by every session on the link:
                # call_later keeps FIFO for equal delays, so simulated
                # latency never reorders a stream.
                self._loop.call_later(self.net_delay_s,
                                      target.put_nowait, item)
            else:
                target.put_nowait(item)

    def _context(self) -> str:
        return link_context(self.left_name, self.right_name,
                            self._last_frame, local_name=self.local_name)


class SessionLinkTransport(Transport):
    """One session's view of a shared :class:`AsyncTcpTransport`.

    ``deliver`` encodes the protocol message as an ``m`` frame tagged
    with the session id and hands it to the hub's writer queue.
    Receiving happens on the event loop, never on a blocked thread:
    :meth:`try_collect` takes an already-arrived frame and
    :meth:`wait_message` awaits the next one, both from the session's
    inbound queue (the blocking :meth:`collect` refuses).  The control
    plane (``c`` frames: query announcements, end-of-pass, session
    sync) uses :meth:`send_control` / :meth:`next_control` and never
    touches the message queue, mirroring the single-session runtime's
    strict C-frame / M-frame separation.

    Closing a view never closes the shared connection; it only detaches
    the session from the hub's demux table.
    """

    def __init__(self, hub: AsyncTcpTransport, session_id: str):
        super().__init__(hub.left_name, hub.right_name)
        self.hub = hub
        self.session_id = session_id
        self.local_name = hub.local_name
        self._message_queue: asyncio.Queue = asyncio.Queue()
        self._control_queue: asyncio.Queue = asyncio.Queue()

    # -- protocol-message plane (Transport interface) ----------------------

    def deliver(self, sender: str, receiver: str, label: str,
                wire: bytes) -> None:
        self._check_endpoint(sender)
        self._check_endpoint(receiver)
        if sender != self.local_name:
            raise TransportError(
                f"{sender!r} is not the local endpoint of this daemon; "
                f"a socket fabric only transmits its own party's messages "
                f"({self._context()})")
        inner = encode_message_payload(label, wire)
        try:
            self.hub.send_frame(self.hub.encode_sealed(
                FRAME_MUX_MESSAGE,
                encode_mux_payload(self.session_id, inner)))
        except TransportClosedError as exc:
            raise TransportClosedError(
                f"{sender} could not send {label!r}: {exc} "
                f"({self._context()})") from exc
        self.hub._last_frame = (sender, receiver,
                                f"{self.session_id}:{label}")

    def collect(self, receiver: str,
                expected_label: str | None) -> tuple[str, bytes]:
        raise TransportError(
            f"daemon sessions receive through try_collect and "
            f"wait_message, never a blocking collect ({self._context()})")

    def try_collect(self, receiver: str,
                    expected_label: str | None
                    ) -> tuple[str, bytes] | None:
        """The already-arrived frame for ``receiver``, or ``None`` when
        the peer's frame is still in flight.

        This is the message-granularity probe of the async pass
        executor: a restartable choreography segment calls it at a
        remote-send substitution and, on ``None``, unwinds so its
        *coroutine* can park on :meth:`wait_message` -- no thread ever
        blocks.  Event-loop thread only (the queue is loop-owned).
        """
        self._check_endpoint(receiver)
        if receiver != self.local_name:
            raise TransportError(
                f"{receiver!r} is not the local endpoint of this daemon "
                f"({self._context()})")
        try:
            item = self._message_queue.get_nowait()
        except asyncio.QueueEmpty:
            return None
        want = expected_label or "a message"
        return self._checked_item(item, self._message_queue, want)

    async def wait_message(self, want: str = "a message"
                           ) -> tuple[str, bytes]:
        """Await the session's next protocol frame (loop coroutine).

        Bounded by the hub's ``timeout_s``; a closed link or a failed
        MAC raises as :meth:`_checked_item` classifies it.  Only this
        coroutine parks on the per-(session, pair) queue, so the
        daemon's thread count stays flat however many sessions are
        simultaneously waiting here.
        """
        try:
            item = await asyncio.wait_for(self._message_queue.get(),
                                          self.hub.timeout_s)
        except asyncio.TimeoutError:
            raise TransportTimeoutError(
                f"{self.local_name} waited {self.hub.timeout_s}s for "
                f"{want}; the peer never sent it ({self._context()})"
            ) from None
        return self._checked_item(item, self._message_queue, want)

    def close(self, reason: str | None = None) -> None:
        self.hub.release(self.session_id)

    # -- control plane -----------------------------------------------------

    def send_control(self, record_wire: bytes) -> None:
        """Write one session-tagged control frame (thread-safe)."""
        self.hub.send_frame(self.hub.encode_sealed(
            FRAME_MUX_CONTROL,
            encode_mux_payload(self.session_id, record_wire)))

    async def next_control(self) -> bytes:
        """Await the session's next control record (loop coroutine)."""
        item = await self._control_queue.get()
        if item is AsyncTcpTransport._CLOSED:
            self._control_queue.put_nowait(AsyncTcpTransport._CLOSED)
            reason = (f": {self.hub._close_reason}"
                      if self.hub._close_reason else "")
            if self.hub._auth_failed:
                raise FrameAuthenticationError(
                    f"link authentication failed while {self.local_name} "
                    f"waited for a control record{reason} "
                    f"({self._context()})")
            raise TransportClosedError(
                f"link closed while {self.local_name} waited for a "
                f"control record{reason} ({self._context()})")
        return item

    # -- plumbing ----------------------------------------------------------

    def _checked_item(self, item, source: asyncio.Queue, want: str):
        """Classify a dequeued item: re-seat the closed sentinel (every
        later receiver must see it too) and raise the link's failure --
        auth failures named as such, anything else as a closure."""
        if item is AsyncTcpTransport._CLOSED:
            source.put_nowait(AsyncTcpTransport._CLOSED)
            reason = (f": {self.hub._close_reason}"
                      if self.hub._close_reason else "")
            if self.hub._auth_failed:
                raise FrameAuthenticationError(
                    f"link authentication failed while {self.local_name} "
                    f"waited for {want}{reason} ({self._context()})")
            raise TransportClosedError(
                f"link closed while {self.local_name} waited for "
                f"{want}{reason} ({self._context()})")
        return item

    def _context(self) -> str:
        return (f"session {self.session_id!r}, "
                + link_context(self.left_name, self.right_name,
                               self.hub._last_frame,
                               local_name=self.local_name))


def derive_seeded_stream(seed: int | None, *parts) -> random.Random:
    """A deterministic ``random.Random`` for one named purpose.

    SHA-256 over ``seed | part | part | ...`` keeps the stream stable
    across processes (``PYTHONHASHSEED``-proof) and independent of
    creation order; ``None`` stays nondeterministic.  The derivation
    primitive behind ``repro.multiparty.mesh.derive_pair_rng`` (per-pair
    protocol coins), the fault plan and the retry backoff -- one
    implementation, distinct part-tagged streams.
    """
    if seed is None:
        return random.Random()
    material = "|".join(str(part) for part in (seed, *parts)).encode()
    return random.Random(
        int.from_bytes(hashlib.sha256(material).digest(), "big"))


def canonical_pair(left: str, right: str) -> tuple[str, str]:
    return (left, right) if left <= right else (right, left)
