"""Resident party daemon: one event loop, many clustering sessions.

The PR-5 runtime pays full process spin-up -- interpreter boot, key
derivation, engine warm-up, link-up, handshakes -- for *every* run.
This module keeps the party processes resident instead: ``k`` daemons
(one per data holder, described by a shared :class:`MeshSpec`) hold one
persistent TCP connection per mesh pair and accept ``start_session``
requests from clients, each carrying a full
:class:`~repro.runtime.manifest.RunManifest` plus that daemon's own
partition -- the per-process privacy boundary of the orchestrated
runtime, unchanged.

Execution model
---------------

One :mod:`asyncio` event loop per daemon owns *all* socket I/O: every
pair connection is an :class:`~repro.net.transport.AsyncTcpTransport`
hub whose demux task routes inbound session-tagged ``m``/``c`` frames
into per-session future queues.  The protocol choreographies themselves
are synchronous and run *unchanged* -- but inline on the event loop,
at message granularity, through the restartable machinery of
:mod:`repro.runtime.async_pass`: a choreography that reaches a frame
not yet arrived unwinds via ``NeedFrame``, its *coroutine* parks on the
session's frame queue, and the segment re-executes (replay-verified
against the pair's frame log) once the frame lands.  No session owns a
worker thread, so the daemon's thread count is O(1) in its session
count -- the loop plus the shared engine's workers, whatever the
concurrency.  Responder duties are coroutines awaiting the session's
control queue, serving each announced query through the same
restartable runner.

A daemon-wide :class:`~repro.crypto.precompute.RandomnessService`
amortizes the offline phase across sessions: it learns each keypair's
per-session factor demand as sessions release their leases, prefills
the hosted party's pools of new sessions to that demand, and tops them
up to the remaining need from an idle-time background coroutine.
Factor *values* stay per-session (each pool draws from a per-session
forked RNG stream), so warm starts change where offline time is spent,
never a byte of any transcript.

Determinism: a session's coins, keys, and channel machinery are exactly
the single-session runtime's (same ``derive_pair_rng`` streams --
optionally namespaced per session, see
:attr:`~repro.runtime.manifest.RunManifest.rng_namespace` -- same
own-slot key derivation with sealed peer contexts
(:class:`~repro.smc.session.SealedKeyProvider`), same
:class:`~repro.runtime.mirror.MirrorChannel`).  Multiplexing changes
which frames share a socket, never the bytes or per-(session, pair,
direction) order of any stream, so every session's labels, ledger,
per-pair transcripts, and comparison counts are bit-identical to the
dedicated-process run (property-tested with interleaved concurrent
sessions in ``tests/runtime/test_daemon.py``).

Amortization: the daemon builds and warms one
:class:`~repro.crypto.engine.ModexpEngine` at startup and injects it
into every session's :class:`~repro.smc.session.SmcSession`; the
process-level key cache makes every session after the first reuse the
derived key material.  Each session's
:attr:`~repro.runtime.party.PartyReport.runtime_info` records whether
it warm-started and its setup/pool figures, so the amortization is
observable in reports, not just in wall-clock.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import hmac
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.core.distance import PeerCipherCache
from repro.core.horizontal import secure_peer_neighbor_count
from repro.core.leakage import LeakageLedger
from repro.crypto.engine import ModexpEngine
from repro.crypto.integer_math import powmod_cache_report
from repro.crypto.precompute import PrecomputeError, RandomnessService
from repro.crypto.sealed import public_key_digest
from repro.multiparty.mesh import derive_pair_rng
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    ConnectionClosedError,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramingError,
    encode_frame,
    read_frame_async,
)
from repro.net.party import Party
from repro.net.serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)
from repro.net.transcript import transcript_digest
from repro.net.transport import AsyncTcpTransport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, tracer_for
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    ROLE_CLIENT,
    ROLE_DAEMON,
    HandshakeError,
    HandshakePeerLost,
    Hello,
    client_hello_mismatch,
    hello_mismatch,
)
from repro.runtime.manifest import (
    DEFAULT_HOST,
    RunManifest,
    manifest_digest,
    pair_key,
)
from repro.runtime.async_pass import (
    PairRuntime,
    RestartableMirrorChannel,
    drive_pass_async,
)
from repro.runtime.party import (
    CONTROL_END_PASS,
    CONTROL_QUERY,
    PartyReport,
    PartyRuntimeError,
)
from repro.smc.session import SealedKeyProvider, SmcSession

#: Client-plane control records (plain C frames on a client connection).
CONTROL_START_SESSION = "start_session"
CONTROL_SESSION_REPORT = "session_report"
CONTROL_SESSION_FAILED = "session_failed"
#: Typed refusal of a ``start_session`` -- the client gets an immediate
#: answer instead of the submission queueing unboundedly.  The record
#: carries a machine-readable code (:data:`REJECT_CAPACITY` when the
#: daemon is at its :attr:`MeshSpec.max_sessions` cap,
#: :data:`REJECT_DRAINING` while a graceful shutdown drains) after the
#: human-readable reason.
CONTROL_SESSION_REJECTED = "session_rejected"
REJECT_CAPACITY = "capacity"
REJECT_DRAINING = "draining"
#: Client-requested teardown; ``["shutdown", "drain"]`` asks the daemon
#: to finish in-flight sessions before closing its links.
CONTROL_SHUTDOWN = "shutdown"
SHUTDOWN_DRAIN = "drain"
#: Live introspection: ``["get_metrics", request_id]`` on a client
#: connection is answered with ``["metrics", request_id, <json>]``
#: carrying the daemon's full metrics snapshot.  Read-only -- it never
#: touches session state, so it is served even while draining.
CONTROL_GET_METRICS = "get_metrics"
CONTROL_METRICS = "metrics"
#: Pair-plane per-session sync record (session-tagged ``c`` frame): each
#: daemon announces the manifest digest of a freshly submitted session
#: on every pair link and refuses the session unless the peer's matches.
CONTROL_SESSION_SYNC = "session_sync"

_DIAL_BACKOFF_S = 0.05


class DaemonError(RuntimeError):
    """Mesh-spec, link-up, or session-validation failure in a daemon."""


@dataclass(frozen=True)
class MeshSpec:
    """Public description of one resident daemon mesh.

    Unlike a :class:`~repro.runtime.manifest.RunManifest` -- which
    describes one *run* -- a mesh spec describes standing
    infrastructure: which parties exist, where each daemon listens, and
    the link behaviour every session over this mesh shares.  Its digest
    is what daemon-daemon and client-daemon handshakes bind (sessions
    are validated individually at submission, via per-session sync
    records on the pair links).

    Attributes:
        names: party names in mesh slot order (shared with every
            manifest submitted to this mesh).
        ports: ``{party: port}`` -- each daemon's single listen port;
            higher-slot daemons dial lower-slot daemons' ports, and
            clients dial every daemon's port.
        host: bind/dial host (loopback by design, like the manifest).
        timeout_s: per-receive timeout for a session coroutine parked
            on a pair link (``SessionLinkTransport.wait_message``).
        connect_timeout_s: link-up budget (daemon dials and accepts).
        net_delay_s: simulated one-way inbound latency per pair link --
            *real* event-loop time shared by all sessions on the
            connection, so cross-session latency hiding is measured,
            not modeled (see :class:`~repro.net.transport.AsyncTcpTransport`).
        engine_workers: worker processes for the daemon's shared
            :class:`~repro.crypto.engine.ModexpEngine` (1 = serial).
        max_sessions: per-daemon cap on concurrently running sessions;
            a ``start_session`` arriving while the cap is full is
            answered with a typed ``session_rejected`` control record
            instead of queueing unboundedly.  0 means unlimited.
        link_auth: when true, every daemon-daemon and client-daemon
            link carries per-frame HMACs keyed by a pre-shared key
            (supplied out of band via ``--psk`` / ``REPRO_PSK``, never
            written into the spec).  The flag is inside the mesh
            digest, so authenticated and unauthenticated deployments
            can never half-connect.
    """

    names: tuple[str, ...]
    ports: dict[str, int]
    host: str = DEFAULT_HOST
    timeout_s: float = 30.0
    connect_timeout_s: float = 15.0
    net_delay_s: float = 0.0
    engine_workers: int = 1
    max_sessions: int = 0
    link_auth: bool = False
    version: int = field(default=1)

    def __post_init__(self):
        if len(self.names) < 2:
            raise DaemonError("a mesh needs at least two parties")
        if len(set(self.names)) != len(self.names):
            raise DaemonError(f"duplicate party names in {self.names}")
        if set(self.ports) != set(self.names):
            raise DaemonError(
                f"ports must cover exactly the party names "
                f"{sorted(self.names)}, got {sorted(self.ports)}")
        if self.timeout_s <= 0:
            raise DaemonError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.connect_timeout_s <= 0:
            raise DaemonError(
                f"connect_timeout_s must be > 0, got "
                f"{self.connect_timeout_s}")
        if self.net_delay_s < 0:
            raise DaemonError(
                f"net_delay_s must be >= 0, got {self.net_delay_s}")
        if self.engine_workers < 1:
            raise DaemonError(
                f"engine_workers must be >= 1, got {self.engine_workers}")
        if self.max_sessions < 0:
            raise DaemonError(
                f"max_sessions must be >= 0 (0 = unlimited), got "
                f"{self.max_sessions}")

    def slot_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DaemonError(f"unknown party {name!r}") from None

    def peers_of(self, name: str) -> list[str]:
        self.slot_of(name)
        return [other for other in self.names if other != name]

    def ordered_pair(self, a: str, b: str) -> tuple[str, str]:
        """The pair in slot order (matches mesh/manifest orientation)."""
        return (a, b) if self.slot_of(a) < self.slot_of(b) else (b, a)

    def to_json(self) -> str:
        payload = {
            "names": list(self.names),
            "ports": dict(self.ports),
            "host": self.host,
            "timeout_s": self.timeout_s,
            "connect_timeout_s": self.connect_timeout_s,
            "net_delay_s": self.net_delay_s,
            "engine_workers": self.engine_workers,
            "max_sessions": self.max_sessions,
            "link_auth": self.link_auth,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, payload: str) -> "MeshSpec":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise DaemonError(f"unreadable mesh spec: {exc}") from exc
        try:
            return cls(
                names=tuple(data["names"]),
                ports=dict(data["ports"]),
                host=data.get("host", DEFAULT_HOST),
                timeout_s=data.get("timeout_s", 30.0),
                connect_timeout_s=data.get("connect_timeout_s", 15.0),
                net_delay_s=data.get("net_delay_s", 0.0),
                engine_workers=data.get("engine_workers", 1),
                max_sessions=data.get("max_sessions", 0),
                link_auth=bool(data.get("link_auth", False)),
                version=data.get("version", 1),
            )
        except KeyError as exc:
            raise DaemonError(f"mesh spec missing field {exc}") from exc


def mesh_digest(spec: MeshSpec) -> str:
    """SHA-256 over the canonical spec JSON -- the handshake binding."""
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


# -- async handshake plumbing (asyncio streams, not FramedConnection) ------

async def _send_frame(writer: asyncio.StreamWriter, kind: bytes,
                      payload: bytes,
                      authenticator: FrameAuthenticator | None = None,
                      ) -> None:
    if authenticator is not None:
        payload = authenticator.seal(kind, payload)
    writer.write(encode_frame(kind, payload))
    await writer.drain()


async def _refuse_stream(writer: asyncio.StreamWriter, name: str,
                         reason: str,
                         authenticator: FrameAuthenticator | None = None,
                         ) -> None:
    try:
        payload = f"handshake refused: {reason}".encode()
        if authenticator is not None:
            payload = authenticator.seal(FRAME_GOODBYE, payload)
        writer.write(encode_frame(FRAME_GOODBYE, payload))
        await writer.drain()
    except (ConnectionResetError, OSError):
        pass
    writer.close()
    raise HandshakeError(f"{name}: {reason}")


async def read_hello_async(reader: asyncio.StreamReader,
                           name: str,
                           authenticator: FrameAuthenticator | None = None,
                           ) -> Hello:
    """The asyncio twin of :func:`repro.runtime.handshake.read_hello`."""
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


def _session_id_of(manifest_json: str) -> str:
    """Best-effort session id extraction for a rejection reply; the
    manifest has not been validated yet, so never trust its shape."""
    try:
        return str(json.loads(manifest_json).get("session_id", "?"))
    except (json.JSONDecodeError, AttributeError, TypeError):
        return "?"


@dataclass
class _SessionState:
    """Everything one running session owns inside the daemon."""

    manifest: RunManifest
    points: list
    views: dict = field(default_factory=dict)      # peer -> link view
    channels: dict = field(default_factory=dict)   # peer -> MirrorChannel
    sessions: dict = field(default_factory=dict)   # peer -> SmcSession
    parties: dict = field(default_factory=dict)    # peer -> {name: Party}


class _SessionMeshView:
    """The ``PartyMesh`` surface of one daemon session's k-1 links.

    The daemon twin of ``repro.runtime.party._LocalMeshView``:
    ``begin_peer_query`` emits the session-tagged query-announcement
    control frame, from the session's pass coroutine on the event loop.
    """

    _QUERY_WIRE = serialize_message([CONTROL_QUERY])

    def __init__(self, local_name: str, state: _SessionState):
        self._name = local_name
        self._state = state

    def peers_of(self, name: str) -> list[str]:
        return self._state.manifest.peers_of(name)

    def _peer(self, a: str, b: str) -> str:
        peer = b if a == self._name else a
        if peer not in self._state.channels:
            raise PartyRuntimeError(
                f"no link between {a!r} and {b!r} in daemon "
                f"{self._name!r}")
        return peer

    def session_between(self, a: str, b: str) -> SmcSession:
        return self._state.sessions[self._peer(a, b)]

    def party_in_pair(self, name: str, peer: str) -> Party:
        return self._state.parties[self._peer(name, peer)][name]

    def begin_peer_query(self, driver_name: str, peer_name: str) -> None:
        self._state.views[peer_name].send_control(self._QUERY_WIRE)


class PartyDaemon:
    """One resident party: accepts sessions, multiplexes them over one
    persistent connection per mesh pair.

    Lifecycle: construct, then :meth:`run` (blocking; owns its own
    event loop) or ``await`` :meth:`serve` on an existing loop.
    :attr:`ready` is set -- thread-safely -- once every pair link is up
    and sessions can be served; :meth:`stop` (thread-safe) tears the
    daemon down from anywhere.
    """

    def __init__(self, spec: MeshSpec, name: str, *,
                 psk: str | None = None, bind_host: str | None = None,
                 metrics: MetricsRegistry | None = None,
                 trace_dir: str | None = None):
        spec.slot_of(name)
        self.spec = spec
        self.name = name
        self.digest = mesh_digest(spec)
        self.bind_host = bind_host
        if spec.link_auth and not psk:
            raise DaemonError(
                f"mesh spec requires link authentication but daemon "
                f"{name!r} was given no PSK (pass psk=... / --psk / "
                f"REPRO_PSK)")
        # The MAC context is the mesh digest: both ends know it a
        # priori, and it differs per mesh, so frames replayed from
        # another mesh fail verification.  A stray psk with
        # link_auth=False is ignored -- the digest-bound flag decides.
        self._authenticator = (FrameAuthenticator(psk, self.digest)
                               if spec.link_auth else None)
        self.engine = ModexpEngine(workers=spec.engine_workers)
        self.engine_warm = False
        self.randomness = RandomnessService(engine=self.engine)
        self.hubs: dict[str, AsyncTcpTransport] = {}
        self.sessions_run = 0
        self.ready = threading.Event()
        self.error: BaseException | None = None
        self._setup_seconds = 0.0
        self._active: set[str] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._links_ready: asyncio.Event | None = None
        self._hub_events: dict[str, asyncio.Event] = {}
        self._session_tasks: set[asyncio.Task] = set()
        self._refill_task: asyncio.Task | None = None
        self._draining = False
        self._drain = False
        # Observability: every subsystem of this daemon reports into
        # one registry (the `repro stats` / get_metrics source) and one
        # per-party tracer.  Both default to disabled null objects, so
        # an un-instrumented daemon pays single no-op calls.
        if metrics is None:
            metrics = MetricsRegistry(enabled=True)
        self.metrics = metrics
        self.tracer: Tracer = tracer_for(trace_dir, name)
        self._obs_admitted = metrics.counter("repro_sessions_admitted_total")
        self._obs_completed = metrics.counter(
            "repro_sessions_completed_total")
        self._obs_failed = metrics.counter("repro_sessions_failed_total")
        self._obs_rejected = {
            code: metrics.counter("repro_sessions_rejected_total",
                                  code=code)
            for code in (REJECT_CAPACITY, REJECT_DRAINING)}
        self._obs_threads = metrics.gauge("repro_daemon_threads")
        self._obs_segments = {
            mode: metrics.counter("repro_segment_frames_total", mode=mode)
            for mode in ("live", "replayed")}
        metrics.register_collector(self._collect_metrics)

    def _observe_thread_count(self) -> int:
        """The scale-out observable, published once: every reader (the
        per-session ``runtime_info``, the snapshot gauge) goes through
        here, so the two can never disagree."""
        count = threading.active_count()
        self._obs_threads.set(count)
        return count

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Snapshot-time levels: cheaper to read on demand than track."""
        self._observe_thread_count()
        registry.gauge("repro_sessions_active").set(len(self._active))
        registry.gauge("repro_sessions_run").set(self.sessions_run)
        registry.gauge("repro_daemon_draining").set(int(self._draining))
        registry.gauge("repro_daemon_setup_seconds").set(
            round(self._setup_seconds, 6))
        for key, value in self.engine.report().items():
            registry.gauge("repro_engine", stat=key).set(value)
        for key, value in self.randomness.report().items():
            registry.gauge("repro_randomness", stat=key).set(value)
        for key, value in powmod_cache_report().items():
            registry.gauge("repro_powmod_cache", stat=key).set(value)

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        """Blocking entry point: serve until :meth:`stop` (or a fatal
        link-up error).  Records the failure in :attr:`error` so a
        harness thread can surface it."""
        try:
            asyncio.run(self.serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced to harness
            self.error = exc
            self.ready.set()  # unblock anyone waiting on startup
            raise

    def stop(self, drain: bool = False) -> None:
        """Request teardown from any thread.

        ``drain=True`` is the graceful variant: the daemon stops
        accepting sessions (submits get a typed ``draining`` rejection),
        lets every in-flight session coroutine finish, and only then
        closes its links.  ``drain=False`` cancels in-flight sessions.
        """
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._begin_stop, drain)
            except RuntimeError:
                pass  # loop already closed

    def _begin_stop(self, drain: bool) -> None:
        """Loop-thread half of :meth:`stop` (also the shutdown-record
        path).  A drain request never downgrades to a hard stop, but a
        hard stop overrides a drain in progress."""
        self._draining = True
        if drain:
            self._drain = True
        else:
            self._drain = False
        self._stop_event.set()

    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._links_ready = asyncio.Event()
        for peer in self.spec.peers_of(self.name):
            self._hub_events[peer] = asyncio.Event()
        started = time.perf_counter()
        server = await asyncio.start_server(
            self._on_connection, self.bind_host or self.spec.host,
            self.spec.ports[self.name])
        try:
            # Engine warm-up off the loop: accepting links while the
            # worker pool boots.
            self.engine_warm = await self._loop.run_in_executor(
                None, self.engine.warm_up)
            await self._link_up()
            self._setup_seconds = time.perf_counter() - started
            self._refill_task = self._loop.create_task(
                self.randomness.refill_idle())
            self._links_ready.set()
            self.ready.set()
            await self._stop_event.wait()
            if self._drain and self._session_tasks:
                # Graceful path: in-flight sessions run to completion
                # (their reports still reach the clients) while new
                # submits are rejected with the `draining` code.
                await asyncio.gather(*list(self._session_tasks),
                                     return_exceptions=True)
        finally:
            self._draining = True
            for task in list(self._session_tasks):
                task.cancel()
            if self._refill_task is not None:
                self._refill_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._refill_task
            self.randomness.close()
            for hub in self.hubs.values():
                await hub.aclose("daemon stopping")
            server.close()
            await server.wait_closed()
            self.engine.close()
            self.tracer.close()

    # -- pair link-up ------------------------------------------------------

    def _pair_hello(self, peer: str) -> Hello:
        left, right = self.spec.ordered_pair(self.name, peer)
        return Hello(version=PROTOCOL_VERSION, session_id="",
                     pair_left=left, pair_right=right,
                     party_id=self.name, config_digest=self.digest,
                     role=ROLE_DAEMON).authenticated(self._authenticator)

    def _register_hub(self, peer: str, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        left, right = self.spec.ordered_pair(self.name, peer)
        hub = AsyncTcpTransport(left, right, self.name,
                                timeout_s=self.spec.timeout_s,
                                net_delay_s=self.spec.net_delay_s,
                                authenticator=self._authenticator,
                                metrics=self.metrics)
        hub.start(reader, writer)
        self.hubs[peer] = hub
        self._hub_events[peer].set()

    async def _link_up(self) -> None:
        """Dial lower-slot peers, await higher-slot peers' dials."""
        my_slot = self.spec.slot_of(self.name)
        for peer in self.spec.names:
            if self.spec.slot_of(peer) < my_slot:
                await self._dial_peer(peer)
        for peer in self.spec.names:
            if self.spec.slot_of(peer) > my_slot:
                try:
                    await asyncio.wait_for(self._hub_events[peer].wait(),
                                           self.spec.connect_timeout_s)
                except asyncio.TimeoutError:
                    raise DaemonError(
                        f"daemon {self.name!r} waited "
                        f"{self.spec.connect_timeout_s}s for peer daemon "
                        f"{peer!r} to dial; it never linked up") from None

    async def _dial_peer(self, peer: str) -> None:
        deadline = self._loop.time() + self.spec.connect_timeout_s
        name = f"daemon {self.name}->{peer}"
        last_error: Exception | None = None
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    self.spec.host, self.spec.ports[peer])
            except OSError as exc:
                last_error = exc
                if self._loop.time() >= deadline:
                    break
                await asyncio.sleep(_DIAL_BACKOFF_S)
                continue
            mine = self._pair_hello(peer)
            try:
                await _send_frame(writer, FRAME_HELLO, mine.to_wire(),
                                  self._authenticator)
                theirs = await asyncio.wait_for(
                    read_hello_async(reader, name, self._authenticator),
                    self.spec.connect_timeout_s)
            except HandshakePeerLost as exc:
                # The peer daemon may be booting (accepted, not yet
                # serving); retry within the budget.
                writer.close()
                last_error = exc
                if self._loop.time() >= deadline:
                    break
                await asyncio.sleep(_DIAL_BACKOFF_S)
                continue
            except asyncio.TimeoutError:
                writer.close()
                last_error = TimeoutError("hello answer timed out")
                break
            mismatch = hello_mismatch(mine, theirs, expected_peer=peer,
                                      authenticator=self._authenticator)
            if mismatch is not None:
                field_name, ours, theirs_value = mismatch
                await _refuse_stream(
                    writer, name,
                    f"{field_name} mismatch: ours {ours!r}, "
                    f"peer {theirs_value!r}", self._authenticator)
            self._register_hub(peer, reader, writer)
            return
        raise DaemonError(
            f"daemon {self.name!r} could not link peer daemon {peer!r} "
            f"within {self.spec.connect_timeout_s}s: {last_error}")

    # -- accept loop -------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        name = f"daemon {self.name} accept"
        try:
            theirs = await asyncio.wait_for(
                read_hello_async(reader, name, self._authenticator),
                self.spec.connect_timeout_s)
            if theirs.role == ROLE_DAEMON:
                await self._accept_peer(theirs, reader, writer)
            elif theirs.role == ROLE_CLIENT:
                await self._serve_client(theirs, reader, writer)
            else:
                await _refuse_stream(
                    writer, name,
                    f"unknown endpoint role {theirs.role!r}",
                    self._authenticator)
        except FrameAuthenticationError:
            # Unauthenticated endpoint (wrong or missing PSK): drop the
            # connection without an answer; the daemon itself stays up.
            self.metrics.counter(
                "repro_accept_auth_failures_total").inc()
            writer.close()
        except (HandshakeError, asyncio.TimeoutError):
            writer.close()
        except (ConnectionResetError, OSError):
            writer.close()

    async def _accept_peer(self, theirs: Hello,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        name = f"daemon {self.name} accept"
        peer = theirs.party_id
        if peer not in self.spec.names or peer == self.name:
            await _refuse_stream(writer, name,
                                 f"unknown peer daemon {peer!r}",
                                 self._authenticator)
        if self.spec.slot_of(peer) < self.spec.slot_of(self.name):
            await _refuse_stream(
                writer, name,
                f"slot order violation: {peer!r} holds a lower mesh slot "
                f"and must be dialed, not accept from us",
                self._authenticator)
        mine = self._pair_hello(peer)
        mismatch = hello_mismatch(mine, theirs, expected_peer=peer,
                                  authenticator=self._authenticator)
        if mismatch is not None:
            field_name, ours, theirs_value = mismatch
            await _refuse_stream(
                writer, name,
                f"{field_name} mismatch: ours {ours!r}, "
                f"peer {theirs_value!r}", self._authenticator)
        await _send_frame(writer, FRAME_HELLO, mine.to_wire(),
                          self._authenticator)
        self._register_hub(peer, reader, writer)

    # -- client plane ------------------------------------------------------

    async def _serve_client(self, theirs: Hello,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        name = f"daemon {self.name} client"
        mismatch = client_hello_mismatch(theirs, self.digest,
                                         authenticator=self._authenticator)
        if mismatch is not None:
            field_name, ours, theirs_value = mismatch
            await _refuse_stream(
                writer, name,
                f"{field_name} mismatch: ours {ours!r}, "
                f"client {theirs_value!r}", self._authenticator)
        mine = Hello(version=PROTOCOL_VERSION, session_id="",
                     pair_left=theirs.pair_left,
                     pair_right=theirs.pair_right,
                     party_id=self.name, config_digest=self.digest,
                     role=ROLE_DAEMON).authenticated(self._authenticator)
        await _send_frame(writer, FRAME_HELLO, mine.to_wire(),
                          self._authenticator)

        write_lock = asyncio.Lock()

        async def send_record(record: list) -> None:
            payload = serialize_message(record)
            if self._authenticator is not None:
                payload = self._authenticator.seal(FRAME_CONTROL, payload)
            frame = encode_frame(FRAME_CONTROL, payload)
            async with write_lock:
                try:
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionResetError, OSError):
                    pass  # client gone; the session result is lost with it

        try:
            while True:
                try:
                    kind, payload = await read_frame_async(
                        reader, name=name,
                        authenticator=self._authenticator)
                except (ConnectionClosedError, FramingError):
                    # FrameAuthenticationError lands here too: an
                    # unauthenticated client frame just drops the
                    # connection -- the daemon keeps serving others.
                    return
                if kind == FRAME_GOODBYE:
                    return
                if kind != FRAME_CONTROL:
                    return
                try:
                    record = deserialize_message(payload)
                except (SerializationError, UnicodeDecodeError):
                    return
                if not isinstance(record, list) or not record:
                    return
                if record[0] == CONTROL_SHUTDOWN:
                    drain = (len(record) > 1
                             and record[1] == SHUTDOWN_DRAIN)
                    self._begin_stop(drain)
                    if drain:
                        # Keep serving this connection: the in-flight
                        # sessions' reports still flow back to the
                        # client that requested the drain, and further
                        # submits get the typed rejection below.
                        continue
                    return
                if record[0] == CONTROL_GET_METRICS and len(record) == 2:
                    # Read-only introspection: answered inline (before
                    # any admission gate) so a draining or saturated
                    # daemon can still be watched.
                    await send_record([
                        CONTROL_METRICS, record[1],
                        json.dumps(self.metrics.snapshot(),
                                   sort_keys=True)])
                    continue
                if record[0] != CONTROL_START_SESSION or len(record) != 3:
                    return
                if self._draining:
                    self._obs_rejected[REJECT_DRAINING].inc()
                    await send_record([
                        CONTROL_SESSION_REJECTED,
                        _session_id_of(record[1]),
                        f"daemon {self.name!r} is draining for shutdown "
                        f"and accepts no new sessions",
                        REJECT_DRAINING])
                    continue
                if (self.spec.max_sessions
                        and len(self._session_tasks)
                        >= self.spec.max_sessions):
                    self._obs_rejected[REJECT_CAPACITY].inc()
                    await send_record([
                        CONTROL_SESSION_REJECTED,
                        _session_id_of(record[1]),
                        f"daemon {self.name!r} is at its max_sessions "
                        f"cap ({self.spec.max_sessions}); resubmit "
                        f"when a session finishes",
                        REJECT_CAPACITY])
                    continue
                self._obs_admitted.inc()
                task = self._loop.create_task(
                    self._session_task(record[1], record[2], send_record))
                self._session_tasks.add(task)
                task.add_done_callback(self._session_tasks.discard)
        finally:
            writer.close()

    async def _session_task(self, manifest_json: str, points_json: str,
                            send_record) -> None:
        session_id = "?"
        try:
            manifest = RunManifest.from_json(manifest_json)
            session_id = manifest.session_id
            points = [tuple(point) for point in json.loads(points_json)]
            report = await self._run_session(manifest, points)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported to the client
            self._obs_failed.inc()
            await send_record([CONTROL_SESSION_FAILED, session_id,
                               f"{type(exc).__name__}: {exc}"])
        else:
            self._obs_completed.inc()
            await send_record([CONTROL_SESSION_REPORT,
                               manifest.session_id, report.to_json()])

    # -- session execution -------------------------------------------------

    def _validate_session(self, manifest: RunManifest,
                          points: list) -> None:
        if tuple(manifest.names) != self.spec.names:
            raise DaemonError(
                f"manifest names {manifest.names} do not match the mesh "
                f"spec {self.spec.names}")
        if len(points) != manifest.counts[self.name]:
            raise DaemonError(
                f"partition for {self.name!r} has {len(points)} points "
                f"but the manifest declares "
                f"{manifest.counts[self.name]}")
        for point in points:
            if len(point) != manifest.dimensions:
                raise DaemonError(
                    f"point {point!r} has {len(point)} dimensions, "
                    f"manifest declares {manifest.dimensions}")
        if manifest.session_id in self._active:
            raise DaemonError(
                f"session {manifest.session_id!r} is already running on "
                f"daemon {self.name!r}")

    async def _run_session(self, manifest: RunManifest,
                           points: list) -> PartyReport:
        await self._links_ready.wait()
        started = time.perf_counter()
        self._validate_session(manifest, points)
        digest = manifest_digest(manifest)
        config = manifest.protocol_config()
        # Inject the daemon's shared warmed engine.  The manifest
        # requires engine=None (engines cannot cross processes); the
        # engine changes where modexps run, never their results
        # (engine-vs-serial equivalence is property-tested since PR 2).
        config = dataclasses.replace(
            config, smc=dataclasses.replace(config.smc, engine=self.engine))
        session_index = self.sessions_run
        self.sessions_run += 1
        warm_start = session_index > 0
        self._active.add(manifest.session_id)

        state = _SessionState(manifest=manifest, points=points)
        lease = self.randomness.lease(manifest.session_id)
        lease_report: dict | None = None
        runtimes: dict[str, PairRuntime] = {}
        session_span = self.tracer.span(
            "session", manifest.session_id,
            session_index=session_index, warm_start=warm_start,
            parties=len(manifest.names), points=len(points))
        try:
            for peer in manifest.peers_of(self.name):
                view = self.hubs[peer].session(manifest.session_id)
                state.views[peer] = view
                channel = RestartableMirrorChannel(
                    view.left_name, view.right_name, self.name, view)
                channel.obs_live = self._obs_segments["live"]
                channel.obs_replayed = self._obs_segments["replayed"]
                state.channels[peer] = channel
                runtime = PairRuntime(channel, view, lease)
                runtime.obs_restarts = self.metrics.counter(
                    "repro_restarts_total")
                runtime.obs_parked = self.metrics.gauge(
                    "repro_parked_coroutines")
                runtimes[peer] = runtime
            await self._session_sync(state, digest)
            await self._build_sessions(state, config, runtimes)
            self._register_pools(state, lease)
            setup_seconds = time.perf_counter() - started
            session_span.set(setup_seconds=round(setup_seconds, 6))

            view = _SessionMeshView(self.name, state)
            points_view = {
                name: (state.points if name == self.name
                       else manifest.placeholder_points(name))
                for name in manifest.names}
            ledger = LeakageLedger()
            labels: tuple[int, ...] = ()
            passes_started = time.perf_counter()
            for pass_index, driver in enumerate(manifest.names):
                role = "drive" if driver == self.name else "respond"
                with session_span.child("pass", f"pass{pass_index}",
                                        index=pass_index, role=role,
                                        driver=driver) as pass_span:
                    if driver == self.name:
                        labels = await self._drive_pass(
                            state, view, points_view, config, ledger,
                            runtimes, span=pass_span)
                    else:
                        served = await self._respond_pass(
                            state, driver, config, runtimes,
                            span=pass_span)
                        pass_span.set(served=served)
            finished = time.perf_counter()
            lease_report = self.randomness.release(manifest.session_id)
            restarts = sum(rt.restarts for rt in runtimes.values())
            session_span.set(restarts=restarts)
            return self._build_report(
                state, labels, ledger,
                elapsed=finished - started,
                passes=finished - passes_started,
                runtime_info=self._runtime_info(
                    state, session_index, warm_start, setup_seconds,
                    runtimes, lease_report))
        finally:
            session_span.close()
            if lease_report is None:
                with contextlib.suppress(PrecomputeError):
                    self.randomness.release(manifest.session_id)
            for link_view in state.views.values():
                link_view.close()
            self._active.discard(manifest.session_id)

    async def _session_sync(self, state: _SessionState,
                            digest: str) -> None:
        """Cross-check the manifest digest with every peer daemon.

        The pair handshake bound only the mesh spec; each *session* is
        validated here, before any protocol byte of it flows: both ends
        of every link announce the digest of the manifest they were
        handed and refuse the session on mismatch.  Per-link FIFO makes
        this record the first control record of the session stream, so
        it can never be confused with a query announcement.
        """
        wire = serialize_message([CONTROL_SESSION_SYNC, digest])
        for view in state.views.values():
            view.send_control(wire)

        async def check(peer, view):
            try:
                raw = await asyncio.wait_for(view.next_control(),
                                             self.spec.timeout_s)
            except asyncio.TimeoutError:
                raise DaemonError(
                    f"peer daemon {peer!r} never answered the session "
                    f"sync for {state.manifest.session_id!r}") from None
            record = deserialize_message(raw)
            if (not isinstance(record, list) or len(record) != 2
                    or record[0] != CONTROL_SESSION_SYNC
                    or not isinstance(record[1], str)):
                raise DaemonError(
                    f"malformed session sync from {peer!r}: {record!r}")
            # compare_digest: same constant-time treatment as every
            # other digest comparison on the runtime's trust boundary.
            if not hmac.compare_digest(record[1], digest):
                raise DaemonError(
                    f"manifest digest mismatch with peer daemon {peer!r} "
                    f"for session {state.manifest.session_id!r}: ours "
                    f"{digest[:12]}..., theirs {str(record[1])[:12]}...")

        await asyncio.gather(*(check(peer, view)
                               for peer, view in state.views.items()))

    async def _build_sessions(self, state: _SessionState, config,
                              runtimes: dict[str, PairRuntime]) -> None:
        """Event-loop twin of ``PartyProcess.build_sessions``: same
        global pair order, same key slots, same RNG substreams.

        Key material is sealed exactly like the dedicated-process
        runtime's: this daemon derives only its *own* slot's keypair;
        every peer context is a sealed placeholder whose authentic
        public key arrives over the wire during session setup, pinned
        against the manifest's ``key_digests`` when present.

        The key exchange inside ``SmcSession`` is itself a choreography
        (sends and receives on the pair channel), so it runs through
        the restartable runner: an attempt that reaches the peer's
        announcement before it has arrived unwinds and rebuilds from
        scratch once the frame lands.  Rebuilding is cheap (the keypair
        is process-cached after the first session) and deterministic --
        party RNGs are re-derived from the manifest seeds, so every
        attempt re-produces byte-identical announcements, which the
        channel's replay check enforces.  Pairs build sequentially in
        the same global order on every daemon; each daemon's outbound
        announcements are produced without waiting on the peer's, so
        the order admits no circular wait.
        """
        manifest = state.manifest
        provider = SealedKeyProvider(config.smc, self.name,
                                     key_digests=manifest.key_digests)
        contexts = {name: provider.context_for(name, slot)
                    for slot, name in enumerate(manifest.names)}
        for left, right in manifest.pairs():
            if self.name not in (left, right):
                continue
            peer = right if self.name == left else left
            channel = state.channels[peer]

            def build(_ledger, left=left, right=right, channel=channel):
                left_party = Party(channel.left, derive_pair_rng(
                    manifest.seed_of(left), left, left, right,
                    namespace=manifest.rng_namespace))
                right_party = Party(channel.right, derive_pair_rng(
                    manifest.seed_of(right), right, left, right,
                    namespace=manifest.rng_namespace))
                session = SmcSession(left_party, right_party, config.smc,
                                     preset_contexts=contexts)
                return left_party, right_party, session

            left_party, right_party, session = await runtimes[peer].run(
                build)
            state.parties[peer] = {left: left_party, right: right_party}
            state.sessions[peer] = session
            runtimes[peer].session = session

    def _register_pools(self, state: _SessionState, lease) -> None:
        """Hand the hosted party's pools to the randomness service.

        Only this daemon's own party draws from its pools here (the
        peer's steps run in the peer's daemon), so the peer-actor pools
        are never registered or prefilled.  Registration prefills each
        pool to the demand the service learned from released sessions
        under the same keypair -- the cross-session warm start.  The
        pools themselves (and their factor values) stay session-private.
        """
        for session in state.sessions.values():
            for (actor, owner), pool in session.pools().items():
                if actor != self.name:
                    continue
                digest = public_key_digest(
                    session.paillier_keys(owner).public_key)
                lease.register_pool(pool, digest, actor == owner)

    async def _drive_pass(self, state: _SessionState, view, points_view,
                          config, ledger,
                          runtimes: dict[str, PairRuntime],
                          span=None) -> tuple[int, ...]:
        manifest = state.manifest
        caches = ({peer: PeerCipherCache()
                   for peer in manifest.peers_of(self.name)}
                  if config.cache_peer_ciphertexts else None)
        for peer, runtime in runtimes.items():
            runtime.cache = caches[peer] if caches is not None else None
        try:
            labels = await drive_pass_async(
                view, self.name, points_view, config,
                manifest.value_bound, ledger, caches, runtimes,
                span=span if span is not None else NULL_SPAN)
        finally:
            for runtime in runtimes.values():
                runtime.cache = None
        end = serialize_message([CONTROL_END_PASS])
        for peer in manifest.peers_of(self.name):
            state.views[peer].send_control(end)
        return labels.as_tuple()

    async def _respond_pass(self, state: _SessionState, driver: str,
                            config,
                            runtimes: dict[str, PairRuntime],
                            span=None) -> int:
        """Serve one remote driver's pass (coroutine twin of
        ``PartyProcess._respond_pass``).

        Waiting for the next control record is unbounded *by design* --
        the driver may spend arbitrarily long on its other peers -- and
        costs no thread while parked: a dead peer surfaces through the
        hub's poison, and each announced query runs the unchanged
        ``secure_peer_neighbor_count`` choreography inline through the
        restartable runner.  The per-attempt ledger is discarded (the
        responder's disclosure view is the driver's report, not this
        daemon's).
        """
        manifest = state.manifest
        link = state.views[driver]
        session = state.sessions[driver]
        pair_parties = state.parties[driver]
        runtime = runtimes[driver]
        cache = (PeerCipherCache() if config.cache_peer_ciphertexts
                 else None)
        runtime.cache = cache
        placeholder = tuple([0] * manifest.dimensions)
        label = f"multiparty/{driver}-{self.name}"

        def serve_query(attempt_ledger: LeakageLedger) -> int:
            return secure_peer_neighbor_count(
                session, pair_parties[driver], placeholder,
                pair_parties[self.name], state.points, config,
                manifest.value_bound, attempt_ledger, cache, label=label,
                cached_label=f"{label}/cached")

        if span is None:
            span = NULL_SPAN
        served = 0
        try:
            while True:
                raw = await link.next_control()
                try:
                    record = deserialize_message(raw)
                except (SerializationError, UnicodeDecodeError) as exc:
                    raise PartyRuntimeError(
                        f"unreadable control record from {driver!r}: "
                        f"{exc}") from exc
                if (not isinstance(record, list) or not record
                        or record[0] not in (CONTROL_QUERY,
                                             CONTROL_END_PASS)):
                    raise PartyRuntimeError(
                        f"malformed control record from {driver!r}: "
                        f"{record!r}")
                if record[0] == CONTROL_END_PASS:
                    return served
                served += 1
                with span.child("peer_query", f"serve{served}:{driver}",
                                step=served - 1,
                                peer=driver) as query_span:
                    await runtime.run(serve_query, span=query_span)
        finally:
            runtime.cache = None

    # -- reporting ---------------------------------------------------------

    def _runtime_info(self, state: _SessionState, session_index: int,
                      warm_start: bool, setup_seconds: float,
                      runtimes: dict[str, PairRuntime] | None = None,
                      lease_report: dict | None = None) -> dict:
        # One accounting source: the session's pool totals come from
        # its lease's hit report (the same numbers the randomness
        # service folds into the registry at release), not a second
        # sum over the pools.  The fallback re-sum only covers a
        # session that died before its lease released.
        if lease_report is not None:
            pool_totals = {key: lease_report.get(key, 0)
                           for key in ("pregenerated", "consumed",
                                       "misses")}
        else:
            pool_totals = {"pregenerated": 0, "consumed": 0, "misses": 0}
            for session in state.sessions.values():
                for report in session.pool_report().values():
                    for key in pool_totals:
                        pool_totals[key] += report.get(key, 0)
        info = {
            "runtime": "daemon",
            "pass_model": "async-restartable",
            "session_index": session_index,
            "warm_start": warm_start,
            "engine_warm": self.engine_warm,
            "engine": self.engine.report(),
            "daemon_setup_seconds": round(self._setup_seconds, 6),
            "setup_seconds": round(setup_seconds, 6),
            "pool": pool_totals,
            # The scale-out observable: loop + engine machinery only,
            # independent of how many sessions run concurrently.
            # Published through the registry gauge so `repro stats`
            # and per-session reports can never disagree.
            "thread_count": self._observe_thread_count(),
        }
        if runtimes is not None:
            info["restarts"] = sum(rt.restarts for rt in runtimes.values())
        if lease_report is not None:
            info["randomness"] = {
                "lease": lease_report,
                "service": self.randomness.report(),
            }
        return info

    def _build_report(self, state: _SessionState, labels, ledger, *,
                      elapsed: float, passes: float,
                      runtime_info: dict) -> PartyReport:
        pair_reports = {}
        for peer, channel in state.channels.items():
            channel.assert_drained()
            key = pair_key(*self.spec.ordered_pair(self.name, peer))
            pair_reports[key] = {
                "stats": channel.stats.snapshot(),
                "transcript_sha256": transcript_digest(channel.transcript),
                "messages": channel.transcript.message_count(),
                "comparisons":
                    state.sessions[peer].comparison_backend.invocations,
            }
        events = tuple((event.protocol, event.learner,
                        event.disclosure.value, event.detail)
                       for event in ledger.events)
        return PartyReport(party=self.name, labels=tuple(labels),
                           ledger_events=events,
                           pair_reports=pair_reports,
                           elapsed_seconds=elapsed,
                           passes_seconds=passes,
                           runtime_info=runtime_info)


def run_daemon(spec_path, name: str, *, psk: str | None = None,
               bind_host: str | None = None,
               trace_dir: str | None = None) -> None:
    """CLI entry: load the mesh spec and serve until stopped.

    ``psk`` falls back to the ``REPRO_PSK`` environment variable so the
    secret never has to appear on a command line or in the spec file;
    ``trace_dir`` falls back to ``REPRO_TRACE_DIR``.
    """
    import pathlib

    if psk is None:
        psk = os.environ.get("REPRO_PSK") or None
    if trace_dir is None:
        trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
    spec = MeshSpec.from_json(pathlib.Path(spec_path).read_text())
    daemon = PartyDaemon(spec, name, psk=psk, bind_host=bind_host,
                         trace_dir=trace_dir)
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
