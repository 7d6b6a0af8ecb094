"""Party daemon: one event loop, many clustering sessions.

``k`` daemons (one per data holder, described by a shared
:class:`MeshSpec`) hold one persistent TCP connection per mesh pair and
accept ``start_session`` requests from clients, each carrying a full
:class:`~repro.runtime.manifest.RunManifest` plus that daemon's own
partition -- the per-process privacy boundary: no daemon ever receives
a peer's points.  The daemons are the one distributed runtime: a
standing mesh (``repro serve``) and ``repro orchestrate``'s throwaway
fleet, which re-runs a failed session on a fresh fleet, run the same
code.

Execution model
---------------

One :mod:`asyncio` event loop per daemon owns *all* socket I/O: every
pair connection is an :class:`~repro.net.transport.AsyncTcpTransport`
hub whose demux task routes inbound session-tagged ``m``/``c`` frames
into per-session future queues.  The protocol choreographies are
coroutines and run on the event loop (:mod:`repro.runtime.async_pass`):
a choreography that reaches a frame not yet arrived awaits it on the
session's frame queue, and resumes where it stopped once the frame
lands, so every query runs once.  No session owns a worker thread, so
the daemon's thread count is O(1) in its session count -- the loop plus
the shared engine's workers, whatever the concurrency.

Overlapped passes and order-free density tests: the k driver passes of
a session do not depend on each other, and within a pass no density
test depends on another -- a point's count never depends on when the
expansion asks for it.  So a daemon runs all of its pass roles at once
-- its own drive pass next to one respond role per peer, in one task
group -- and each role runs its queries at once, on the
:func:`~repro.runtime.async_pass.run_points` schedule: one per (own
point of the driver, peer), each on its own stream
(:class:`~repro.multiparty.mesh.PairStream`), a sub-session of the pair
hub (tag ``<session>#<driver>#<point>``) with its own frame queue,
channel, coins and comparison counter.  The drive role then
expands its clusters locally over the counts.  A respond role serves
exactly the driver's point count from the manifest, so no control
record announces a query or ends a pass: a pass waits for its slowest
query, a session for its longest pass.  Reports carry each pair's
canonical concatenation of its key exchange and streams -- pass by pass,
each pass's queries in point order -- the same figures the in-process
mesh reports.

Single-flight start: at session start a daemon sends, in one flight,
its session-sync record (first on every link), its key announcements
and its drive pass's first-window queries -- the coordinates encrypted
under its own key -- and checks the peers' sync records next to its
pass roles.  Each announcement has its own mirror channel, so a pair's
two announcements cross at the same time; a drive role uses only its
own keys (unless it caches peer ciphertexts) and so waits for no
announcement; no peer's keys are adopted before every peer's record has
checked out, and a respond role starts once its driver's keys have
passed the shape and pinned-digest checks and been adopted -- all of
which arrived in the same flight as the driver's queries.  A session
spends no link delay on setup.

Randomness: each stream draws every Paillier randomness factor
online, once, from the hosted party's coins on that stream -- the
per-stream RNGs the in-process mesh uses.

Determinism: a session's coins, keys, and channel machinery are exactly
the in-process mesh's (same ``derive_pair_rng`` streams per (pair,
driver) --
optionally namespaced per session, see
:attr:`~repro.runtime.manifest.RunManifest.rng_namespace` -- same
own-slot key derivation with sealed peer contexts
(:class:`~repro.smc.session.SealedKeyProvider`), same
:class:`~repro.runtime.mirror.MirrorChannel`).  Multiplexing changes
which frames share a socket, never the bytes or per-(session, pair,
direction) order of any stream, so every session's labels, ledger,
per-pair transcripts, and comparison counts are bit-identical to the
in-process run (property-tested with interleaved concurrent sessions
in ``tests/runtime/test_daemon.py``).

Amortization: the daemon builds and warms one
:class:`~repro.crypto.engine.ModexpEngine` at startup and injects it
into every session's :class:`~repro.smc.session.SmcSession`; the
process-level key cache makes every session after the first reuse the
derived key material.  Each session's
:attr:`PartyReport.runtime_info` records whether
it warm-started and its setup figures, so the amortization is
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
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.distance import PeerCipherCache
from repro.core.leakage import Disclosure, LeakageEvent, LeakageLedger
from repro.crypto.engine import ModexpEngine
from repro.crypto.integer_math import powmod_cache_report
from repro.multiparty.horizontal import secure_peer_neighbor_count
from repro.multiparty.mesh import (
    PairStream,
    build_stream,
    link_accounting,
)
from repro.multiparty.scheduler import PeerQuery
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    ConnectionClosedError,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramingError,
    read_frame_async,
)
from repro.net.channel import drive
from repro.net.party import Party
from repro.net.serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)
from repro.net.transcript import transcript_digest
from repro.net.transport import (
    SESSION_SYNC_RECORD,
    STREAM_TAG_SEPARATOR,
    AsyncTcpTransport,
    TransportTimeoutError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, tracer_for
from repro.runtime.failure import classify_exception
from repro.runtime.faults import FaultPlan, PartyFaults
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    ROLE_CLIENT,
    ROLE_DAEMON,
    HandshakeError,
    HandshakePeerLost,
    Hello,
    _refuse_mismatch,
    _refuse_stream,
    _send_frame,
    client_hello_mismatch,
    hello_mismatch,
    read_hello_async,
)
from repro.runtime.manifest import (
    DEFAULT_HOST,
    RunManifest,
    json_field,
    json_object,
    manifest_digest,
    pair_key,
)
from repro.runtime.async_pass import (
    POINTS_IN_FLIGHT,
    PairRuntime,
    drive_pass_async,
    run_points,
)
from repro.runtime.mirror import MirrorChannel
from repro.smc.session import (
    SealedKeyProvider,
    announce_public_keys,
    receive_public_keys,
)

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
_DIAL_BACKOFF_S = 0.05


class DaemonError(RuntimeError):
    """Mesh-spec, link-up, or session-validation failure in a daemon."""


class PartyRuntimeError(RuntimeError):
    """Pass-sequencing failure inside a daemon session."""


@dataclass(frozen=True)
class PartyReport:
    """What one daemon hands back for one session.

    ``elapsed_seconds`` covers the whole session (sync, key derivation
    and exchange, passes); ``passes_seconds`` only its protocol passes
    (from the key announcements on), so benchmarks can separate
    round-trip cost from setup.
    ``runtime_info`` holds the daemon's per-session amortization
    figures: whether the session warm-started on an already-warmed
    engine, the engine's accounting and setup timings.
    """

    party: str
    labels: tuple[int, ...]
    ledger_events: tuple[tuple[str, str, str, str], ...]
    pair_reports: dict
    elapsed_seconds: float
    passes_seconds: float
    runtime_info: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "party": self.party,
            "labels": list(self.labels),
            "ledger_events": [list(event) for event in self.ledger_events],
            "pair_reports": self.pair_reports,
            "elapsed_seconds": self.elapsed_seconds,
            "passes_seconds": self.passes_seconds,
        }
        if self.runtime_info:
            payload["runtime_info"] = self.runtime_info
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, payload: str) -> "PartyReport":
        data = json.loads(payload)
        return cls(
            party=data["party"],
            labels=tuple(data["labels"]),
            ledger_events=tuple(tuple(event)
                                for event in data["ledger_events"]),
            pair_reports=data["pair_reports"],
            elapsed_seconds=data["elapsed_seconds"],
            passes_seconds=data["passes_seconds"],
            runtime_info=data.get("runtime_info", {}),
        )

    def ledger(self) -> LeakageLedger:
        ledger = LeakageLedger()
        for protocol, learner, disclosure, detail in self.ledger_events:
            ledger.events.append(LeakageEvent(
                protocol=protocol, learner=learner,
                disclosure=Disclosure(disclosure), detail=detail))
        return ledger


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
        if not all(isinstance(name, str) for name in self.names):
            raise DaemonError(f"party names must be strings: {self.names}")
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
        """Parse a spec; :class:`DaemonError` names the first missing
        or wrong-shaped field."""
        data = json_object(payload, DaemonError, "mesh spec")

        def get(name, types, *default):
            return json_field(data, name, types, DaemonError, "mesh spec",
                              *default)

        number = (int, float)
        return cls(
            names=tuple(get("names", list)),
            ports=dict(get("ports", dict)),
            host=get("host", str, DEFAULT_HOST),
            timeout_s=get("timeout_s", number, 30.0),
            connect_timeout_s=get("connect_timeout_s", number, 15.0),
            net_delay_s=get("net_delay_s", number, 0.0),
            engine_workers=get("engine_workers", int, 1),
            max_sessions=get("max_sessions", int, 0),
            link_auth=get("link_auth", bool, False),
            version=get("version", int, 1),
        )


def mesh_digest(spec: MeshSpec) -> str:
    """SHA-256 over the canonical spec JSON -- the handshake binding."""
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


def _session_id_of(manifest_json: str) -> str:
    """Best-effort session id extraction for a rejection reply; the
    manifest has not been validated yet, so never trust its shape."""
    try:
        return str(json.loads(manifest_json).get("session_id", "?"))
    except (json.JSONDecodeError, AttributeError, TypeError):
        return "?"


def _endpoint(channel, name: str) -> Party:
    """``name``'s side of a mirror channel, as a :class:`Party`."""
    return Party(channel.left if channel.left.name == name
                 else channel.right)


def _stream_tag(session_id: str, driver: str, query: int) -> str:
    """The mux tag of the stream of ``driver``'s query on its point
    ``query``: a sub-session of the pair hub, with its own frame queue.
    Session ids may not contain :data:`STREAM_TAG_SEPARATOR`, so no
    session's own tag equals another session's stream tag."""
    return STREAM_TAG_SEPARATOR.join((session_id, driver, str(query)))


async def _run_together(coroutines) -> list:
    """Await ``coroutines`` as one task group, results in order.

    The first failure cancels the others, and it -- not an exception
    group -- is what propagates, so a failed session keeps its typed,
    classifiable cause.
    """
    try:
        async with asyncio.TaskGroup() as group:
            tasks = [group.create_task(coroutine)
                     for coroutine in coroutines]
    except BaseExceptionGroup as failed:
        cause: BaseException = failed
        while isinstance(cause, BaseExceptionGroup):
            cause = cause.exceptions[0]
        raise cause from None
    return [task.result() for task in tasks]


@dataclass
class _Stream:
    """One (pair, driver, query) stream as a daemon runs it."""

    runtime: PairRuntime
    stream: PairStream | None         # None once retired
    cache: PeerCipherCache | None     # its pass's cache on the pair
    comparisons: int = 0

    def retire(self) -> None:
        """Drop the finished query's protocol state -- its session,
        parties and coins -- and keep what the report reads: the
        channel's stats and transcript and the comparison count."""
        self.comparisons = self.stream.session.comparison_backend.invocations
        self.stream = None


@dataclass
class _SessionState:
    """Everything one running session owns inside the daemon."""

    manifest: RunManifest
    points: list
    started: float
    faults: PartyFaults | None = None
    contexts: dict = field(default_factory=dict)   # party -> CryptoContext
    views: dict = field(default_factory=dict)      # peer -> link view
    # peer -> {announcer: channel}: one announcement channel per side
    keys: dict = field(default_factory=dict)
    adopted: dict = field(default_factory=dict)    # peer -> asyncio.Event
    # Set once every peer's session-sync record has checked out; no
    # peer's keys are adopted before.
    synced: asyncio.Event = field(default_factory=asyncio.Event)
    # The first flight's drive queries, (peer, query), that have not
    # started yet; `flown` is set once none is left.
    flight: set = field(default_factory=set)
    flown: asyncio.Event = field(default_factory=asyncio.Event)
    # (peer, driver, query) -> _Stream, built as the query's point
    # enters its pass's window
    streams: dict = field(default_factory=dict)
    # (peer, driver) -> the pass's PeerCipherCache, or None
    caches: dict = field(default_factory=dict)
    config: object = None                          # the session's SmcConfig
    setup_seconds: float = 0.0

    def pass_streams(self, peer: str, driver: str) -> list[_Stream]:
        """The streams built so far of ``driver``'s pass on the pair, in
        point order (none when the party it queries holds no points)."""
        return [self.streams[key]
                for query in range(self.manifest.counts[driver])
                if (key := (peer, driver, query)) in self.streams]

    def pair_streams(self, peer: str) -> list[_Stream]:
        """The pair's streams: pass by pass in pass order, each pass's
        queries in point order."""
        return [entry for driver in self.manifest.names
                for entry in self.pass_streams(peer, driver)]

    def took_off(self, peer: str, query: int) -> None:
        """The drive query on point ``query`` to ``peer`` starts in this
        loop step -- which runs it up to its first wait for a reply, so
        its first frame leaves in the same step."""
        self.flight.discard((peer, query))
        if not self.flight:
            self.flown.set()


class _SessionMeshView:
    """The ``PartyMesh`` surface of one daemon session's drive pass:
    exactly what :func:`~repro.multiparty.horizontal.point_queries`
    touches (``peers_of`` / ``stream``); ``build(peer, query)`` returns
    the drive pass's stream, built on first use."""

    def __init__(self, local_name: str, state: _SessionState,
                 build: Callable[[str, int], _Stream]):
        self._name = local_name
        self._state = state
        self._build = build

    def peers_of(self, name: str) -> list[str]:
        return self._state.manifest.peers_of(name)

    def stream(self, driver: str, peer: str, query: int) -> PairStream:
        manifest = self._state.manifest
        if (driver != self._name or peer not in self._state.views
                or not manifest.counts[peer]
                or not 0 <= query < manifest.counts[driver]):
            raise PartyRuntimeError(
                f"no stream of {driver!r}'s query {query} to {peer!r} in "
                f"daemon {self._name!r}")
        return self._build(peer, query).stream


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
        # Open client connections: each handler task and its writer.
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
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
        self._obs_frames = metrics.counter("repro_segment_frames_total",
                                           mode="live")
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
            if not await self._unless_stopped(self._start_up()):
                return  # stopped during link-up: tear down what exists
            self._setup_seconds = time.perf_counter() - started
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
            for hub in self.hubs.values():
                await hub.aclose("daemon stopping")
            # A client connection outlives a drain on purpose (the
            # requester still reads its reports).  Close it here, so its
            # handler ends on end-of-stream before the loop shuts down,
            # instead of being cancelled -- which the server's done
            # callback would log as an error.  The close flushes what
            # is buffered first; a client that stopped reading gets
            # timeout_s for it.
            for writer in self._clients.values():
                writer.close()
            if self._clients:
                await asyncio.wait(list(self._clients),
                                   timeout=self.spec.timeout_s)
            server.close()
            await server.wait_closed()
            self.engine.close()
            self.tracer.close()

    async def _start_up(self) -> None:
        # Engine warm-up off the loop: accepting links while the worker
        # pool boots.
        self.engine_warm = await self._loop.run_in_executor(
            None, self.engine.warm_up)
        await self._link_up()

    async def _unless_stopped(self, coroutine) -> bool:
        """Run ``coroutine`` to completion unless a stop request comes
        first, in which case cancel it and return False.  Link-up can
        wait up to ``connect_timeout_s`` on a peer that never answers;
        a stop must not.  So link-up bounds its waits with
        ``asyncio.timeout``, not ``wait_for``: a ``wait_for`` cancelled
        just as its awaitable finished returns (or raises) that result
        instead of the cancellation (Python 3.11), and a dial retry loop
        would then run on to its deadline."""
        task = self._loop.create_task(coroutine)
        stop = self._loop.create_task(self._stop_event.wait())
        try:
            await asyncio.wait({task, stop},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            stop.cancel()
        if not task.done():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            return False
        task.result()
        return True

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
                    async with asyncio.timeout(self.spec.connect_timeout_s):
                        await self._hub_events[peer].wait()
                except TimeoutError:
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
                async with asyncio.timeout(self.spec.connect_timeout_s):
                    theirs = await read_hello_async(reader, name,
                                                    self._authenticator)
            except (HandshakePeerLost, OSError) as exc:
                # The peer daemon may be booting (accepted, not yet
                # serving), or the connection died before the hello;
                # retry within the budget.
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
                await _refuse_mismatch(writer, name, mismatch, "peer",
                                       self._authenticator)
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
            async with asyncio.timeout(self.spec.connect_timeout_s):
                theirs = await read_hello_async(reader, name,
                                                self._authenticator)
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
            await _refuse_mismatch(writer, name, mismatch, "peer",
                                   self._authenticator)
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
            await _refuse_mismatch(writer, name, mismatch, "client",
                                   self._authenticator)
        mine = Hello(version=PROTOCOL_VERSION, session_id="",
                     pair_left=theirs.pair_left,
                     pair_right=theirs.pair_right,
                     party_id=self.name, config_digest=self.digest,
                     role=ROLE_DAEMON).authenticated(self._authenticator)
        await _send_frame(writer, FRAME_HELLO, mine.to_wire(),
                          self._authenticator)

        handler = asyncio.current_task()
        self._clients[handler] = writer

        async def send_record(record: list) -> None:
            try:
                await _send_frame(writer, FRAME_CONTROL,
                                  serialize_message(record),
                                  self._authenticator)
            except OSError:
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
                    self._refuse(_session_id_of(record[1]))
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
                    self._refuse(_session_id_of(record[1]))
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
            del self._clients[handler]
            writer.close()

    async def _session_task(self, manifest_json: str, points_json: str,
                            send_record) -> None:
        session_id = "?"
        try:
            try:
                manifest = RunManifest.from_json(manifest_json)
                session_id = manifest.session_id
                points = [tuple(point) for point in json.loads(points_json)]
            except Exception:
                self._refuse(_session_id_of(manifest_json))
                raise
            report = await self._run_session(manifest, points)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported to the client
            self._obs_failed.inc()
            cause, _ = classify_exception(exc)
            await send_record([CONTROL_SESSION_FAILED, session_id,
                               f"{type(exc).__name__}: {exc}", cause])
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
        if STREAM_TAG_SEPARATOR in manifest.session_id:
            raise DaemonError(
                f"session id {manifest.session_id!r} contains "
                f"{STREAM_TAG_SEPARATOR!r}, which tags a session's "
                f"per-driver streams")

    def _refuse(self, session_id: str) -> None:
        """Release the views a refused session's peers opened on this
        daemon's hubs -- unless a session of that id runs here, whose
        views they are."""
        if session_id not in self._active:
            for hub in self.hubs.values():
                hub.release_session(session_id)

    async def _run_session(self, manifest: RunManifest,
                           points: list) -> PartyReport:
        await self._links_ready.wait()
        started = time.perf_counter()
        try:
            self._validate_session(manifest, points)
        except DaemonError:
            self._refuse(manifest.session_id)
            raise
        # Fault state exists only when the session's plan names this
        # party; a fault-free session does no per-frame fault work.
        faults = (FaultPlan.from_dicts(manifest.faults).for_party(
                      self.name, hubs={pair_key(self.name, peer): hub
                                       for peer, hub in self.hubs.items()})
                  if manifest.faults else None)
        digest = manifest_digest(manifest)
        config = manifest.protocol_config()
        # Inject the daemon's shared warmed engine.  The manifest
        # requires engine=None (engines cannot cross processes); the
        # engine changes where modexps run, never their results
        # (engine-vs-serial equivalence is property-tested).
        config = dataclasses.replace(
            config, smc=dataclasses.replace(config.smc, engine=self.engine))
        session_index = self.sessions_run
        self.sessions_run += 1
        warm_start = session_index > 0
        self._active.add(manifest.session_id)

        state = _SessionState(manifest=manifest, points=points,
                              started=started, faults=faults)
        session_span = self.tracer.span(
            "session", manifest.session_id,
            session_index=session_index, warm_start=warm_start,
            parties=len(manifest.names), points=len(points))
        sync_span = session_span.child("sync", "sync",
                                       peers=len(manifest.names) - 1)
        try:
            peers = manifest.peers_of(self.name)
            for peer in peers:
                state.views[peer] = self.hubs[peer].session(
                    manifest.session_id)
            # One flight: the sync records -- on the wire at the next
            # loop turn, ahead of every other frame of the session --
            # then the key announcements on every pair and, as the
            # roles start, the drive pass's first-window queries.  The
            # peers' records are checked next to the roles; every
            # adoption waits for the whole check, and every role that
            # uses a peer's keys for that adoption.  The first failure
            # cancels the rest and fails the session.
            self._send_sync(state, digest)
            await asyncio.sleep(0)
            self._build_streams(state, config)
            if faults is not None:
                faults.at_boundary(0)
            self._announce_keys(state)
            ledger = LeakageLedger()
            passes_started = time.perf_counter()
            results = await _run_together([
                self._session_sync(state, digest, sync_span),
                *(self._adopt_keys(state, peer, config, session_span)
                  for peer in peers),
                *(self._pass_role(state, pass_index, driver, config,
                                  ledger, session_span)
                  for pass_index, driver in enumerate(manifest.names))])
            labels = results[1 + len(peers)
                             + manifest.names.index(self.name)]
            finished = time.perf_counter()
            return self._build_report(
                state, labels, ledger,
                elapsed=finished - started,
                passes=finished - passes_started,
                runtime_info=self._runtime_info(
                    session_index, warm_start, state.setup_seconds))
        finally:
            sync_span.close()
            session_span.close()
            # Every view this session owns on each hub, opened here or
            # created by an early peer frame.
            for hub in self.hubs.values():
                hub.release_session(manifest.session_id)
            self._active.discard(manifest.session_id)

    def _channel(self, link) -> MirrorChannel:
        """A fresh mirror channel over ``link`` (a session view, or a
        fault wrapper around one)."""
        channel = MirrorChannel(
            link.left_name, link.right_name, self.name, link)
        channel.obs_live = self._obs_frames
        return channel

    def _send_sync(self, state: _SessionState, digest: str) -> None:
        """Announce the manifest digest on every pair link (the
        session's first frame there)."""
        wire = serialize_message([SESSION_SYNC_RECORD, digest])
        for view in state.views.values():
            view.send_control(wire)

    async def _session_sync(self, state: _SessionState, digest: str,
                            span) -> None:
        """Cross-check the manifest digest with every peer daemon, then
        open the adoptions (:attr:`_SessionState.synced`).

        The pair handshake bound only the mesh spec; each *session* is
        validated here: both ends of every link announce the digest of
        the manifest they were handed (:meth:`_send_sync`) and refuse
        the session on mismatch.  It is the session's only control
        record on a pair link.  The check runs next to the roles, so
        this daemon's first flight -- its keys and its drive pass's
        first-window queries, under its own key -- leaves before it;
        but no peer's keys are adopted, so no query is served and no
        frame derived from a peer's data or key leaves, until every
        peer's record has checked out.  The check decides only once it
        holds every peer's record and the first flight is out, so every
        peer sees the same flight from this daemon whatever the check
        finds, and no peer's record is left in flight to re-open the
        views a failed session releases.  A peer whose record does not
        arrive within ``timeout_s`` fails the session with a typed
        timeout -- retryable, like the same silence mid-protocol --
        unless another peer's record failed the check.
        """
        async def check(peer, view) -> Exception | None:
            try:
                raw = await asyncio.wait_for(view.next_control(),
                                             self.spec.timeout_s)
            except asyncio.TimeoutError:
                return TransportTimeoutError(
                    f"peer daemon {peer!r} never answered the session "
                    f"sync for {state.manifest.session_id!r} within "
                    f"{self.spec.timeout_s}s")
            record = deserialize_message(raw)
            if (not isinstance(record, list) or len(record) != 2
                    or record[0] != SESSION_SYNC_RECORD
                    or not isinstance(record[1], str)):
                return DaemonError(
                    f"malformed session sync from {peer!r}: {record!r}")
            # compare_digest: same constant-time treatment as every
            # other digest comparison on the runtime's trust boundary.
            if not hmac.compare_digest(record[1], digest):
                return DaemonError(
                    f"manifest digest mismatch with peer daemon {peer!r} "
                    f"for session {state.manifest.session_id!r}: ours "
                    f"{digest[:12]}..., theirs {str(record[1])[:12]}...")
            return None

        with span:
            outcomes = await _run_together(
                check(peer, view) for peer, view in state.views.items())
            await state.flown.wait()
            failures = [outcome for outcome in outcomes
                        if outcome is not None]
            if failures:
                raise next((failure for failure in failures
                            if isinstance(failure, DaemonError)),
                           failures[0])
        state.synced.set()

    def _build_streams(self, state: _SessionState, config) -> None:
        """Build what the first flight needs; no frame leaves here.

        Key material is sealed: this daemon derives only its *own*
        slot's keypair; every peer context is a pending sealed
        placeholder whose authentic public key arrives in the peer's
        announcement (:meth:`_adopt_keys`), pinned against the
        manifest's ``key_digests`` when present.  Per pair, each
        announcement gets its own mirror channel on the session's tag,
        so neither side's waits on the other's.  Then each pair gets the
        streams of the drive pass's first
        :data:`~repro.runtime.async_pass.POINTS_IN_FLIGHT` queries over
        it (:meth:`_stream`).  A respond role's streams, and a later
        query's, are built when their points enter the pass's window.
        With cached peer ciphertexts, a pass's queries to one peer
        share one cache, and the drive role waits for every adoption,
        so the first flight carries no query.
        """
        manifest = state.manifest
        provider = SealedKeyProvider(config.smc, self.name,
                                     key_digests=manifest.key_digests)
        state.contexts = {name: provider.context_for(name, slot)
                          for slot, name in enumerate(manifest.names)}
        state.config = config.smc
        for peer, session_view in state.views.items():
            state.keys[peer] = {
                announcer: self._channel(session_view)
                for announcer in self.spec.ordered_pair(self.name, peer)}
            state.adopted[peer] = asyncio.Event()
            for driver in (self.name, peer):
                queried = peer if driver == self.name else self.name
                if manifest.counts[queried]:
                    state.caches[(peer, driver)] = (
                        PeerCipherCache() if config.cache_peer_ciphertexts
                        else None)
            if not manifest.counts[peer]:
                continue
            for query in range(min(POINTS_IN_FLIGHT,
                                   manifest.counts[self.name])):
                self._stream(state, peer, self.name, query)
                if not config.cache_peer_ciphertexts:
                    state.flight.add((peer, query))
        if not state.flight:
            state.flown.set()

    def _stream(self, state: _SessionState, peer: str, driver: str,
                query: int) -> _Stream:
        """The stream of ``driver``'s query on its point ``query`` over
        the pair with ``peer``, built on first use.

        Its own sub-session of the pair hub (:func:`_stream_tag`; frames
        that arrived before it was built wait there), per-query coins
        on the shared contexts, the same key slots, RNG
        substreams and channel machinery as the in-process mesh.  A
        stream built after the peer's keys were adopted starts on them.
        Its frame waits start once the peer's keys are adopted
        (:attr:`~repro.runtime.mirror.MirrorChannel.peer_keys`),
        so a peer silent at its announcement times out there alone.
        """
        key = (peer, driver, query)
        entry = state.streams.get(key)
        if entry is not None:
            return entry
        manifest = state.manifest
        view = self.hubs[peer].session(
            _stream_tag(manifest.session_id, driver, query))
        link = (None if state.faults is None
                else state.faults.link(view, pair_key(self.name, peer),
                                       manifest.names.index(driver), query))
        channel = self._channel(view if link is None else link)
        channel.peer_keys = state.adopted[peer]
        stream = build_stream(
            state.contexts, state.config, channel, driver, query,
            {name: manifest.seed_of(name) for name in manifest.names},
            manifest.rng_namespace)
        entry = state.streams[key] = _Stream(
            PairRuntime(channel), stream, state.caches[(peer, driver)])
        return entry

    def _announce_keys(self, state: _SessionState) -> None:
        """Send this daemon's key announcement on every pair link; no
        wait -- each goes out on its own channel, a local send that
        never suspends."""
        own = state.contexts[self.name]
        for announcers in state.keys.values():
            drive(announce_public_keys(
                _endpoint(announcers[self.name], self.name), own))

    async def _adopt_keys(self, state: _SessionState, peer: str, config,
                          session_span) -> None:
        """Once every peer's session sync has checked out, take
        ``peer``'s announcement, check and adopt its keys, then open the
        roles that use them.

        The announcement is substituted like any remote send: one that
        has not arrived is awaited on the session view, bounded by
        ``timeout_s``, so a silent peer fails the session with a typed
        timeout.  A malformed or unpinned key fails it
        before any role has used it.  Adoption re-points the pair's
        streams built so far at the authentic keys
        (:meth:`~repro.smc.session.SmcSession.peer_keys_adopted`); a
        stream built later starts on them.
        """
        channel = state.keys[peer][peer]
        context = state.contexts[peer]
        await state.synced.wait()
        with session_span.child("adopt", f"keys:{peer}", peer=peer):
            await announce_public_keys(_endpoint(channel, peer), context)
            receive_public_keys(_endpoint(channel, self.name), peer,
                                context, config.smc.paillier_bits)
        for entry in state.pair_streams(peer):
            entry.stream.session.peer_keys_adopted(peer)
        state.adopted[peer].set()

    async def _pass_role(self, state: _SessionState, pass_index: int,
                         driver: str, config, ledger, session_span):
        """This daemon's role in one pass: drive it or serve it, once
        the peer keys the role uses are adopted.

        A respond role encrypts and compares under its driver's keys.
        A drive role uses only its own -- unless it caches peer
        ciphertexts, which it rerandomizes under each peer's key -- so
        it starts at once, its first-window queries in the session's
        first flight: the session's setup ends here.
        """
        role = "drive" if driver == self.name else "respond"
        if role == "respond":
            await state.adopted[driver].wait()
        else:
            if config.cache_peer_ciphertexts:
                for event in state.adopted.values():
                    await event.wait()
            state.setup_seconds = time.perf_counter() - state.started
            session_span.set(setup_seconds=round(state.setup_seconds, 6))
        with session_span.child("pass", f"pass{pass_index}",
                                index=pass_index, role=role,
                                driver=driver) as pass_span:
            if driver == self.name:
                result = await self._drive_pass(state, pass_index, config,
                                                ledger, pass_span)
            else:
                result = await self._respond_pass(state, pass_index,
                                                  driver, config, pass_span)
                pass_span.set(served=result)
        if state.faults is not None:
            state.faults.complete_pass()
        return result

    async def _drive_pass(self, state: _SessionState, pass_index: int,
                          config, ledger, span) -> tuple[int, ...]:
        """This daemon's own pass
        (:func:`~repro.runtime.async_pass.drive_pass_async`), each query
        through its stream's runner."""
        manifest = state.manifest
        caches = ({peer: cache for (peer, driver), cache
                   in state.caches.items() if driver == self.name}
                  if config.cache_peer_ciphertexts else None)
        points_view = {
            name: (state.points if name == self.name
                   else manifest.placeholder_points(name))
            for name in manifest.names}

        async def run_query(task: PeerQuery,
                            out_ledger: LeakageLedger) -> int:
            if state.faults is not None:
                state.faults.on_query(pass_index, task.query)
            entry = self._stream(state, task.peer, self.name, task.query)
            state.took_off(task.peer, task.query)
            with span.child("peer_query", f"query{task.query}:{task.peer}",
                            query=task.query,
                            peer=task.peer) as query_span:
                count = await entry.runtime.run(task.run, out_ledger,
                                                span=query_span)
            entry.retire()
            return count

        def build(peer: str, query: int) -> _Stream:
            return self._stream(state, peer, self.name, query)

        labels = await drive_pass_async(
            _SessionMeshView(self.name, state, build), self.name,
            points_view, config, manifest.value_bound, ledger, caches,
            run_query)
        return labels.as_tuple()

    async def _respond_pass(self, state: _SessionState, pass_index: int,
                            driver: str, config, span) -> int:
        """Serve one remote driver's pass: one query per point the
        manifest declares for it, on the driver's schedule
        (:func:`~repro.runtime.async_pass.run_points`).

        Each query runs the ``secure_peer_neighbor_count`` choreography
        once through its stream's runner; its first step awaits the
        driver's first frame within ``timeout_s``, so a silent driver
        fails the session with a typed timeout.  With cached peer
        ciphertexts the query on point 0 opens by uploading this
        party's coordinates, which the pass's other queries read.  The
        query's ledger is discarded (the responder's disclosure view is
        the driver's report, not this daemon's).  Returns the number of
        queries served.
        """
        manifest = state.manifest
        queries = manifest.counts[driver] if state.points else 0
        placeholder = tuple([0] * manifest.dimensions)
        label = f"multiparty/{driver}-{self.name}"

        async def serve(query: int) -> None:
            entry = self._stream(state, driver, driver, query)
            session, parties = entry.stream.session, entry.stream.parties

            def serve_query(ledger: LeakageLedger):
                return secure_peer_neighbor_count(
                    session, parties[driver], placeholder,
                    parties[self.name], state.points, config,
                    manifest.value_bound, ledger, entry.cache,
                    label=label, cached_label=f"{label}/cached")

            if state.faults is not None:
                state.faults.on_query(pass_index, query)
            with span.child("peer_query", f"serve{query}:{driver}",
                            query=query, peer=driver) as query_span:
                await entry.runtime.run(serve_query, span=query_span)
            entry.retire()

        await run_points(queries, config.cache_peer_ciphertexts, serve)
        return queries

    # -- reporting ---------------------------------------------------------

    def _runtime_info(self, session_index: int, warm_start: bool,
                      setup_seconds: float) -> dict:
        return {
            "runtime": "daemon",
            "pass_model": "async",
            "session_index": session_index,
            "warm_start": warm_start,
            "engine_warm": self.engine_warm,
            "engine": self.engine.report(),
            "daemon_setup_seconds": round(self._setup_seconds, 6),
            "setup_seconds": round(setup_seconds, 6),
            # The scale-out observable: loop + engine machinery only,
            # independent of how many sessions run concurrently.
            # Published through the registry gauge so `repro stats`
            # and per-session reports can never disagree.
            "thread_count": self._observe_thread_count(),
        }

    def _build_report(self, state: _SessionState, labels, ledger, *,
                      elapsed: float, passes: float,
                      runtime_info: dict) -> PartyReport:
        """Per pair, the canonical pass-order concatenation of the key
        exchange (the left party's announcement, then the right
        party's) and the pair's streams -- what the in-process mesh
        reports for the pair, and what the peer daemon reports too."""
        pair_reports = {}
        for peer, announcers in state.keys.items():
            streams = state.pair_streams(peer)
            channels = [announcers[name]
                        for name in self.spec.ordered_pair(self.name, peer)]
            channels += [entry.runtime.channel for entry in streams]
            for channel in channels:
                channel.assert_drained()
            stats, transcript = link_accounting(channels)
            pair_reports[pair_key(*self.spec.ordered_pair(self.name,
                                                          peer))] = {
                "stats": stats.snapshot(),
                "transcript_sha256": transcript_digest(transcript),
                "messages": transcript.message_count(),
                "comparisons": sum(entry.comparisons for entry in streams),
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
