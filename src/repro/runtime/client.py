"""Session client + in-process daemon fleet harness.

:class:`SessionClient` is the submission plane of the daemon runtime:
it keeps one framed connection open to every resident
:class:`~repro.runtime.daemon.PartyDaemon` of a mesh and submits runs
as ``start_session`` control records -- each daemon receiving the full
:class:`~repro.runtime.manifest.RunManifest` plus *only its own
partition*, the same privacy boundary the PR-5 orchestrator enforces
with run directories.  Submissions return immediately with a
:class:`SessionHandle`; reports stream back asynchronously on the same
connections (a reader thread per daemon routes them), so many sessions
can be in flight at once and ``submit(...); submit(...); wait both``
is the natural client idiom.

Merging and verification reuse the orchestrator's machinery
(:func:`~repro.runtime.orchestrator.merge_reports` cross-checks the
per-pair transcript digests between both owners of every pair), so a
daemon run yields the same :class:`MultipartyRunResult` surface -- and
the same equivalence guarantees -- as every other runtime.

:class:`DaemonFleet` is the harness: it allocates ports, builds the
:class:`~repro.runtime.daemon.MeshSpec`, and runs one daemon per party
either on background threads (each with its own event loop -- the
default for tests and benchmarks) or as ``repro serve`` subprocesses
(real process isolation, used by the CLI walkthrough).
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace

from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    ConnectionClosedError,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramedConnection,
    FramingError,
    ReceiveTimeout,
)
from repro.net.serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.daemon import (
    CONTROL_GET_METRICS,
    CONTROL_METRICS,
    CONTROL_SESSION_FAILED,
    CONTROL_SESSION_REJECTED,
    CONTROL_SESSION_REPORT,
    CONTROL_SHUTDOWN,
    CONTROL_START_SESSION,
    SHUTDOWN_DRAIN,
    DaemonError,
    MeshSpec,
    PartyDaemon,
    mesh_digest,
)
from repro.runtime.handshake import perform_client_handshake
from repro.runtime.manifest import RunManifest
from repro.runtime.orchestrator import (
    allocate_ports,
    build_manifest,
    merge_reports,
)
from repro.runtime.party import PartyReport

_CONNECT_BACKOFF_S = 0.05


class SessionClientError(RuntimeError):
    """Submission-plane failure: lost daemon, failed session, timeout."""


@dataclass(frozen=True)
class DaemonRun:
    """One completed daemon session, merged across all parties."""

    result: object  # MultipartyRunResult
    reports: dict[str, PartyReport]
    transcript_digests: dict[str, str]
    manifest: RunManifest
    elapsed_seconds: float


class SessionHandle:
    """A submitted session; :meth:`result` blocks until every daemon
    reported (or any of them failed)."""

    def __init__(self, client: "SessionClient", manifest: RunManifest):
        self.manifest = manifest
        self.session_id = manifest.session_id
        self._client = client
        self._submitted = time.perf_counter()
        self._event = threading.Event()
        self._reports: dict[str, PartyReport] = {}
        self._errors: dict[str, str] = {}
        self._lock = threading.Lock()

    def _offer(self, party: str, report: PartyReport | None,
               error: str | None) -> None:
        with self._lock:
            if report is not None:
                self._reports[party] = report
            if error is not None:
                self._errors[party] = error
            settled = len(self._reports) + len(self._errors)
            if self._errors or settled == len(self.manifest.names):
                self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> DaemonRun:
        budget = timeout if timeout is not None \
            else self._client.spec.timeout_s * (len(self.manifest.names)
                                                + len(self.manifest.names))
        if not self._event.wait(budget):
            raise SessionClientError(
                f"session {self.session_id!r} produced no result within "
                f"{budget}s ({len(self._reports)}/"
                f"{len(self.manifest.names)} reports in)")
        with self._lock:
            if self._errors:
                details = "; ".join(
                    f"{party}: {error}"
                    for party, error in sorted(self._errors.items()))
                raise SessionClientError(
                    f"session {self.session_id!r} failed on "
                    f"{sorted(self._errors)}: {details}")
            reports = dict(self._reports)
        result, digests = merge_reports(self.manifest, reports)
        return DaemonRun(result=result, reports=reports,
                         transcript_digests=digests,
                         manifest=self.manifest,
                         elapsed_seconds=time.perf_counter()
                         - self._submitted)


class _MetricsWaiter:
    """Collects one ``get_metrics`` request's per-daemon replies."""

    def __init__(self, expected: set[str]):
        self.expected = expected
        self.snapshots: dict[str, dict] = {}
        self.lock = threading.Lock()
        self.event = threading.Event()

    def offer(self, party: str, snapshot: dict) -> None:
        with self.lock:
            self.snapshots[party] = snapshot
            if set(self.snapshots) >= self.expected:
                self.event.set()


class SessionClient:
    """One client endpoint connected to every daemon of a mesh."""

    def __init__(self, spec: MeshSpec, *, client_id: str = "client",
                 psk: str | None = None):
        self.spec = spec
        self.client_id = client_id
        self.digest = mesh_digest(spec)
        if spec.link_auth and not psk:
            raise SessionClientError(
                f"mesh spec requires link authentication but client "
                f"{client_id!r} was given no PSK")
        self._authenticator = (FrameAuthenticator(psk, self.digest)
                               if spec.link_auth else None)
        self._connections: dict[str, FramedConnection] = {}
        self._write_locks: dict[str, threading.Lock] = {}
        self._readers: list[threading.Thread] = []
        self._handles: dict[str, SessionHandle] = {}
        self._handles_lock = threading.Lock()
        self._metrics_waiters: dict[str, _MetricsWaiter] = {}
        self._metrics_lock = threading.Lock()
        self._metrics_seq = 0
        self._closed = False
        try:
            for name in spec.names:
                connection = self._connect(name)
                perform_client_handshake(connection,
                                         client_id=client_id,
                                         daemon_id=name,
                                         config_digest=self.digest)
                self._connections[name] = connection
                self._write_locks[name] = threading.Lock()
            for name, connection in self._connections.items():
                reader = threading.Thread(
                    target=self._read_loop, args=(name, connection),
                    name=f"client-read-{name}", daemon=True)
                reader.start()
                self._readers.append(reader)
        except BaseException:
            self.close()
            raise

    def _connect(self, name: str) -> FramedConnection:
        deadline = time.monotonic() + self.spec.connect_timeout_s
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(
                    (self.spec.host, self.spec.ports[name]), timeout=5.0)
                return FramedConnection(
                    sock, timeout_s=self.spec.timeout_s,
                    name=f"{self.client_id}->{name}",
                    authenticator=self._authenticator)
            except OSError as exc:
                last_error = exc
                time.sleep(_CONNECT_BACKOFF_S)
        raise SessionClientError(
            f"could not reach daemon {name!r} at "
            f"{self.spec.host}:{self.spec.ports[name]} within "
            f"{self.spec.connect_timeout_s}s: {last_error}")

    # -- inbound report routing --------------------------------------------

    def _read_loop(self, name: str, connection: FramedConnection) -> None:
        while True:
            try:
                kind, payload = connection.read_frame()
            except ReceiveTimeout:
                # Idle between reports (sessions can outlast the frame
                # timeout); keep listening until goodbye/EOF.
                continue
            except FrameAuthenticationError as exc:
                # Tampered or mis-keyed daemon frames are terminal for
                # every in-flight session on this link -- and named as
                # such, never as a generic lost connection.
                self._fail_pending(name,
                                   f"link authentication failed: {exc}")
                return
            except (ConnectionClosedError, FramingError, OSError):
                self._fail_pending(name, "daemon connection lost")
                return
            if kind == FRAME_GOODBYE:
                self._fail_pending(
                    name, f"daemon said goodbye: "
                          f"{payload.decode('utf-8', 'replace')}")
                return
            if kind != FRAME_CONTROL:
                continue
            try:
                record = deserialize_message(payload)
            except (SerializationError, UnicodeDecodeError):
                continue
            if not isinstance(record, list) or len(record) not in (3, 4):
                continue
            tag, session_id, body = record[:3]
            if not isinstance(tag, str) or not isinstance(session_id, str):
                continue
            if tag == CONTROL_METRICS:
                # `session_id` is the request id on this record shape.
                with self._metrics_lock:
                    waiter = self._metrics_waiters.get(session_id)
                if waiter is not None:
                    try:
                        snapshot = json.loads(body)
                    except (json.JSONDecodeError, TypeError):
                        snapshot = None
                    if isinstance(snapshot, dict):
                        waiter.offer(name, snapshot)
                continue
            with self._handles_lock:
                handle = self._handles.get(session_id)
            if handle is None:
                continue
            if tag == CONTROL_SESSION_REPORT:
                # A report that does not parse fails its session; the
                # reader keeps routing this daemon's later records.
                try:
                    report = PartyReport.from_json(body)
                except (ValueError, TypeError, KeyError) as exc:
                    handle._offer(name, None,
                                  f"malformed session report from daemon "
                                  f"{name!r}: {exc!r}")
                else:
                    handle._offer(name, report, None)
            elif tag == CONTROL_SESSION_FAILED:
                handle._offer(name, None, str(body))
            elif tag == CONTROL_SESSION_REJECTED:
                # Typed rejections carry a machine-readable code fourth
                # ("capacity", "draining"); older daemons send three.
                if len(record) == 4:
                    handle._offer(name, None,
                                  f"rejected ({record[3]}): {body}")
                else:
                    handle._offer(name, None, f"rejected: {body}")

    def _fail_pending(self, name: str, reason: str) -> None:
        if self._closed:
            return
        with self._handles_lock:
            handles = list(self._handles.values())
        for handle in handles:
            if handle.done():
                continue
            with handle._lock:
                # A lost connection can only lose what this daemon had
                # not delivered yet.  A daemon that already reported --
                # e.g. one that finished its drain and closed while
                # peers were still mid-pass -- must not fail handles
                # waiting only on the *other* daemons.
                delivered = (name in handle._reports
                             or name in handle._errors)
            if not delivered:
                handle._offer(name, None, reason)

    # -- submission --------------------------------------------------------

    def submit(self, manifest: RunManifest,
               points_by_party: dict[str, list]) -> SessionHandle:
        """Fire one session at the mesh; returns immediately.

        Each daemon receives the manifest plus its own partition only.
        Submission order across daemons is irrelevant: the daemons
        cross-validate the manifest digest on their pair links before
        any protocol byte of the session flows.
        """
        if self._closed:
            raise SessionClientError("client is closed")
        if tuple(manifest.names) != self.spec.names:
            raise SessionClientError(
                f"manifest names {manifest.names} do not match the mesh "
                f"{self.spec.names}")
        if set(points_by_party) != set(self.spec.names):
            raise SessionClientError(
                f"partitions must cover exactly {sorted(self.spec.names)},"
                f" got {sorted(points_by_party)}")
        handle = SessionHandle(self, manifest)
        with self._handles_lock:
            if manifest.session_id in self._handles:
                raise SessionClientError(
                    f"session {manifest.session_id!r} is already in "
                    f"flight")
            self._handles[manifest.session_id] = handle
        manifest_json = manifest.to_json()
        for name in self.spec.names:
            points_json = json.dumps(
                [list(point) for point in points_by_party[name]])
            record = serialize_message(
                [CONTROL_START_SESSION, manifest_json, points_json])
            try:
                with self._write_locks[name]:
                    self._connections[name].write_frame(
                        FRAME_CONTROL, record)
            except (ConnectionClosedError, FramingError) as exc:
                handle._offer(name, None, f"submit failed: {exc}")
        return handle

    def run(self, manifest: RunManifest,
            points_by_party: dict[str, list],
            timeout: float | None = None) -> DaemonRun:
        """Submit and wait -- the serial convenience wrapper."""
        return self.submit(manifest, points_by_party).result(timeout)

    def submit_wave(self, manifest: RunManifest,
                    points_by_party: dict[str, list],
                    concurrency: int) -> list[SessionHandle]:
        """Submit ``concurrency`` independent copies of one manifest.

        Each copy derives its session id from the template's
        (``{session_id}-w{index:02d}``) and sets ``rng_namespace`` to
        that derived id, so the copies share seeds and workload but
        never coin streams -- the high-concurrency idiom the benchmark
        used to assemble by hand.  Returns handles in submission order;
        callers wait on each (rejections surface per handle, so a
        daemon at capacity fails that copy, not the wave).
        """
        if concurrency < 1:
            raise SessionClientError(
                f"concurrency must be >= 1, got {concurrency}")
        handles = []
        for index in range(concurrency):
            derived = f"{manifest.session_id}-w{index:02d}"
            copy = replace(manifest, session_id=derived,
                           rng_namespace=derived)
            handles.append(self.submit(copy, points_by_party))
        return handles

    def get_metrics(self, timeout: float | None = None) -> dict[str, dict]:
        """Live metrics snapshot from every daemon: ``{party: snapshot}``.

        Read-only introspection on the standing client connections --
        the transport under ``repro stats``.  Each daemon answers with
        its full :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`;
        the call blocks until every daemon replied (or ``timeout``,
        default the mesh receive timeout, elapses).
        """
        if self._closed:
            raise SessionClientError("client is closed")
        with self._metrics_lock:
            self._metrics_seq += 1
            request_id = f"metrics-{self._metrics_seq}"
            waiter = _MetricsWaiter(set(self.spec.names))
            self._metrics_waiters[request_id] = waiter
        record = serialize_message([CONTROL_GET_METRICS, request_id])
        try:
            for name in self.spec.names:
                try:
                    with self._write_locks[name]:
                        self._connections[name].write_frame(
                            FRAME_CONTROL, record)
                except (ConnectionClosedError, FramingError) as exc:
                    raise SessionClientError(
                        f"metrics request to daemon {name!r} failed: "
                        f"{exc}") from exc
            budget = timeout if timeout is not None else self.spec.timeout_s
            if not waiter.event.wait(budget):
                with waiter.lock:
                    missing = sorted(waiter.expected
                                     - set(waiter.snapshots))
                raise SessionClientError(
                    f"metrics request timed out after {budget}s; no "
                    f"answer from {missing}")
            with waiter.lock:
                return dict(waiter.snapshots)
        finally:
            with self._metrics_lock:
                self._metrics_waiters.pop(request_id, None)

    def shutdown_mesh(self, *, drain: bool = False) -> None:
        """Ask every daemon to stop (idempotent, best-effort).

        With ``drain=True`` the daemons finish their in-flight sessions
        before closing links; new submissions get a typed ``draining``
        rejection in the meantime.
        """
        record = serialize_message(
            [CONTROL_SHUTDOWN, SHUTDOWN_DRAIN] if drain
            else [CONTROL_SHUTDOWN])
        for name in self.spec.names:
            try:
                with self._write_locks[name]:
                    self._connections[name].write_frame(
                        FRAME_CONTROL, record)
            except (ConnectionClosedError, FramingError, KeyError):
                pass

    def close(self) -> None:
        self._closed = True
        for connection in self._connections.values():
            try:
                connection.write_goodbye("client done")
            except ConnectionClosedError:
                pass
            connection.close()

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_via_daemons(points_by_party: dict[str, list], config,
                    seeds: list[int], *, client: SessionClient,
                    session_id: str | None = None,
                    rng_namespace: str | None = None,
                    timeout: float | None = None) -> DaemonRun:
    """Run one clustering session on a resident daemon mesh.

    The drop-in daemon twin of ``orchestrate_run`` (same workload
    signature: one RNG seed per party, in party order): same manifest
    construction, same merge/cross-check, but against daemons that are
    already linked up and warm.  The manifest's port plan is a
    placeholder (daemons route over their standing links and never read
    it); everything the protocol *consumes* -- names, seeds, counts,
    value bound, config digest -- is the real thing.
    """
    spec = client.spec
    if set(points_by_party) != set(spec.names):
        raise SessionClientError(
            f"partitions must cover exactly {sorted(spec.names)}, "
            f"got {sorted(points_by_party)}")
    # Manifest party order is partition-dict insertion order; pin it to
    # the mesh slot order so any dict ordering yields the same run.
    ordered = {name: points_by_party[name] for name in spec.names}
    from repro.runtime.manifest import pair_key
    ports = {pair_key(a, b): 0
             for i, a in enumerate(spec.names)
             for b in spec.names[i + 1:]}
    manifest = build_manifest(ordered, config, seeds,
                              session_id=session_id, ports=ports,
                              host=spec.host,
                              rng_namespace=rng_namespace)
    return client.run(manifest, ordered, timeout)


# -- fleet harness ---------------------------------------------------------

class _DaemonThread:
    """One in-process daemon on a background thread with its own loop."""

    def __init__(self, spec: MeshSpec, name: str,
                 psk: str | None = None, *,
                 metrics_enabled: bool = True,
                 trace_dir: str | None = None):
        self.daemon = PartyDaemon(
            spec, name, psk=psk,
            metrics=MetricsRegistry(enabled=metrics_enabled),
            trace_dir=trace_dir)
        self.thread = threading.Thread(target=self.daemon.run,
                                       name=f"daemon-{name}", daemon=True)

    def start(self) -> None:
        self.thread.start()

    def wait_ready(self, timeout: float) -> None:
        if not self.daemon.ready.wait(timeout):
            raise DaemonError(
                f"daemon {self.daemon.name!r} did not come up within "
                f"{timeout}s")
        if self.daemon.error is not None:
            raise DaemonError(
                f"daemon {self.daemon.name!r} failed during startup: "
                f"{self.daemon.error}") from self.daemon.error

    def stop(self, timeout: float) -> None:
        self.daemon.stop()
        self.thread.join(timeout)


class _DaemonProcess:
    """One ``repro serve`` subprocess (real process isolation)."""

    def __init__(self, spec_path: pathlib.Path, name: str,
                 psk: str | None = None, *,
                 trace_dir: str | None = None):
        self.name = name
        env = dict(os.environ)
        if psk:
            # The PSK travels by environment, never argv: command lines
            # are world-readable on a shared host.
            env["REPRO_PSK"] = psk
        if trace_dir:
            env["REPRO_TRACE_DIR"] = str(trace_dir)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--spec", str(spec_path), "--party", name],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)

    def stop(self, timeout: float) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class DaemonFleet:
    """Context manager running one daemon per party of a fresh mesh.

    ``mode="thread"`` (default) runs each daemon's event loop on a
    background thread of this process -- zero spawn cost, ideal for
    tests and benchmarks; the privacy boundary is still exercised
    end-to-end because partitions only travel inside ``start_session``
    records over real TCP.  ``mode="process"`` spawns ``repro serve``
    subprocesses for true per-party isolation.
    """

    def __init__(self, names, *, host: str | None = None,
                 net_delay_s: float = 0.0, engine_workers: int = 1,
                 timeout_s: float = 30.0, connect_timeout_s: float = 15.0,
                 mode: str = "thread", psk: str | None = None,
                 max_sessions: int = 0, metrics_enabled: bool = True,
                 trace_dir: str | None = None):
        if mode not in ("thread", "process"):
            raise DaemonError(f"unknown fleet mode {mode!r}")
        names = tuple(names)
        kwargs = {"host": host} if host else {}
        ports = allocate_ports(len(names), **kwargs)
        self.spec = MeshSpec(
            names=names,
            ports=dict(zip(names, ports)),
            net_delay_s=net_delay_s,
            engine_workers=engine_workers,
            timeout_s=timeout_s,
            connect_timeout_s=connect_timeout_s,
            max_sessions=max_sessions,
            link_auth=bool(psk),
            **kwargs)
        self.mode = mode
        self.psk = psk
        self.metrics_enabled = metrics_enabled
        self.trace_dir = trace_dir
        self._members: list = []
        self._spec_dir: tempfile.TemporaryDirectory | None = None

    @property
    def daemons(self) -> list[PartyDaemon]:
        """The resident daemons (thread mode only)."""
        return [member.daemon for member in self._members
                if isinstance(member, _DaemonThread)]

    def start(self) -> "DaemonFleet":
        if self.mode == "thread":
            self._members = [
                _DaemonThread(self.spec, name, self.psk,
                              metrics_enabled=self.metrics_enabled,
                              trace_dir=self.trace_dir)
                for name in self.spec.names]
            for member in self._members:
                member.start()
            for member in self._members:
                member.wait_ready(self.spec.connect_timeout_s + 5.0)
        else:
            self._spec_dir = tempfile.TemporaryDirectory(
                prefix="repro-mesh-")
            spec_path = pathlib.Path(self._spec_dir.name) / "mesh.json"
            spec_path.write_text(self.spec.to_json())
            self._members = [
                _DaemonProcess(spec_path, name, self.psk,
                               trace_dir=self.trace_dir)
                for name in self.spec.names]
        return self

    def client(self, *, client_id: str = "client") -> SessionClient:
        return SessionClient(self.spec, client_id=client_id, psk=self.psk)

    def stop(self) -> None:
        for member in self._members:
            try:
                member.stop(5.0)
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self._members = []
        if self._spec_dir is not None:
            self._spec_dir.cleanup()
            self._spec_dir = None

    def __enter__(self) -> "DaemonFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
