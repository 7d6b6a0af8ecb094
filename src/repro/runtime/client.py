"""Session client + daemon fleet harness.

:class:`SessionClient` is the submission plane of the daemon runtime:
it keeps one connection open to every
:class:`~repro.runtime.daemon.PartyDaemon` of a mesh and submits runs
as ``start_session`` control records -- each daemon receiving the full
:class:`~repro.runtime.manifest.RunManifest` plus *only its own
partition*, the per-process privacy boundary.  The connections run on
one asyncio event loop, on the client's own thread, with the frame and
hello code the daemons use; the methods are synchronous.  Submissions
return immediately with a :class:`SessionHandle`; reports stream back
asynchronously on the same connections (a reader task per daemon
routes them), so many sessions can be in flight at once and
``submit(...); submit(...); wait both`` is the natural client idiom.

Merging (:func:`~repro.runtime.orchestrator.merge_reports`)
cross-checks the per-pair transcript digests between both owners of
every pair, so a daemon run yields the same :class:`MultipartyRunResult`
surface -- and the same equivalence guarantees -- as the in-process
mesh.  A failed session raises :class:`SessionClientError` carrying one
typed :class:`~repro.runtime.failure.FailureReport` per failed party.

:class:`DaemonFleet` is the harness: it allocates ports, builds the
:class:`~repro.runtime.daemon.MeshSpec`, and runs one daemon per party
either on background threads (each with its own event loop -- the
default for tests) or as ``repro serve`` subprocesses (real process
isolation: ``repro orchestrate``, ``submit --spawn`` and the
benchmark).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import pathlib
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
    FramingError,
    read_frame_async,
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
    PartyReport,
    mesh_digest,
)
from repro.runtime.failure import (
    CAUSE_AUTH_FAILED,
    CAUSE_CONNECTION_LOST,
    CAUSE_INTERNAL,
    CAUSE_REJECTED,
    CAUSE_TIMEOUT,
    FailureReport,
)
from repro.runtime.handshake import _send_frame, perform_client_handshake
from repro.runtime.manifest import RunManifest
from repro.runtime.orchestrator import (
    allocate_ports,
    build_manifest,
    merge_reports,
)

_CONNECT_BACKOFF_S = 0.05


class SessionClientError(RuntimeError):
    """Submission-plane failure: lost daemon, failed session, timeout.

    ``failures`` holds one typed report per party that failed the
    session or could not be reached (empty when no party is to blame,
    e.g. a submit on a closed client).
    """

    def __init__(self, message: str,
                 failures: tuple[FailureReport, ...] = ()):
        super().__init__(message)
        self.failures = failures


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
        self._errors: dict[str, FailureReport] = {}
        self._lock = threading.Lock()

    def _offer(self, party: str, report: PartyReport | None,
               error: FailureReport | None) -> None:
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
            with self._lock:
                missing = [name for name in self.manifest.names
                           if name not in self._reports]
            raise SessionClientError(
                f"session {self.session_id!r} produced no result within "
                f"{budget}s ({len(self.manifest.names) - len(missing)}/"
                f"{len(self.manifest.names)} reports in)",
                failures=tuple(
                    FailureReport.from_cause(
                        name, CAUSE_TIMEOUT, f"no report within {budget}s")
                    for name in missing))
        with self._lock:
            if self._errors:
                failures = tuple(self._errors[party]
                                 for party in sorted(self._errors))
                details = "; ".join(
                    f"{failure.party}: {failure.message}"
                    for failure in failures)
                raise SessionClientError(
                    f"session {self.session_id!r} failed on "
                    f"{sorted(self._errors)}: {details}",
                    failures=failures)
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
        self.complete = asyncio.Event()

    def offer(self, party: str, snapshot: dict) -> None:
        self.snapshots[party] = snapshot
        if set(self.snapshots) >= self.expected:
            self.complete.set()


class SessionClient:
    """One client endpoint connected to every daemon of a mesh.

    The connections live on one event loop, run by this client's own
    thread: a reader task per daemon routes its records, and every
    write is one whole frame, so callers on any number of threads
    never interleave frames.  The methods are synchronous and hand
    their I/O to the loop; handle, record-routing and metrics state is
    touched on the loop only.
    """

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
        self._writers: dict[str, asyncio.StreamWriter] = {}
        # The loop holds tasks weakly; the client holds its readers.
        self._reader_tasks: list[asyncio.Task] = []
        self._handles: dict[str, SessionHandle] = {}
        self._metrics_waiters: dict[str, _MetricsWaiter] = {}
        self._metrics_seq = 0
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name=f"client-{client_id}",
                                        daemon=True)
        self._thread.start()
        try:
            self._call(self._link_up())
        except BaseException:
            self.close()
            raise

    def _call(self, coroutine):
        """Run ``coroutine`` on the client's loop and wait for its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result()
        except concurrent.futures.CancelledError:
            # close() cancels every call still running on the loop.
            raise SessionClientError("client is closed") from None

    async def _link_up(self) -> None:
        """Connect to and shake hands with every daemon, in mesh order,
        starting a reader task for each."""
        for name in self.spec.names:
            reader, writer = await self._connect(name)
            self._writers[name] = writer
            try:
                await perform_client_handshake(
                    reader, writer, name=f"{self.client_id}->{name}",
                    client_id=self.client_id, daemon_id=name,
                    config_digest=self.digest, timeout_s=self.spec.timeout_s,
                    authenticator=self._authenticator)
            except BaseException:
                writer.close()
                raise
            self._reader_tasks.append(
                asyncio.create_task(self._read_loop(name, reader)))

    async def _connect(self, name: str) -> tuple[asyncio.StreamReader,
                                                 asyncio.StreamWriter]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.spec.connect_timeout_s
        last_error: Exception | None = None
        while loop.time() < deadline:
            try:
                async with asyncio.timeout_at(deadline):
                    return await asyncio.open_connection(
                        self.spec.host, self.spec.ports[name])
            except OSError as exc:
                last_error = exc
                await asyncio.sleep(_CONNECT_BACKOFF_S)
        message = (f"could not reach daemon {name!r} at "
                   f"{self.spec.host}:{self.spec.ports[name]} within "
                   f"{self.spec.connect_timeout_s}s: {last_error}")
        raise SessionClientError(message, failures=(FailureReport.from_cause(
            name, CAUSE_CONNECTION_LOST, message),))

    async def _send(self, name: str, kind: bytes, payload: bytes) -> None:
        """One frame to daemon ``name``; a closed link, or a daemon that
        takes no bytes for ``timeout_s``, is a lost connection."""
        writer, link = self._writers[name], f"{self.client_id}->{name}"
        if writer.is_closing():
            raise ConnectionClosedError(
                f"{link}: write on closed connection")
        try:
            async with asyncio.timeout(self.spec.timeout_s):
                await _send_frame(writer, kind, payload, self._authenticator)
        except OSError as exc:
            raise ConnectionClosedError(
                f"{link}: peer gone while writing {kind!r} frame "
                f"({exc!r})") from exc

    async def _send_each(self, records: dict[str, bytes],
                         ) -> dict[str, FramingError]:
        """Send each daemon its control record; the failures, by daemon."""
        failures = {}
        for name, record in records.items():
            try:
                await self._send(name, FRAME_CONTROL, record)
            except FramingError as exc:
                failures[name] = exc
        return failures

    # -- inbound report routing --------------------------------------------

    async def _read_loop(self, name: str,
                         reader: asyncio.StreamReader) -> None:
        while True:
            try:
                kind, payload = await read_frame_async(
                    reader, name=f"{self.client_id}->{name}",
                    authenticator=self._authenticator)
            except FrameAuthenticationError as exc:
                # Tampered or mis-keyed daemon frames are terminal for
                # every in-flight session on this link -- and named as
                # such, never as a generic lost connection.
                self._fail_pending(name, CAUSE_AUTH_FAILED,
                                   f"link authentication failed: {exc}")
                break
            except FramingError:
                self._fail_pending(name, CAUSE_CONNECTION_LOST,
                                   "daemon connection lost")
                break
            if kind == FRAME_GOODBYE:
                self._fail_pending(
                    name, CAUSE_CONNECTION_LOST,
                    f"daemon said goodbye: "
                    f"{payload.decode('utf-8', 'replace')}")
                break
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
                waiter = self._metrics_waiters.get(session_id)
                if waiter is not None:
                    try:
                        snapshot = json.loads(body)
                    except (json.JSONDecodeError, TypeError):
                        snapshot = None
                    if isinstance(snapshot, dict):
                        waiter.offer(name, snapshot)
                continue
            handle = self._handles.get(session_id)
            if handle is None:
                continue
            if tag == CONTROL_SESSION_REPORT:
                # A report that does not parse fails its session; the
                # reader keeps routing this daemon's later records.
                try:
                    report = PartyReport.from_json(body)
                except (ValueError, TypeError, KeyError) as exc:
                    handle._offer(name, None, FailureReport.from_cause(
                        name, CAUSE_INTERNAL,
                        f"malformed session report from daemon "
                        f"{name!r}: {exc!r}"))
                else:
                    handle._offer(name, report, None)
            elif tag == CONTROL_SESSION_FAILED:
                # The daemon's classified cause rides fourth.
                cause = (str(record[3]) if len(record) == 4
                         else CAUSE_INTERNAL)
                handle._offer(name, None, FailureReport.from_cause(
                    name, cause, str(body)))
            elif tag == CONTROL_SESSION_REJECTED:
                # Typed rejections carry a machine-readable code fourth
                # ("capacity", "draining").
                code = f" ({record[3]})" if len(record) == 4 else ""
                handle._offer(name, None, FailureReport.from_cause(
                    name, CAUSE_REJECTED, f"rejected{code}: {body}"))
        # The link is dead: a later write to it fails at once.
        self._writers[name].close()

    def _fail_pending(self, name: str, cause: str, reason: str) -> None:
        if self._closed:
            return
        for handle in self._handles.values():
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
                handle._offer(name, None,
                              FailureReport.from_cause(name, cause, reason))

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
        manifest_json = manifest.to_json()
        records = {
            name: serialize_message([
                CONTROL_START_SESSION, manifest_json,
                json.dumps([list(point) for point in points_by_party[name]])])
            for name in self.spec.names}
        self._call(self._submit(handle, records))
        return handle

    async def _submit(self, handle: SessionHandle,
                      records: dict[str, bytes]) -> None:
        if handle.session_id in self._handles:
            raise SessionClientError(
                f"session {handle.session_id!r} is already in flight")
        self._handles[handle.session_id] = handle
        for name, exc in (await self._send_each(records)).items():
            handle._offer(name, None, FailureReport.from_cause(
                name, CAUSE_CONNECTION_LOST, f"submit failed: {exc}"))

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
        budget = timeout if timeout is not None else self.spec.timeout_s
        return self._call(self._get_metrics(budget))

    async def _get_metrics(self, budget: float) -> dict[str, dict]:
        self._metrics_seq += 1
        request_id = f"metrics-{self._metrics_seq}"
        waiter = _MetricsWaiter(set(self.spec.names))
        self._metrics_waiters[request_id] = waiter
        record = serialize_message([CONTROL_GET_METRICS, request_id])
        try:
            for name in self.spec.names:
                try:
                    await self._send(name, FRAME_CONTROL, record)
                except FramingError as exc:
                    raise SessionClientError(
                        f"metrics request to daemon {name!r} failed: "
                        f"{exc}") from exc
            try:
                async with asyncio.timeout(budget):
                    await waiter.complete.wait()
            except TimeoutError:
                missing = sorted(waiter.expected - set(waiter.snapshots))
                raise SessionClientError(
                    f"metrics request timed out after {budget}s; no "
                    f"answer from {missing}") from None
            return dict(waiter.snapshots)
        finally:
            del self._metrics_waiters[request_id]

    def shutdown_mesh(self, *, drain: bool = False) -> None:
        """Ask every daemon to stop (idempotent, best-effort).

        With ``drain=True`` the daemons finish their in-flight sessions
        before closing links; new submissions get a typed ``draining``
        rejection in the meantime.
        """
        if self._closed:
            return
        record = serialize_message(
            [CONTROL_SHUTDOWN, SHUTDOWN_DRAIN] if drain
            else [CONTROL_SHUTDOWN])
        self._call(self._send_each(dict.fromkeys(self.spec.names, record)))

    def close(self) -> None:
        """Say goodbye to every daemon, close the connections and stop
        the loop thread (idempotent)."""
        if self._loop.is_closed():
            return
        self._closed = True
        try:
            self._call(self._close_links())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()

    async def _close_links(self) -> None:
        for name, writer in self._writers.items():
            with contextlib.suppress(FramingError):
                await self._send(name, FRAME_GOODBYE, b"client done")
            writer.close()
        # The readers, and any call another thread still waits on.
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        try:
            # Closing flushes what is buffered first; a daemon that
            # stopped reading gets timeout_s for it.
            async with asyncio.timeout(self.spec.timeout_s):
                await asyncio.gather(
                    *(writer.wait_closed()
                      for writer in self._writers.values()),
                    return_exceptions=True)
        except TimeoutError:
            for writer in self._writers.values():
                writer.transport.abort()

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

    The standing-mesh twin of ``orchestrate_run`` (same workload
    signature: one RNG seed per party, in party order): same manifest
    construction, same merge/cross-check, but against daemons that are
    already linked up and warm, and with no re-run on failure.
    """
    spec = client.spec
    if set(points_by_party) != set(spec.names):
        raise SessionClientError(
            f"partitions must cover exactly {sorted(spec.names)}, "
            f"got {sorted(points_by_party)}")
    # Manifest party order is partition-dict insertion order; pin it to
    # the mesh slot order so any dict ordering yields the same run.
    ordered = {name: points_by_party[name] for name in spec.names}
    manifest = build_manifest(ordered, config, seeds,
                              session_id=session_id, host=spec.host,
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

    def signal_stop(self) -> None:
        self.daemon.stop()

    def wait(self, timeout: float) -> None:
        self.thread.join(timeout)


class _DaemonProcess:
    """One ``repro serve`` subprocess (real process isolation).

    After :meth:`wait`, ``process.returncode`` is the exit code: 0 for
    a daemon that shut down through its own stop path, the fault exit
    code for an injected kill, 1 for a startup crash.
    ``exited_on_its_own`` tells a crash from the fleet's own stop, and
    ``stderr_tail`` keeps the last lines the daemon wrote.
    """

    def __init__(self, spec_path: pathlib.Path, name: str,
                 psk: str | None = None, *,
                 trace_dir: str | None = None):
        self.name = name
        self.exited_on_its_own = False
        self.stderr_tail = ""
        self._signaled = False
        env = dict(os.environ)
        # The child imports repro the way this process found it, even
        # when that was through sys.path rather than PYTHONPATH.
        src_root = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
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

    def signal_stop(self) -> None:
        self._signaled = self.process.poll() is None
        if self._signaled:
            self.process.terminate()

    def wait(self, timeout: float) -> None:
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        code = self.process.returncode
        # A nonzero code is the daemon's own, except a signal death
        # after the fleet signalled it (a terminate that landed before
        # the daemon installed its handlers, or the kill fallback).
        self.exited_on_its_own = code != 0 and not (
            code < 0 and self._signaled)
        if self.process.stderr is not None:
            lines = self.process.stderr.read().decode(
                "utf-8", "replace").strip().splitlines()
            self.process.stderr.close()
            self.stderr_tail = "\n".join(lines[-12:])


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

    def stop(self) -> list:
        """Stop every member: signal all of them, then wait on each,
        so one slow member never delays the others' stop.  Returns the
        stopped members, whose exit codes a caller may read."""
        members = self._members
        for member in members:
            try:
                member.signal_stop()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        deadline = time.monotonic() + 5.0
        for member in members:
            try:
                member.wait(max(0.1, deadline - time.monotonic()))
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self._members = []
        if self._spec_dir is not None:
            self._spec_dir.cleanup()
            self._spec_dir = None
        return members

    def __enter__(self) -> "DaemonFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
