"""Session orchestrator: one session on a throwaway daemon fleet.

:func:`orchestrate_run` turns a ``{party: points}`` workload and a
:class:`~repro.core.config.ProtocolConfig` into a real distributed run:

1. build the :class:`~repro.runtime.manifest.RunManifest` (names, seeds,
   counts, the public ``value_bound``, a fresh session id, the pinned
   public-key digests, and any planned faults) -- validation happens
   here, before any process starts;
2. start a fresh :class:`~repro.runtime.client.DaemonFleet` of
   ``repro serve`` processes, one per party, and submit the session
   through a :class:`~repro.runtime.client.SessionClient`: each daemon
   receives the manifest and *only its own* partition;
3. on a retryable failure -- a daemon that exited (``crash``), a lost
   connection, a timeout -- stop that fleet, back off, and re-run the
   same session on a new one.  A fatal cause (a failed MAC, a refused
   handshake, a desync) or a spent ``retry_budget`` raises
   :class:`OrchestrationError` with every
   :class:`~repro.runtime.failure.FailureReport` attached;
4. merge the per-party reports into the exact
   :class:`~repro.multiparty.horizontal.MultipartyRunResult` shape the
   in-process mesh returns, cross-checking that both ends of every pair
   report the same transcript digest.

Recovery is re-execution.  In the semi-honest model each message a
party sends depends only on its input, its coins and the messages it
received, so a session is a deterministic function of its manifest,
the partitions and the coins: a re-run reproduces every frame of the
failed attempt and discloses nothing beyond it.  A recovered run is
therefore *bit-identical* to a fault-free one -- labels, ledger,
transcripts, stats, comparison counts (tested in
``tests/runtime/test_faults.py``).  Each attempt runs on fresh
processes and ports with the same in-memory partitions, so nothing
from one attempt reaches the next; the fleet is stopped on every exit
path.
"""

from __future__ import annotations

import pathlib
import socket
import time
import uuid
from dataclasses import dataclass, replace

from repro.core.config import ProtocolConfig
from repro.core.leakage import LeakageLedger
from repro.crypto.sealed import public_key_digest
from repro.data.quantize import squared_distance_bound
from repro.multiparty.horizontal import MultipartyRunResult
from repro.net.stats import merge_snapshots
from repro.runtime.backoff import backoff_delay, jitter_rng
from repro.runtime.daemon import PartyReport
from repro.runtime.failure import (
    CAUSE_AUTH_FAILED,
    CAUSE_CRASH,
    CAUSE_TIMEOUT,
    FATAL,
    FailureReport,
    classify_exception,
)
from repro.runtime.faults import FaultPlan, FaultSpec, parse_fault
from repro.runtime.handshake import HandshakeError, HandshakePeerLost
from repro.runtime.manifest import (
    DEFAULT_HOST,
    RunManifest,
    config_to_dict,
    pair_key,
)
from repro.smc.session import FullKeyProvider

#: Base of the seeded backoff between attempts.  Constant: every
#: attempt starts a whole fleet, whose start-up dwarfs the sleep.
_RETRY_BACKOFF_S = 0.05


class OrchestrationError(RuntimeError):
    """A session failed fatally, exhausted its retries or its deadline,
    or its reports disagreed.

    ``failures`` carries one :class:`~repro.runtime.failure.FailureReport`
    per failed attempt, so callers -- the CLI in particular -- can
    print classified diagnostics instead of a bare exit code.
    """

    def __init__(self, message: str,
                 failures: tuple[FailureReport, ...] = ()):
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class OrchestratedRun:
    """A distributed run's merged result plus runtime evidence.

    Attributes:
        result: the merged protocol result, shaped exactly like the
            in-process mesh's return value.
        reports: per-party :class:`~repro.runtime.daemon.PartyReport`.
        transcript_digests: per-pair SHA-256 of the message sequence,
            agreed by both ends of the pair -- compare against
            :func:`repro.net.transcript.transcript_digest` of an
            in-process run to assert wire-level equivalence.
        manifest: the manifest of the attempt that succeeded.
        elapsed_seconds: wall clock over all attempts.
        attempts: how many fleets ran the session (1 for a fault-free
            run).
        failures: one classified report per failed attempt --
            non-empty on a successfully *recovered* run.
    """

    result: MultipartyRunResult
    reports: dict[str, PartyReport]
    transcript_digests: dict[str, str]
    manifest: RunManifest
    elapsed_seconds: float
    attempts: int = 1
    failures: tuple[FailureReport, ...] = ()


def allocate_ports(count: int, host: str = DEFAULT_HOST) -> list[int]:
    """Grab ``count`` distinct ephemeral ports.

    All sockets are bound before any is closed so the kernel cannot hand
    the same port twice.  The classic race (another process claiming a
    port between release and the daemon's bind) is accepted for
    loopback fleets: the daemon then fails to start, which the fleet
    reports as a crash, loud rather than mysterious.
    """
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def build_manifest(points_by_party: dict[str, list],
                   config: ProtocolConfig, seeds: list[int], *,
                   host: str = DEFAULT_HOST,
                   faults: FaultPlan | None = None,
                   session_id: str | None = None,
                   ports: dict[str, int] | None = None,
                   rng_namespace: str | None = None,
                   link_auth: bool = False) -> RunManifest:
    """Derive the public run description from a workload.

    ``value_bound`` is computed over the union of all parties' points
    with the same function the in-process runner uses, so the secure
    comparison domains -- and therefore every message -- match the
    in-process execution exactly.  The fault plan rides in the manifest
    (and hence inside the session-sync digest): every daemon interprets
    the same planned failures, which keeps chaos runs reproducible.
    ``ports`` defaults to a zero per pair: daemons route over their
    standing links and never read it.

    ``key_digests``: the workload owner building the manifest is the
    one place that may derive *every* party's keypair (it hands out the
    partitions anyway), so it pins one digest per party over its
    expected Paillier and DGK *public* keys into the manifest, derived
    exactly as the in-process mesh derives them.  The daemons derive
    only their own slot's keys; each peer's public keys arrive over the
    wire and are cross-checked against these digests at session start.
    Digests expose no secret: they hash public parameters.
    """
    names = list(points_by_party)
    if seeds is None or len(seeds) != len(names):
        raise OrchestrationError(
            "orchestrate_run requires one RNG seed per party (the party "
            "daemons derive their pairwise coin streams from them)")
    all_points = [tuple(p) for pts in points_by_party.values() for p in pts]
    if not all_points:
        raise OrchestrationError("no party holds any points")
    dimensions = len(all_points[0])
    value_bound = squared_distance_bound(all_points, all_points)
    pair_keys = [pair_key(a, b)
                 for index, a in enumerate(names)
                 for b in names[index + 1:]]
    if ports is None:
        ports = dict.fromkeys(pair_keys, 0)
    key_digests: dict[str, str] = {}
    if config.smc.key_seed is not None:
        provider = FullKeyProvider(config.smc)
        for slot, name in enumerate(names):
            context = provider.context_for(name, slot)
            key_digests[name] = public_key_digest(
                context.paillier.public_key,
                context.dgk.public_key if context.dgk else None)
    return RunManifest(
        session_id=session_id or uuid.uuid4().hex,
        names=tuple(names),
        seeds=tuple(seeds),
        counts={name: len(points) for name, points in
                points_by_party.items()},
        dimensions=dimensions,
        value_bound=value_bound,
        ports=ports,
        config=config_to_dict(config),
        host=host,
        faults=(faults or FaultPlan()).to_dicts(),
        rng_namespace=rng_namespace,
        key_digests=key_digests,
        link_auth=link_auth,
    )


def merge_reports(manifest: RunManifest,
                  reports: dict[str, PartyReport]) -> tuple[
                      MultipartyRunResult, dict[str, str]]:
    """Merge per-party reports into the in-process result shape.

    Both ends of every pair independently recorded the pair's full
    message sequence and report it as the canonical pass-order
    concatenation of its key exchange and per-driver streams; their
    digests must agree (the mirror makes them byte-identical by
    construction, so a mismatch means a runtime bug and raises).
    Per-pair figures are then taken from the lower-slot party, never
    double-counted.
    """
    digests: dict[str, str] = {}
    snapshots: list[dict] = []
    comparisons = 0
    for left, right in manifest.pairs():
        key = pair_key(left, right)
        left_pair = reports[left].pair_reports[key]
        right_pair = reports[right].pair_reports[key]
        if left_pair["transcript_sha256"] != right_pair["transcript_sha256"]:
            raise OrchestrationError(
                f"transcript divergence on pair {key}: {left!r} digests "
                f"{left_pair['transcript_sha256'][:12]}..., {right!r} "
                f"digests {right_pair['transcript_sha256'][:12]}...")
        if left_pair["comparisons"] != right_pair["comparisons"]:
            raise OrchestrationError(
                f"comparison-count divergence on pair {key}: "
                f"{left_pair['comparisons']} vs {right_pair['comparisons']}")
        digests[key] = left_pair["transcript_sha256"]
        snapshots.append(left_pair["stats"])
        comparisons += left_pair["comparisons"]

    # The global disclosure sequence: drivers take turns in manifest
    # order, and each party's report holds exactly its own pass's
    # events, so concatenation in names order reproduces the in-process
    # ledger.
    ledger = LeakageLedger()
    for name in manifest.names:
        ledger.extend(reports[name].ledger())

    result = MultipartyRunResult(
        labels_by_party={name: reports[name].labels
                         for name in manifest.names},
        ledger=ledger,
        stats=merge_snapshots(snapshots),
        comparisons=comparisons,
    )
    return result, digests


def verify_against_in_process(run: OrchestratedRun,
                              points_by_party: dict[str, list],
                              config: ProtocolConfig,
                              seeds: list[int], *,
                              reference=None,
                              mesh=None) -> dict[str, bool]:
    """The equivalence bar, as data: run the workload in process and
    compare every protocol observable.

    ``run`` is an orchestrated run or a daemon session
    (:class:`~repro.runtime.client.DaemonRun`).  Returns
    ``{check: passed}`` for labels, the disclosure ledger, the
    comparison count, the per-pair transcript digests, and the merged
    stats snapshot (rounds included).  The daemons run the k passes at
    once and the mesh one after another; both report each pair in
    canonical pass order, so the two compare bit for bit.  The reference
    mesh runs under the session's ``rng_namespace``, so a wave session
    (``submit_wave``, ``repro submit --concurrency``) is checked against
    its own coins.  ``repro orchestrate --verify``, ``repro submit
    --verify``, the distributed example, and the layered benchmark all
    call this one helper, so the bar cannot drift between surfaces.
    Callers that already ran the in-process arm (benchmarks, timing both
    sides) pass their ``reference`` result and ``mesh`` to skip the
    duplicate execution.
    """
    from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
    from repro.multiparty.mesh import PartyMesh
    from repro.net.transcript import transcript_digest

    if (reference is None) != (mesh is None):
        raise OrchestrationError(
            "pass reference and mesh together (the digests come from the "
            "mesh that produced the reference result)")
    if mesh is None:
        mesh = PartyMesh(list(points_by_party), config.smc, seeds=seeds,
                         rng_namespace=run.manifest.rng_namespace)
        reference = run_multiparty_horizontal_dbscan(
            points_by_party, config, seeds=seeds, mesh=mesh)
    reference_digests = {
        pair_key(*pair): transcript_digest(transcript)
        for pair, transcript in mesh.pair_transcripts().items()}
    return {
        "labels": run.result.labels_by_party == reference.labels_by_party,
        "ledger": run.result.ledger.events == reference.ledger.events,
        "comparisons": run.result.comparisons == reference.comparisons,
        "transcripts": run.transcript_digests == reference_digests,
        "stats": run.result.stats == reference.stats,
    }


def orchestrate_run(points_by_party: dict[str, list],
                    config: ProtocolConfig, *,
                    seeds: list[int],
                    deadline_s: float = 180.0,
                    retry_budget: int = 3,
                    faults=(),
                    psk: str | None = None,
                    trace_dir: str | pathlib.Path | None = None,
                    ) -> OrchestratedRun:
    """Run the k-party horizontal protocol on a throwaway daemon fleet.

    Args:
        points_by_party: party name -> integer-grid points; each
            daemon receives only its own party's points.
        config: protocol parameters; must be daemon-runtime supported
            (bitwise backend, ``key_seed`` set -- validated before any
            process starts).
        seeds: per-party RNG seeds, ordered as the dict; mandatory,
            because the daemons derive their pairwise coin streams
            from them.
        deadline_s: wall-clock bound over all attempts together; on
            expiry the fleet is stopped and the error names the parties
            that had not reported.
        retry_budget: re-runs after retryable failures before the run
            is abandoned.
        faults: planned failures -- :class:`FaultSpec` objects or spec
            strings like ``"kill:b@pass2"`` (grammar in
            :mod:`repro.runtime.faults`).  Attempt ``a`` carries exactly
            the specs addressed to it (``@e<a>``, default 0).  Kill
            faults end a daemon process, which is why the fleet is
            always a process fleet.
        psk: pre-shared key for link authentication.  When given, the
            manifest's ``link_auth`` flag is set and every frame
            carries an HMAC; the secret itself reaches the daemons by
            environment only.
        trace_dir: when set, every daemon writes a structured span
            trace to ``<trace_dir>/<party>.jsonl``.  Traces record
            timings and sizes only -- never frame bytes or plaintext
            values -- so tracing cannot perturb the equivalence bar.
    """
    plan = _coerce_faults(faults, seed=seeds[0] if seeds else 0)
    manifest = build_manifest(points_by_party, config, seeds,
                              link_auth=bool(psk))
    if trace_dir:
        pathlib.Path(trace_dir).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    deadline = time.monotonic() + deadline_s
    rng = jitter_rng(manifest.seeds[0], "attempt", manifest.session_id)
    failures: list[FailureReport] = []
    attempt = 0
    while True:
        attempt_manifest = replace(
            manifest, faults=plan.for_attempt(attempt).to_dicts())
        run, reports = _run_attempt(
            attempt_manifest, points_by_party, psk=psk,
            trace_dir=str(trace_dir) if trace_dir else None,
            deadline=deadline)
        if run is not None:
            return OrchestratedRun(
                result=run.result, reports=run.reports,
                transcript_digests=run.transcript_digests,
                manifest=attempt_manifest,
                elapsed_seconds=time.perf_counter() - started,
                attempts=attempt + 1, failures=tuple(failures))
        # One report per attempt: a daemon that exited first (its
        # peers only saw the lost link), then a fatal cause.
        failure = min(reports, key=lambda report: (
            report.cause != CAUSE_CRASH, report.classification != FATAL))
        failures.append(failure)
        if time.monotonic() >= deadline:
            silent = sorted(report.party for report in reports
                            if report.cause == CAUSE_TIMEOUT)
            raise OrchestrationError(
                f"run exceeded the {deadline_s}s deadline on attempt "
                f"{attempt + 1}; {silent or list(manifest.names)} had not "
                f"reported", failures=tuple(failures))
        if failure.classification == FATAL:
            raise OrchestrationError(
                f"{failure.summary()} -- fatal -- not retrying",
                failures=tuple(failures))
        if attempt >= retry_budget:
            raise OrchestrationError(
                f"{failure.summary()} -- retry budget of {retry_budget} "
                f"exhausted", failures=tuple(failures))
        time.sleep(backoff_delay(_RETRY_BACKOFF_S, attempt, rng))
        attempt += 1


def _run_attempt(manifest: RunManifest, points_by_party: dict[str, list],
                 *, psk: str | None, trace_dir: str | None,
                 deadline: float):
    """One attempt on a fresh process fleet: ``(DaemonRun, ())`` on
    success, ``(None, failure reports)`` otherwise.  The fleet is
    stopped on every path, and each member's exit code is read after
    the stop: a daemon that exited on its own is a ``crash``."""
    # Imported here: the client module imports this one.
    from repro.runtime.client import DaemonFleet, SessionClientError

    fleet = DaemonFleet(manifest.names, mode="process", psk=psk,
                        trace_dir=trace_dir)
    reports: list[FailureReport] = []
    try:
        fleet.start()
        try:
            client = fleet.client(client_id="orchestrator")
        except HandshakePeerLost as exc:
            # A daemon this attempt just started accepted the client's
            # connection and dropped its hello without a reply: the
            # daemons' deliberate no-oracle answer to a failed MAC.
            reports.append(FailureReport.from_cause(
                exc.peer, CAUSE_AUTH_FAILED,
                f"daemon dropped the client hello without a reply "
                f"(pre-shared key mismatch): {exc}"))
        except HandshakeError as exc:
            reports.append(FailureReport.from_cause(
                exc.peer, classify_exception(exc)[0], str(exc)))
        except SessionClientError as exc:
            reports.extend(exc.failures)
        else:
            with client:
                handle = client.submit(manifest, points_by_party)
                try:
                    return handle.result(
                        max(0.0, deadline - time.monotonic())), ()
                except SessionClientError as exc:
                    reports.extend(exc.failures)
                    # Peers of a failed daemon may wait on it forever;
                    # stop them hard instead of draining.
                    client.shutdown_mesh()
    finally:
        members = fleet.stop()
    crashes = [
        FailureReport.from_cause(
            member.name, CAUSE_CRASH,
            f"daemon exited with code {member.process.returncode}"
            + (f"; stderr tail:\n{member.stderr_tail}"
               if member.stderr_tail else ""))
        for member in members if member.exited_on_its_own]
    return None, crashes + reports


def _coerce_faults(faults, *, seed: int) -> FaultPlan:
    specs = tuple(spec if isinstance(spec, FaultSpec)
                  else parse_fault(str(spec), seed=seed)
                  for spec in faults)
    return FaultPlan(specs=specs, seed=seed)
