"""Session orchestrator: spawn party processes, supervise, merge.

:func:`orchestrate_run` turns a ``{party: points}`` workload and a
:class:`~repro.core.config.ProtocolConfig` into a real distributed run:

1. build the :class:`~repro.runtime.manifest.RunManifest` (names, seeds,
   counts, the public ``value_bound``, a fresh session id, one TCP port
   per mesh pair, the recovery knobs, and any planned faults) and write
   it -- plus one partition file per party -- into a run directory;
2. spawn ``python -m repro party --run-dir ... --party NAME`` once per
   party: each subprocess loads *only its own* partition file, links up
   over loopback TCP, and runs its passes (no shared memory, no shared
   interpreter state -- key caches, engines, pools all rebuilt per
   process);
3. **supervise with recovery**: a party exiting nonzero is classified
   from its ``failure_<name>.json`` (bare exit codes -- SIGKILL, an
   injected ``os._exit`` -- default to a retryable crash).  Retryable
   deaths re-spawn the party with ``--resume`` under a bounded retry
   budget with exponential backoff and seeded jitter; the survivors
   meanwhile rewind to the last common checkpoint and wait in link-up at
   the next recovery epoch.  Fatal classifications (digest divergence,
   refused handshakes, corrupt checkpoints, an exhausted in-party
   budget) abort the fleet immediately with the report attached.
   Deadline overruns kill the fleet and report who was still running.
   Children are *always* reaped, whatever path aborts the run;
4. merge the per-party reports into the exact
   :class:`~repro.multiparty.horizontal.MultipartyRunResult` shape the
   in-process mesh returns -- labels per party, the global disclosure
   ledger in pass order, the merged communication snapshot, and the
   comparison count -- and cross-check that both ends of every pair
   report the same transcript digest (a divergence is a runtime bug,
   never tolerated silently).

The recovery equivalence bar: a run that crashed and recovered merges
to *bit-identical* observables -- labels, ledger, transcripts, stats,
comparison counts -- as the same workload fault-free (tested in
``tests/runtime/test_faults.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.core.leakage import LeakageLedger
from repro.crypto.sealed import public_key_digest
from repro.data.quantize import squared_distance_bound
from repro.multiparty.horizontal import MultipartyRunResult
from repro.net.stats import merge_snapshots
from repro.obs.metrics import default_registry
from repro.runtime.backoff import backoff_delay, jitter_rng
from repro.runtime.failure import (
    CAUSE_CRASH,
    FATAL,
    RETRYABLE,
    FailureReport,
    failure_path,
    load_failure,
)
from repro.runtime.faults import FaultPlan, FaultSpec, parse_fault
from repro.runtime.manifest import (
    DEFAULT_HOST,
    RunManifest,
    config_to_dict,
    pair_key,
)
from repro.runtime.party import PartyReport
from repro.smc.session import FullKeyProvider


class OrchestrationError(RuntimeError):
    """A party process failed, hung, or reported divergent observables.

    ``failures`` carries the structured per-party
    :class:`~repro.runtime.failure.FailureReport` history of the run
    (every death, including the ones that were recovered), so callers
    -- the CLI in particular -- can print classified diagnostics
    instead of a bare exit code.
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
        reports: per-party :class:`~repro.runtime.party.PartyReport`.
        transcript_digests: per-pair SHA-256 of the message sequence,
            agreed by both ends of the pair -- compare against
            :func:`repro.net.transcript.transcript_digest` of an
            in-process run to assert wire-level equivalence.
        manifest: the manifest the parties ran under.
        elapsed_seconds: orchestrator-observed wall clock, spawn to
            last report.
        respawns: how many times each party was re-spawned (all zero
            for a fault-free run).
        failures: every classified death observed during the run --
            non-empty on a successfully *recovered* run.
    """

    result: MultipartyRunResult
    reports: dict[str, PartyReport]
    transcript_digests: dict[str, str]
    manifest: RunManifest
    elapsed_seconds: float
    respawns: dict[str, int] = field(default_factory=dict)
    failures: tuple[FailureReport, ...] = ()


def allocate_ports(count: int, host: str = DEFAULT_HOST) -> list[int]:
    """Grab ``count`` distinct ephemeral ports.

    All sockets are bound before any is closed so the kernel cannot hand
    the same port twice.  The classic race (another process claiming a
    port between release and the party's bind) is accepted for loopback
    orchestration; the party's bind retries and the orchestrator's
    failure diagnosis make a collision loud, not mysterious.
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
                   timeout_s: float = 30.0,
                   connect_timeout_s: float = 15.0,
                   connect_retries: int = 120,
                   backoff_base_s: float = 0.02,
                   recovery_budget: int = 3,
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
    (and hence inside the handshake digest): every process interprets
    the same planned failures, which keeps chaos runs reproducible.

    ``key_digests``: the orchestrator is the one place that may derive
    *every* party's keypair (it is the trusted workload owner handing
    out partitions anyway), so it pins one digest per party over its
    expected Paillier and DGK *public* keys into the manifest, derived
    exactly as the in-process mesh derives them.  The party processes
    derive only their own slot's keys; each peer's public keys arrive
    over the wire and are cross-checked against these digests at
    session start.  Digests expose no secret: they hash public
    parameters.
    """
    names = list(points_by_party)
    if seeds is None or len(seeds) != len(names):
        raise OrchestrationError(
            "orchestrate_run requires one RNG seed per party (the party "
            "processes derive their pairwise coin streams from them)")
    all_points = [tuple(p) for pts in points_by_party.values() for p in pts]
    if not all_points:
        raise OrchestrationError("no party holds any points")
    dimensions = len(all_points[0])
    value_bound = squared_distance_bound(all_points, all_points)
    pair_keys = [pair_key(a, b)
                 for index, a in enumerate(names)
                 for b in names[index + 1:]]
    if ports is None:
        ports = dict(zip(pair_keys, allocate_ports(len(pair_keys), host)))
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
        timeout_s=timeout_s,
        connect_timeout_s=connect_timeout_s,
        connect_retries=connect_retries,
        backoff_base_s=backoff_base_s,
        recovery_budget=recovery_budget,
        faults=(faults or FaultPlan()).to_dicts(),
        rng_namespace=rng_namespace,
        key_digests=key_digests,
        link_auth=link_auth,
    )


def write_run_dir(run_dir: pathlib.Path, manifest: RunManifest,
                  points_by_party: dict[str, list]) -> None:
    """Materialize the manifest and one partition file per party.

    The per-party file is the process-level privacy boundary: each
    spawned party reads ``partition_<its own name>.json`` and nothing
    else (the party program takes ``--party`` and derives the single
    filename; it has no code path that opens a peer's partition).

    Stale recovery artifacts from a previous run in the same directory
    (checkpoints, failure and party reports) are removed: they belong
    to a dead session, and a resume must never pick them up.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    for pattern in ("checkpoint_*.json", "failure_*.json",
                    "report_*.json"):
        for stale in run_dir.glob(pattern):
            stale.unlink()
    (run_dir / "manifest.json").write_text(manifest.to_json())
    for name, points in points_by_party.items():
        payload = {"party": name,
                   "points": [list(point) for point in points]}
        (run_dir / f"partition_{name}.json").write_text(
            json.dumps(payload) + "\n")


def _spawn_party(run_dir: pathlib.Path, name: str, *,
                 fail_after_queries: int | None,
                 resume: bool = False,
                 epoch: int = 0,
                 psk: str | None = None,
                 trace_dir: str | None = None) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "party",
               "--run-dir", str(run_dir), "--party", name]
    if fail_after_queries is not None:
        command += ["--fail-after-queries", str(fail_after_queries)]
    if resume:
        command += ["--resume", "--epoch", str(epoch)]
    src_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
    if psk:
        # Environment, not argv: the manifest only records *that* links
        # are authenticated; the secret itself never touches disk or a
        # world-readable command line.
        env["REPRO_PSK"] = psk
    if trace_dir:
        env["REPRO_TRACE_DIR"] = str(trace_dir)
    # Append on resume: the previous incarnation's output is part of the
    # run's story and must survive its re-spawn.
    mode = "a" if resume else "w"
    with open(run_dir / f"party_{name}.out", mode) as out, \
            open(run_dir / f"party_{name}.err", mode) as err:
        # Popen dups the descriptors at spawn; closing ours immediately
        # keeps the orchestrator's fd footprint flat across many runs.
        return subprocess.Popen(command, stdout=out, stderr=err, env=env)


def _stderr_tail(run_dir: pathlib.Path, name: str,
                 lines: int = 12) -> str:
    path = run_dir / f"party_{name}.err"
    if not path.exists():
        return "(no stderr captured)"
    tail = path.read_text().strip().splitlines()[-lines:]
    return "\n".join(tail) if tail else "(stderr empty)"


def _reap(processes: dict[str, subprocess.Popen]) -> None:
    """Bring every child down and wait on it -- no orphans, no zombies.

    Runs on *every* exit path (success, abort, deadline kill, an
    exception anywhere in the orchestrator): ``terminate`` first so a
    healthy party can flush its failure report, ``kill`` whatever
    ignores it.
    """
    for process in processes.values():
        if process.poll() is None:
            try:
                process.terminate()
            except OSError:
                pass
    deadline = time.monotonic() + 5.0
    for process in processes.values():
        try:
            process.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _classified_failure(run_dir: pathlib.Path, name: str,
                        code: int) -> FailureReport:
    """The party's own account when it left one; a retryable crash
    otherwise (SIGKILL and ``os._exit`` write nothing)."""
    failure = load_failure(run_dir, name)
    if failure is not None:
        return failure
    return FailureReport(
        party=name, cause=CAUSE_CRASH, classification=RETRYABLE,
        message=f"exited with code {code} without a failure report")


def _supervise(processes: dict[str, subprocess.Popen],
               run_dir: pathlib.Path, manifest: RunManifest,
               deadline_s: float, retry_budget: int,
               fault_injection: dict[str, int],
               psk: str | None = None,
               trace_dir: str | None = None,
               ) -> tuple[dict[str, int], list[FailureReport]]:
    """Wait for the fleet, re-spawning retryable deaths within budget.

    The budget is global (``retry_budget`` re-spawns across the whole
    fleet, not per party), and the re-spawn wave count doubles as the
    ``--epoch`` hint: survivors of the N-th recovery wave re-handshake
    at epoch N, and the resumed party's checkpoint pins it exactly
    (``max(hint, checkpoint epoch + 1)``), with any residual skew
    absorbed by the handshake's adopt-max rule.
    """
    deadline = time.monotonic() + deadline_s
    pending = dict(processes)
    respawns = {name: 0 for name in processes}
    failures: list[FailureReport] = []
    waves = 0
    registry = default_registry()
    obs_waves = registry.counter("repro_retry_waves_total")
    rng = jitter_rng(manifest.seeds[0], "respawn", manifest.session_id)
    while pending:
        progressed = False
        for name, process in list(pending.items()):
            code = process.poll()
            if code is None:
                continue
            progressed = True
            del pending[name]
            if code == 0:
                continue
            failure = _classified_failure(run_dir, name, code)
            failures.append(failure)
            if failure.classification == FATAL:
                raise OrchestrationError(
                    f"party {name!r} exited with code {code} "
                    f"({failure.cause}, fatal -- not retrying): "
                    f"{failure.summary()}\nstderr tail:\n"
                    f"{_stderr_tail(run_dir, name)}",
                    failures=tuple(failures))
            if waves >= retry_budget:
                raise OrchestrationError(
                    f"party {name!r} exited with code {code} "
                    f"({failure.cause}); re-spawn budget of "
                    f"{retry_budget} exhausted, tearing the fleet down.  "
                    f"stderr tail:\n{_stderr_tail(run_dir, name)}",
                    failures=tuple(failures))
            waves += 1
            obs_waves.inc()
            registry.counter("repro_respawns_total", party=name).inc()
            respawns[name] += 1
            # Clear the consumed report so the *next* death (if any)
            # re-classifies from fresh evidence.
            try:
                failure_path(run_dir, name).unlink()
            except OSError:
                pass
            time.sleep(backoff_delay(manifest.backoff_base_s, waves, rng))
            print(f"[orchestrator] re-spawning {name} with --resume "
                  f"(wave {waves}/{retry_budget}, {failure.cause})",
                  flush=True)
            child = _spawn_party(run_dir, name,
                                 fail_after_queries=fault_injection.get(name),
                                 resume=True, epoch=waves, psk=psk,
                                 trace_dir=trace_dir)
            processes[name] = child
            pending[name] = child
        if pending and time.monotonic() >= deadline:
            still_running = sorted(pending)
            raise OrchestrationError(
                f"run exceeded the {deadline_s}s deadline; killing "
                f"{still_running} (a party hung in link-up or a "
                f"protocol receive -- see party_<name>.err in "
                f"{run_dir})", failures=tuple(failures))
        if pending and not progressed:
            time.sleep(0.02)
    return respawns, failures


def merge_reports(manifest: RunManifest,
                  reports: dict[str, PartyReport]) -> tuple[
                      MultipartyRunResult, dict[str, str]]:
    """Merge per-party reports into the in-process result shape.

    Both ends of every pair independently recorded the pair's full
    message sequence; their digests must agree (the mirror makes them
    byte-identical by construction, so a mismatch means a runtime bug
    and raises).  Per-pair figures are then taken from the lower-slot
    party, never double-counted.
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
    """The equivalence bar, as data: run the workload on the in-process
    fabric and compare every protocol observable.

    Returns ``{check: passed}`` for labels, the disclosure ledger, the
    comparison count, the per-pair transcript digests, and the merged
    stats snapshot.  The CLI's ``--verify``, the distributed example,
    and the benchmark's ``socket_runtime`` arm all call this one helper,
    so the bar cannot drift between surfaces.  Callers that already ran
    the in-process arm (benchmarks, timing both sides) pass their
    ``reference`` result and ``mesh`` to skip the duplicate execution.
    """
    from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
    from repro.multiparty.mesh import PartyMesh
    from repro.net.transcript import transcript_digest

    if (reference is None) != (mesh is None):
        raise OrchestrationError(
            "pass reference and mesh together (the digests come from the "
            "mesh that produced the reference result)")
    if mesh is None:
        mesh = PartyMesh(list(points_by_party), config.smc, seeds=seeds)
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
                    run_dir: str | pathlib.Path | None = None,
                    deadline_s: float = 180.0,
                    timeout_s: float = 30.0,
                    connect_timeout_s: float = 15.0,
                    recovery_budget: int = 3,
                    retry_budget: int = 3,
                    backoff_base_s: float = 0.02,
                    faults=(),
                    keep_run_dir: bool = False,
                    fault_injection: dict[str, int] | None = None,
                    psk: str | None = None,
                    trace_dir: str | pathlib.Path | None = None,
                    ) -> OrchestratedRun:
    """Run the k-party horizontal protocol as real processes over TCP.

    Args:
        points_by_party: party name -> integer-grid points (the
            orchestrator writes each party's partition file; only that
            party's process reads it).
        config: protocol parameters; must be socket-runtime supported
            (bitwise backend, ``key_seed`` set -- validated up front).
        seeds: per-party RNG seeds, ordered as the dict; mandatory,
            because the party processes derive their pairwise coin
            streams from them.
        run_dir: where to materialize manifest/partitions/reports; a
            temporary directory (removed unless ``keep_run_dir``) when
            omitted.
        deadline_s: fleet-wide wall-clock bound; overruns kill all
            parties and raise with a per-party status.
        timeout_s: per-receive socket timeout inside the parties.
        connect_timeout_s: per-link dial/accept budget (also how long a
            recovering survivor waits for a dead peer's re-spawn).
        recovery_budget: in-party recovery cycles (survivor-side) per
            process before it gives up.
        retry_budget: orchestrator-side re-spawns across the fleet
            before the run is abandoned.
        backoff_base_s: base of the shared seeded-jitter exponential
            backoff (dial retries, in-party recovery, re-spawns).
        faults: planned failures -- :class:`FaultSpec` objects or spec
            strings like ``"kill:b@pass2"`` (grammar in
            :mod:`repro.runtime.faults`); carried in the manifest so
            every process interprets the same plan.
        keep_run_dir: keep the temporary run directory (checkpoints,
            failure reports, party logs) instead of removing it.
        fault_injection: legacy ``{party: N}`` hook -- that party's
            process dies hard (``os._exit``) after its N-th query on
            *every* incarnation; pair it with ``retry_budget=0`` when
            the test wants the failure path, since resume cannot outrun
            a fault that always re-fires.
        psk: pre-shared key for link authentication.  When given, the
            manifest's ``link_auth`` flag is set (inside the handshake
            digest) and every party frame carries an HMAC; the secret
            itself travels to the party processes by environment only.
        trace_dir: when set, every party process writes a structured
            span trace to ``<trace_dir>/<party>.jsonl`` (propagated via
            the ``REPRO_TRACE_DIR`` environment variable).  Traces
            record timings and sizes only -- never frame bytes or
            plaintext values -- so tracing cannot perturb the
            equivalence bar.
    """
    plan = _coerce_faults(faults, seed=seeds[0] if seeds else 0)
    manifest = build_manifest(points_by_party, config, seeds,
                              timeout_s=timeout_s,
                              connect_timeout_s=connect_timeout_s,
                              backoff_base_s=backoff_base_s,
                              recovery_budget=recovery_budget,
                              faults=plan,
                              link_auth=bool(psk))
    owns_dir = run_dir is None
    run_path = (pathlib.Path(tempfile.mkdtemp(prefix="repro-run-"))
                if owns_dir else pathlib.Path(run_dir))
    started = time.perf_counter()
    processes: dict[str, subprocess.Popen] = {}
    try:
        write_run_dir(run_path, manifest, points_by_party)
        fault_injection = fault_injection or {}
        trace_dir_str = str(trace_dir) if trace_dir else None
        if trace_dir_str:
            pathlib.Path(trace_dir_str).mkdir(parents=True, exist_ok=True)
        for name in manifest.names:
            processes[name] = _spawn_party(
                run_path, name,
                fail_after_queries=fault_injection.get(name), psk=psk,
                trace_dir=trace_dir_str)
        respawns, failures = _supervise(processes, run_path, manifest,
                                        deadline_s, retry_budget,
                                        fault_injection, psk=psk,
                                        trace_dir=trace_dir_str)
        reports = {}
        for name in manifest.names:
            report_path = run_path / f"report_{name}.json"
            if not report_path.exists():
                raise OrchestrationError(
                    f"party {name!r} exited cleanly but wrote no report "
                    f"(stderr tail:\n{_stderr_tail(run_path, name)})",
                    failures=tuple(failures))
            reports[name] = PartyReport.from_json(report_path.read_text())
        result, digests = merge_reports(manifest, reports)
        elapsed = time.perf_counter() - started
        return OrchestratedRun(result=result, reports=reports,
                               transcript_digests=digests,
                               manifest=manifest,
                               elapsed_seconds=elapsed,
                               respawns=respawns,
                               failures=tuple(failures))
    finally:
        _reap(processes)
        if owns_dir and not keep_run_dir:
            shutil.rmtree(run_path, ignore_errors=True)


def _coerce_faults(faults, *, seed: int) -> FaultPlan:
    specs = tuple(spec if isinstance(spec, FaultSpec)
                  else parse_fault(str(spec), seed=seed)
                  for spec in faults)
    return FaultPlan(specs=specs, seed=seed)
