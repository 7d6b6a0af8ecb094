"""Command-line interface: demos, the attack, figures, and the runtime.

Usage::

    python -m repro demo --scenario horizontal --points 20 --eps 1.2
    python -m repro demo --scenario enhanced --min-pts 4
    python -m repro attack --observers 8
    python -m repro figures
    python -m repro orchestrate --parties 3 --points 12 --verify
    python -m repro mesh-spec /tmp/mesh.json --parties 3
    python -m repro serve --spec /tmp/mesh.json --party party0
    python -m repro submit --spec /tmp/mesh.json --sessions 4 --verify
    python -m repro submit --spec /tmp/mesh.json --concurrency 32
    python -m repro stats --spec /tmp/mesh.json
    python -m repro trace summarize --trace-dir /tmp/traces

``orchestrate`` runs one k-party session as *real OS processes* over
loopback TCP: a throwaway fleet of ``repro serve`` daemons, one per
data holder, re-run on a fresh fleet if the session fails retryably
(see ``examples/distributed_mesh.py``).

``serve``/``submit`` drive the same daemons by hand: ``mesh-spec``
writes a shared mesh description, ``serve`` keeps one party daemon
alive per terminal (persistent pair links, warmed crypto engine), and
``submit`` fires one or many clustering sessions at the standing mesh
-- interleaved over the same connections -- and merges the reports.
``submit --spawn`` runs the daemons as background subprocesses for a
one-command demo.

``stats`` asks every daemon of a standing mesh for a live metrics
snapshot over the client control plane; ``trace summarize`` folds the
span files a ``--trace-dir`` run wrote into per-session critical-path
breakdowns.

The CLI exists for downstream users who want to see the protocols run
before writing code; everything it does is a thin wrapper over the
public API.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import signal
import sys

from repro.analysis.attacks import (
    Domain2D,
    intersection_attack_report,
    ring_of_observers,
)
from repro.analysis.figures import (
    render_arbitrary_figure,
    render_horizontal_figure,
    render_vertical_figure,
)
from repro.analysis.report import format_ratio, render_table
from repro.core.api import cluster_partitioned
from repro.core.config import ProtocolConfig
from repro.data.dataset import Dataset
from repro.data.generators import gaussian_blobs, interleave_for_horizontal
from repro.data.partitioning import (
    HorizontalPartition,
    partition_arbitrary,
    partition_horizontal,
    partition_vertical,
)
from repro.crypto.dgk import DgkKeySizeError
from repro.crypto.engine import ModexpEngine
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.runtime.daemon import DaemonError, MeshSpec
from repro.runtime.faults import FaultSpecError
from repro.runtime.manifest import ManifestError
from repro.smc.session import SmcConfig

_SCENARIOS = ("horizontal", "enhanced", "vertical", "arbitrary",
              "multiparty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy preserving distributed DBSCAN (Liu et al., "
                    "EDBT 2012) -- demos and analyses.")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run a protocol on synthetic data")
    demo.add_argument("--scenario", choices=_SCENARIOS,
                      default="horizontal")
    demo.add_argument("--points", type=int, default=16,
                      help="total points across parties")
    demo.add_argument("--eps", type=float, default=1.2)
    demo.add_argument("--min-pts", type=int, default=4)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--backend", choices=("bitwise", "ympp", "oracle"),
                      default="bitwise")
    demo.add_argument("--key-bits", type=int, default=256)
    demo.add_argument("--workers", type=int, default=1,
                      help="modexp engine worker processes (1 = serial)")

    attack = commands.add_parser("attack",
                                 help="quantify the Figure 1 attack")
    attack.add_argument("--observers", type=int, default=8)
    attack.add_argument("--eps", type=float, default=2.0)
    attack.add_argument("--samples", type=int, default=40000)
    attack.add_argument("--seed", type=int, default=42)

    commands.add_parser("figures",
                        help="render the Figure 2/3/4 partition diagrams")

    orchestrate = commands.add_parser(
        "orchestrate",
        help="run the k-party mesh as real OS processes over loopback TCP")
    orchestrate.add_argument("--parties", type=int, default=3)
    orchestrate.add_argument("--points", type=int, default=12,
                             help="total points across parties")
    orchestrate.add_argument("--eps", type=float, default=1.2)
    orchestrate.add_argument("--min-pts", type=int, default=4)
    orchestrate.add_argument("--seed", type=int, default=7)
    orchestrate.add_argument("--key-bits", type=int, default=256)
    orchestrate.add_argument("--deadline-s", type=float, default=180.0)
    orchestrate.add_argument("--fault", action="append", default=[],
                             dest="faults", metavar="SPEC",
                             help="inject a planned failure, e.g. "
                                  "'kill:party1@pass2' or "
                                  "'drop:party0:party0-party2@pass1.q3' "
                                  "(repeatable; grammar in "
                                  "repro/runtime/faults.py).  The session "
                                  "re-runs on a fresh daemon fleet and the "
                                  "result stays bit-identical")
    orchestrate.add_argument("--retry-budget", type=int, default=3,
                             help="re-runs after retryable failures before "
                                  "the run is abandoned")
    orchestrate.add_argument("--verify", action="store_true",
                             help="also run the in-process mesh on the "
                                  "same workload and assert bit-identical "
                                  "labels, ledger, and per-pair "
                                  "transcripts")
    orchestrate.add_argument("--psk", default=None,
                             help="pre-shared key: authenticate every "
                                  "daemon link with per-frame HMACs "
                                  "(prefer the REPRO_PSK environment "
                                  "variable over argv on shared hosts)")
    orchestrate.add_argument("--trace-dir", default=None,
                             help="write one structured span trace per "
                                  "party to <dir>/<party>.jsonl (inspect "
                                  "with 'repro trace summarize')")

    mesh_spec = commands.add_parser(
        "mesh-spec",
        help="write a daemon mesh description (party names + listen "
             "ports) for 'repro serve' / 'repro submit'")
    mesh_spec.add_argument("path", help="where to write the spec JSON")
    mesh_spec.add_argument("--parties", type=int, default=3)
    mesh_spec.add_argument("--net-latency-ms", type=float, default=0.0,
                           help="simulated one-way inbound latency per "
                                "pair link (real event-loop time)")
    mesh_spec.add_argument("--workers", type=int, default=1,
                           help="modexp engine worker processes per "
                                "daemon (1 = serial)")
    mesh_spec.add_argument("--host", default=None,
                           help="dial host for the daemons (default "
                                "loopback; set a routable address for "
                                "multi-host meshes and bind with "
                                "'serve --bind-host')")
    mesh_spec.add_argument("--max-sessions", type=int, default=0,
                           help="per-daemon cap on concurrent sessions; "
                                "excess submissions get a typed "
                                "session_rejected reply (0 = unlimited)")
    mesh_spec.add_argument("--link-auth", action="store_true",
                           help="require per-frame HMAC authentication "
                                "on every daemon and client link (each "
                                "endpoint supplies the PSK via --psk / "
                                "REPRO_PSK; the flag is part of the "
                                "mesh digest)")

    serve = commands.add_parser(
        "serve",
        help="run one resident party daemon (persistent pair links, "
             "sessions multiplexed over them) until interrupted")
    serve.add_argument("--spec", required=True,
                       help="mesh spec JSON from 'repro mesh-spec'")
    serve.add_argument("--party", required=True, dest="party_name")
    serve.add_argument("--psk", default=None,
                       help="pre-shared key for --link-auth meshes "
                            "(falls back to REPRO_PSK)")
    serve.add_argument("--bind-host", default=None,
                       help="listen address override (e.g. 0.0.0.0 to "
                            "accept cross-machine dials while the spec "
                            "advertises this daemon's routable host)")
    serve.add_argument("--trace-dir", default=None,
                       help="write this daemon's structured span trace "
                            "to <dir>/<party>.jsonl (falls back to "
                            "REPRO_TRACE_DIR)")

    submit = commands.add_parser(
        "submit",
        help="submit clustering sessions to a standing daemon mesh "
             "(or --spawn a throwaway fleet first)")
    submit.add_argument("--spec", default=None,
                        help="mesh spec of the standing daemons; omit "
                             "with --spawn")
    submit.add_argument("--spawn", action="store_true",
                        help="spawn a daemon fleet as subprocesses for "
                             "this submission, then shut it down")
    submit.add_argument("--parties", type=int, default=3,
                        help="party count for --spawn (ignored with "
                             "--spec)")
    submit.add_argument("--sessions", type=int, default=1,
                        help="how many sessions to submit concurrently")
    submit.add_argument("--concurrency", type=int, default=1,
                        help="submit each session manifest this many "
                             "times in flight, every copy under its own "
                             "rng_namespace (distinct coin streams on "
                             "shared seeds)")
    submit.add_argument("--points", type=int, default=12,
                        help="total points across parties per session")
    submit.add_argument("--eps", type=float, default=1.2)
    submit.add_argument("--min-pts", type=int, default=4)
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument("--key-bits", type=int, default=256)
    submit.add_argument("--verify", action="store_true",
                        help="also run the in-process mesh per session "
                             "and assert bit-identical labels, ledger, "
                             "and per-pair transcripts")
    submit.add_argument("--shutdown", action="store_true",
                        help="stop the daemons after the submissions "
                             "(graceful: daemons drain before closing "
                             "links)")
    submit.add_argument("--psk", default=None,
                        help="pre-shared key for --link-auth meshes "
                             "(falls back to REPRO_PSK)")
    submit.add_argument("--trace-dir", default=None,
                        help="with --spawn: every spawned daemon writes "
                             "its structured span trace to "
                             "<dir>/<party>.jsonl")

    stats = commands.add_parser(
        "stats",
        help="ask every daemon of a standing mesh for a live metrics "
             "snapshot (sessions, threads, per-pair frames/bytes)")
    stats.add_argument("--spec", required=True,
                       help="mesh spec JSON from 'repro mesh-spec'")
    stats.add_argument("--psk", default=None,
                       help="pre-shared key for --link-auth meshes "
                            "(falls back to REPRO_PSK)")
    stats.add_argument("--json", action="store_true",
                       help="print the raw per-daemon snapshots as JSON "
                            "instead of the summary")
    stats.add_argument("--timeout", type=float, default=None,
                       help="seconds to wait for every daemon's reply "
                            "(default: the spec's session timeout)")

    trace = commands.add_parser(
        "trace",
        help="analyze structured span traces from a --trace-dir run")
    trace.add_argument("action", choices=("summarize",),
                       help="summarize: per-session critical-path "
                            "breakdown across parties and passes")
    trace.add_argument("--trace-dir", required=True,
                       help="directory of <party>.jsonl span files")
    return parser


class _SpecFileError(Exception):
    """A mesh spec file that does not load."""


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (DgkKeySizeError, FaultSpecError, ManifestError,
            _SpecFileError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "attack":
        return _run_attack(args)
    if args.command == "figures":
        return _run_figures()
    if args.command == "orchestrate":
        with _sigterm_exits():
            return _run_orchestrate(args)
    if args.command == "mesh-spec":
        return _run_mesh_spec(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        with _sigterm_exits():
            return _run_submit(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "trace":
        return _run_trace(args)
    return 2  # unreachable: argparse enforces the choices


@contextlib.contextmanager
def _sigterm_exits():
    """While the block runs, SIGTERM raises ``SystemExit`` in the main
    thread, so a terminated command unwinds through its ``finally``
    blocks and stops the daemons it spawned."""
    def _exit(signum, frame) -> None:
        raise SystemExit(128 + signum)

    try:
        previous = signal.signal(signal.SIGTERM, _exit)
    except ValueError:  # not the main thread: keep default delivery
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _demo_config(args, engine: ModexpEngine) -> ProtocolConfig:
    return ProtocolConfig(
        eps=args.eps, min_pts=args.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=args.key_bits, comparison=args.backend,
                      key_seed=args.seed, engine=engine),
        alice_seed=args.seed, bob_seed=args.seed + 1)


def _print_crypto_summary(engine: ModexpEngine) -> None:
    """The --workers visibility line of the run summary."""
    stats = engine.report()
    print("engine: workers={workers}  batches={batches}  jobs={jobs}  "
          "parallel_modexps={parallel_modexps}  fallbacks={fallbacks}  "
          "warmups={warmups}".format(**stats))


def _demo_points(args) -> list[tuple[int, ...]]:
    per_blob = max(2, args.points // 2)
    return gaussian_blobs(random.Random(args.seed),
                          centers=[(0.0, 0.0), (6.0, 6.0)],
                          points_per_blob=per_blob,
                          spread=0.4)[:args.points]


def _run_demo(args) -> int:
    points = _demo_points(args)
    with ModexpEngine(workers=args.workers) as engine:
        return _run_demo_with_engine(args, points, engine)


def _run_demo_with_engine(args, points, engine: ModexpEngine) -> int:
    config = _demo_config(args, engine)
    # Spawn the worker processes before anything is run (or timed), so
    # the first batch never absorbs their startup.
    engine.warm_up()
    if args.scenario == "multiparty":
        thirds = max(1, len(points) // 3)
        by_party = {"party0": points[:thirds],
                    "party1": points[thirds:2 * thirds],
                    "party2": points[2 * thirds:]}
        result = run_multiparty_horizontal_dbscan(
            by_party, config, seeds=[args.seed, args.seed + 1, args.seed + 2])
        for name, labels in result.labels_by_party.items():
            print(f"{name}: {labels}")
        print(f"bytes: {result.stats['total_bytes']:,}  "
              f"rounds: {result.stats['rounds']}  "
              f"comparisons: {result.comparisons}")
        print(f"disclosures: {result.ledger.profile()}")
        _print_crypto_summary(engine)
        return 0

    if args.scenario in ("horizontal", "enhanced"):
        alice_pts, bob_pts = interleave_for_horizontal(
            points, random.Random(args.seed + 9))
        partition = HorizontalPartition(alice_points=tuple(alice_pts),
                                        bob_points=tuple(bob_pts))
        run = cluster_partitioned(partition, config,
                                  enhanced=args.scenario == "enhanced")
    elif args.scenario == "vertical":
        run = cluster_partitioned(
            partition_vertical(Dataset.from_points(points), 1), config)
    else:
        run = cluster_partitioned(
            partition_arbitrary(Dataset.from_points(points),
                                random.Random(args.seed + 5)), config)

    print(f"variant: {run.variant}")
    print(f"alice labels: {run.alice_labels}")
    print(f"bob   labels: {run.bob_labels}")
    print(f"bytes: {run.stats['total_bytes']:,}  "
          f"rounds: {run.stats['rounds']}  "
          f"comparisons: {run.comparisons}  "
          f"time: {run.elapsed_seconds:.2f}s")
    print(f"disclosures: {run.ledger.profile()}")
    _print_crypto_summary(engine)
    return 0


def _orchestrate_workload(args) -> tuple[dict[str, list], list[int]]:
    points = _demo_points(args)
    if args.parties < 2:
        raise SystemExit("--parties must be >= 2")
    share = max(1, len(points) // args.parties)
    by_party = {}
    for index in range(args.parties):
        lo = index * share
        hi = len(points) if index == args.parties - 1 else lo + share
        by_party[f"party{index}"] = points[lo:hi]
    seeds = [args.seed + index for index in range(args.parties)]
    return by_party, seeds


def _run_orchestrate(args) -> int:
    from repro.runtime.orchestrator import (
        OrchestrationError,
        orchestrate_run,
        verify_against_in_process,
    )

    by_party, seeds = _orchestrate_workload(args)
    config = ProtocolConfig(
        eps=args.eps, min_pts=args.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=args.key_bits, comparison="bitwise",
                      key_seed=args.seed))
    try:
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=args.deadline_s,
                              faults=args.faults,
                              retry_budget=args.retry_budget,
                              psk=_resolve_psk(args),
                              trace_dir=args.trace_dir)
    except OrchestrationError as exc:
        print(f"orchestration failed: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure.summary()}", file=sys.stderr)
        return 1
    for failure in run.failures:
        print(f"recovered: {failure.summary()}")
    if run.attempts > 1:
        print(f"attempts: {run.attempts} (each failed attempt re-ran the "
              f"session on a fresh daemon fleet)")
    for name, labels in run.result.labels_by_party.items():
        print(f"{name}: {labels}")
    print(f"bytes: {run.result.stats['total_bytes']:,}  "
          f"comparisons: {run.result.comparisons}  "
          f"wall-clock: {run.elapsed_seconds:.2f}s  "
          f"(parties as OS processes over loopback TCP)")
    print(f"disclosures: {run.result.ledger.profile()}")
    if not args.verify:
        return 0

    return 0 if _report_checks(verify_against_in_process(
        run, by_party, config, seeds)) else 1


def _resolve_psk(args) -> str | None:
    import os

    return args.psk or os.environ.get("REPRO_PSK") or None


def _load_spec(path: str) -> MeshSpec:
    """The mesh spec at ``path``; a malformed file is a usage error."""
    import pathlib

    try:
        return MeshSpec.from_json(pathlib.Path(path).read_text())
    except DaemonError as exc:
        raise _SpecFileError(f"{path}: {exc}") from exc


def _run_mesh_spec(args) -> int:
    import pathlib

    from repro.runtime.daemon import mesh_digest
    from repro.runtime.orchestrator import allocate_ports

    if args.parties < 2:
        raise SystemExit("--parties must be >= 2")
    names = tuple(f"party{index}" for index in range(args.parties))
    host_kwargs = {"host": args.host} if args.host else {}
    ports = allocate_ports(args.parties, **host_kwargs)
    spec = MeshSpec(names=names, ports=dict(zip(names, ports)),
                    net_delay_s=args.net_latency_ms / 1000.0,
                    engine_workers=args.workers,
                    max_sessions=args.max_sessions,
                    link_auth=args.link_auth,
                    **host_kwargs)
    path = pathlib.Path(args.path)
    path.write_text(spec.to_json())
    print(f"mesh spec written: {path}  (digest {mesh_digest(spec)[:12]})")
    print("launch each daemon in its own terminal:")
    auth_hint = " --psk <shared secret>" if args.link_auth else ""
    for name in names:
        print(f"  python -m repro serve --spec {path} --party {name}"
              f"{auth_hint}")
    print(f"then submit sessions: python -m repro submit --spec {path}"
          f"{auth_hint}")
    return 0


def _run_serve(args) -> int:
    import os

    from repro.runtime.client import STOP_SIGNALS
    from repro.runtime.daemon import PartyDaemon

    # A fleet spawns its daemons with these held (DaemonFleet.start).
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
    spec = _load_spec(args.spec)
    trace_dir = args.trace_dir or os.environ.get("REPRO_TRACE_DIR") or None
    daemon = PartyDaemon(spec, args.party_name, psk=_resolve_psk(args),
                         bind_host=args.bind_host, trace_dir=trace_dir)
    interrupts = 0

    def _on_interrupt(signum, frame) -> None:
        # First interrupt drains (in-flight sessions finish, new
        # submits get the typed `draining` rejection); the second
        # cancels them.  Before the event loop exists there is nothing
        # to drain -- fall back to the plain KeyboardInterrupt exit.
        nonlocal interrupts
        interrupts += 1
        if daemon._loop is None:
            raise KeyboardInterrupt
        if interrupts == 1:
            print("draining: finishing in-flight sessions "
                  "(interrupt again to stop hard)", flush=True)
            daemon.stop(drain=True)
        else:
            daemon.stop()

    print(f"daemon {args.party_name} listening on "
          f"{args.bind_host or spec.host}:{spec.ports[args.party_name]} "
          f"(mesh of {len(spec.names)}"
          f"{', link auth on' if spec.link_auth else ''}; "
          f"ctrl-c drains, twice stops hard)", flush=True)
    handlers = {}
    for signum in STOP_SIGNALS:
        try:
            handlers[signum] = signal.signal(signum, _on_interrupt)
        except ValueError:
            pass  # not the main thread; keep default delivery
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, previous in handlers.items():
            signal.signal(signum, previous)
    return 0


def _run_submit(args) -> int:
    from repro.runtime.client import (
        DaemonFleet,
        SessionClient,
        SessionClientError,
    )
    from repro.runtime.orchestrator import (
        build_manifest,
        verify_against_in_process,
    )

    if bool(args.spec) == bool(args.spawn):
        raise SystemExit("submit needs exactly one of --spec or --spawn")

    psk = _resolve_psk(args)
    fleet = None
    if args.spawn:
        names = tuple(f"party{index}" for index in range(args.parties))
        fleet = DaemonFleet(names, mode="process", psk=psk,
                            trace_dir=args.trace_dir)
        spec = fleet.spec
    else:
        spec = _load_spec(args.spec)

    args.parties = len(spec.names)
    by_party, seeds = _orchestrate_workload(args)
    # _orchestrate_workload names parties party0..k-1; rebind the same
    # partitions to the mesh's party names in slot order.
    by_party = dict(zip(spec.names, by_party.values()))
    config = ProtocolConfig(
        eps=args.eps, min_pts=args.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=args.key_bits, comparison="bitwise",
                      key_seed=args.seed))
    try:
        if fleet is not None:
            fleet.start()
        with SessionClient(spec, psk=psk) as client:
            concurrency = max(1, getattr(args, "concurrency", 1))
            handles = []
            for index in range(max(1, args.sessions)):
                manifest = build_manifest(
                    by_party, config, seeds,
                    session_id=f"submit-{index:03d}", host=spec.host)
                if concurrency > 1:
                    handles.extend(client.submit_wave(
                        manifest, by_party, concurrency))
                else:
                    handles.append(client.submit(manifest, by_party))
            failures = 0
            for handle in handles:
                try:
                    run = handle.result()
                except SessionClientError as exc:
                    print(f"{handle.session_id}: FAILED ({exc})",
                          file=sys.stderr)
                    failures += 1
                    continue
                info = next(iter(run.reports.values())).runtime_info
                print(f"{handle.session_id}: labels="
                      f"{dict(run.result.labels_by_party)}  "
                      f"comparisons={run.result.comparisons}  "
                      f"{run.elapsed_seconds:.2f}s  "
                      f"(warm_start={info.get('warm_start')})")
                if args.verify and not _report_checks(
                        verify_against_in_process(run, by_party, config,
                                                  seeds), indent="  "):
                    failures += 1
            if args.shutdown:
                client.shutdown_mesh(drain=True)
        return 1 if failures else 0
    finally:
        if fleet is not None:
            fleet.stop()


def _run_stats(args) -> int:
    import json

    from repro.runtime.client import SessionClient, SessionClientError

    spec = _load_spec(args.spec)
    try:
        with SessionClient(spec, psk=_resolve_psk(args)) as client:
            snapshots = client.get_metrics(timeout=args.timeout)
    except SessionClientError as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshots, indent=2, sort_keys=True))
        return 0
    for party in sorted(snapshots):
        _print_daemon_stats(party, snapshots[party])
    return 0


def _print_daemon_stats(party: str, snapshot: dict) -> None:
    from repro.obs.metrics import parse_series_key

    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})

    def total(name: str) -> float:
        return sum(value for key, value in counters.items()
                   if parse_series_key(key)[0] == name)

    def level(name: str) -> float:
        return gauges.get(name, 0)

    print(f"{party}: sessions run={level('repro_sessions_run'):g} "
          f"active={level('repro_sessions_active'):g} "
          f"admitted={total('repro_sessions_admitted_total'):g} "
          f"completed={total('repro_sessions_completed_total'):g} "
          f"failed={total('repro_sessions_failed_total'):g} "
          f"rejected={total('repro_sessions_rejected_total'):g}")
    print(f"  threads={level('repro_daemon_threads'):g}")
    links: dict[str, dict[str, float]] = {}
    for key, value in counters.items():
        name, labels = parse_series_key(key)
        if name not in ("repro_link_frames_total", "repro_link_bytes_total"):
            continue
        entry = links.setdefault(labels.get("pair", "?"), {
            "frames_out": 0, "frames_in": 0, "bytes_out": 0, "bytes_in": 0})
        unit = "frames" if name == "repro_link_frames_total" else "bytes"
        entry[f"{unit}_{labels.get('dir', 'out')}"] += value
    for pair in sorted(links):
        entry = links[pair]
        print(f"  link {pair}: out {entry['frames_out']:g} frames / "
              f"{entry['bytes_out']:g} bytes, in {entry['frames_in']:g} "
              f"frames / {entry['bytes_in']:g} bytes")


def _run_trace(args) -> int:
    from repro.obs.trace import format_trace_summary, summarize_trace_dir

    summary = summarize_trace_dir(args.trace_dir)
    if not summary["sessions"]:
        print(f"no session spans found under {args.trace_dir}",
              file=sys.stderr)
        return 1
    print(format_trace_summary(summary), end="")
    return 0


def _report_checks(checks: dict[str, bool], indent: str = "") -> bool:
    """Print each equivalence check; whether all of them passed."""
    for check, passed in checks.items():
        print(f"{indent}verify {check}: "
              f"{'bit-identical' if passed else 'MISMATCH'}")
    return all(checks.values())


def _run_attack(args) -> int:
    domain = Domain2D(x_min=-10, x_max=10, y_min=-10, y_max=10)
    rows = []
    for count in range(1, args.observers + 1):
        observers = ring_of_observers((0.0, 0.0), count,
                                      distance=args.eps * 0.85)
        report = intersection_attack_report(
            observers, args.eps, domain, random.Random(args.seed),
            samples=args.samples)
        rows.append([count,
                     f"{report.kumar_posterior_area:.3f}",
                     format_ratio(report.kumar_localization),
                     f"{report.permuted_posterior_area:.2f}",
                     format_ratio(report.permuted_localization)])
    print(render_table(
        ["observers", "kumar_area", "kumar_frac", "ours_area", "ours_frac"],
        rows, title=f"Figure 1 attack, eps={args.eps}, "
                    f"prior={domain.area:.0f}"))
    return 0


def _run_figures() -> int:
    dataset = Dataset.from_points([(1, 2, 3, 4), (5, 6, 7, 8),
                                   (9, 10, 11, 12)])
    print("Figure 2 -- horizontally partitioned data:")
    print(render_horizontal_figure(partition_horizontal(dataset, 2)))
    print("\nFigure 3 -- vertically partitioned data:")
    print(render_vertical_figure(partition_vertical(dataset, 2)))
    print("\nFigure 4 -- arbitrarily partitioned data:")
    print(render_arbitrary_figure(
        partition_arbitrary(dataset, random.Random(4),
                            shared_fraction=1.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
