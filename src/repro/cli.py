"""Command-line interface: demos, the attack, figures, and the runtime.

Usage::

    python -m repro demo --scenario horizontal --points 20 --eps 1.2
    python -m repro demo --scenario enhanced --min-pts 4
    python -m repro attack --observers 8
    python -m repro figures
    python -m repro orchestrate --parties 3 --points 12 --verify
    python -m repro party --run-dir /tmp/run --party party0
    python -m repro mesh-spec /tmp/mesh.json --parties 3
    python -m repro serve --spec /tmp/mesh.json --party party0
    python -m repro submit --spec /tmp/mesh.json --sessions 4 --verify
    python -m repro submit --spec /tmp/mesh.json --concurrency 32
    python -m repro stats --spec /tmp/mesh.json
    python -m repro trace summarize --trace-dir /tmp/traces

``orchestrate`` runs the k-party mesh as *real OS processes* over
loopback TCP (spawning one ``repro party`` subprocess per data holder);
``party`` is that subprocess's entry point -- it can equally be launched
by hand in separate terminals against a shared run directory (see
``examples/distributed_mesh.py``).

``serve``/``submit`` are the resident-daemon runtime: ``mesh-spec``
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
import random
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
from repro.crypto.precompute import combine_pool_reports
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession, channel_for_config

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
    demo.add_argument("--no-precompute", action="store_true",
                      help="disable randomness pools (seed-era behaviour)")
    demo.add_argument("--prefill", type=int, default=0,
                      help="factors to pregenerate per randomness pool "
                           "before the run (offline phase)")

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
    orchestrate.add_argument("--run-dir", default=None,
                             help="materialize manifest/partitions/reports "
                                  "here (kept); default: a temp dir, "
                                  "removed after the run")
    orchestrate.add_argument("--deadline-s", type=float, default=180.0)
    orchestrate.add_argument("--fault", action="append", default=[],
                             dest="faults", metavar="SPEC",
                             help="inject a planned failure, e.g. "
                                  "'kill:party1@pass2' or "
                                  "'drop:party0:party0-party2@pass1.q3' "
                                  "(repeatable; grammar in "
                                  "repro/runtime/faults.py).  The fleet "
                                  "recovers from its checkpoints and the "
                                  "result stays bit-identical")
    orchestrate.add_argument("--retry-budget", type=int, default=3,
                             help="re-spawns of dead parties before the "
                                  "run is abandoned")
    orchestrate.add_argument("--keep-run-dir", action="store_true",
                             help="keep the temporary run directory "
                                  "(checkpoints, failure reports, party "
                                  "logs) for inspection")
    orchestrate.add_argument("--prepare-only", action="store_true",
                             help="write the manifest and partition files "
                                  "to --run-dir and print one 'repro "
                                  "party' command per party (run them in "
                                  "separate terminals) instead of "
                                  "spawning the fleet")
    orchestrate.add_argument("--verify", action="store_true",
                             help="also run the in-process mesh on the "
                                  "same workload and assert bit-identical "
                                  "labels, ledger, and per-pair "
                                  "transcripts")
    orchestrate.add_argument("--psk", default=None,
                             help="pre-shared key: authenticate every "
                                  "party link with per-frame HMACs "
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
             "snapshot (sessions, restarts, pool hit rate, per-pair "
             "frames/bytes)")
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

    party = commands.add_parser(
        "party",
        help="one data holder of an orchestrated run (loads only its own "
             "partition file from --run-dir)")
    party.add_argument("--run-dir", required=True)
    party.add_argument("--party", required=True, dest="party_name")
    party.add_argument("--fail-after-queries", type=int, default=None,
                       help="failure-injection hook: die hard after N "
                            "queries (orchestrator failure-path tests)")
    party.add_argument("--resume", action="store_true",
                       help="rebuild state from checkpoint_<party>.json "
                            "in --run-dir and rejoin the mesh at the "
                            "first incomplete pass")
    party.add_argument("--epoch", type=int, default=0,
                       help="recovery-epoch hint from the orchestrator "
                            "(the checkpoint and the handshake's "
                            "adopt-max rule refine it)")
    party.add_argument("--psk", default=None,
                       help="pre-shared key for link-authenticated "
                            "manifests (falls back to REPRO_PSK)")
    party.add_argument("--bind-host", default=None,
                       help="listen address override for multi-host "
                            "meshes (dialing still uses the manifest's "
                            "host)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except DgkKeySizeError as exc:
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
        return _run_orchestrate(args)
    if args.command == "party":
        return _run_party(args)
    if args.command == "mesh-spec":
        return _run_mesh_spec(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "trace":
        return _run_trace(args)
    return 2  # unreachable: argparse enforces the choices


def _demo_config(args, engine: ModexpEngine) -> ProtocolConfig:
    return ProtocolConfig(
        eps=args.eps, min_pts=args.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=args.key_bits, comparison=args.backend,
                      key_seed=args.seed, engine=engine,
                      precompute=not args.no_precompute),
        alice_seed=args.seed, bob_seed=args.seed + 1)


def _print_crypto_summary(engine: ModexpEngine, pool_reports) -> None:
    """The --workers / --precompute visibility lines of the run summary."""
    pool_reports = list(pool_reports)
    if pool_reports:
        totals = combine_pool_reports(pool_reports)
        print("pools: pregenerated={pregenerated}  consumed={consumed}  "
              "misses={misses}  available={available}".format(**totals))
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
    prefill = 0 if args.no_precompute else args.prefill
    # Precompute phase: spawn the worker pool before anything is run (or
    # timed), so the first online batch never absorbs pool startup.
    engine.warm_up()
    if args.scenario == "multiparty":
        thirds = max(1, len(points) // 3)
        by_party = {"party0": points[:thirds],
                    "party1": points[thirds:2 * thirds],
                    "party2": points[2 * thirds:]}
        mesh = PartyMesh(list(by_party), config.smc,
                         seeds=[args.seed, args.seed + 1, args.seed + 2])
        if prefill:
            mesh.precompute_pools(prefill)
        result = run_multiparty_horizontal_dbscan(by_party, config,
                                                  mesh=mesh)
        for name, labels in result.labels_by_party.items():
            print(f"{name}: {labels}")
        print(f"bytes: {result.stats['total_bytes']:,}  "
              f"rounds: {result.stats['rounds']}  "
              f"comparisons: {result.comparisons}")
        print(f"disclosures: {result.ledger.profile()}")
        _print_crypto_summary(
            engine, (entry for report in mesh.pool_report().values()
                     for entry in report.values()))
        return 0

    session = None
    if args.scenario in ("horizontal", "enhanced"):
        alice_pts, bob_pts = interleave_for_horizontal(
            points, random.Random(args.seed + 9))
        partition = HorizontalPartition(alice_points=tuple(alice_pts),
                                        bob_points=tuple(bob_pts))
        if args.scenario == "horizontal":
            # Plain horizontal runs over an injected session so the pool
            # accounting (and any --prefill offline phase) is visible.
            session = SmcSession(
                *make_party_pair(channel_for_config(config.smc),
                                 config.alice_seed,
                                 config.bob_seed), config.smc)
            if prefill:
                session.precompute_pools(prefill)
        run = cluster_partitioned(partition, config,
                                  enhanced=args.scenario == "enhanced",
                                  session=session)
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
    _print_crypto_summary(
        engine, session.pool_report().values() if session else ())
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
    if args.prepare_only:
        return _prepare_run_dir(args, by_party, config, seeds)
    try:
        run = orchestrate_run(by_party, config, seeds=seeds,
                              run_dir=args.run_dir,
                              deadline_s=args.deadline_s,
                              faults=args.faults,
                              retry_budget=args.retry_budget,
                              keep_run_dir=args.keep_run_dir,
                              psk=_resolve_psk(args),
                              trace_dir=args.trace_dir)
    except OrchestrationError as exc:
        print(f"orchestration failed: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure.summary()}", file=sys.stderr)
        return 1
    for failure in run.failures:
        print(f"recovered: {failure.summary()}")
    for name, count in sorted(run.respawns.items()):
        if count:
            print(f"re-spawned {name} x{count} (resumed from checkpoint)")
    for name, labels in run.result.labels_by_party.items():
        print(f"{name}: {labels}")
    print(f"bytes: {run.result.stats['total_bytes']:,}  "
          f"comparisons: {run.result.comparisons}  "
          f"wall-clock: {run.elapsed_seconds:.2f}s  "
          f"(parties as OS processes over loopback TCP)")
    print(f"disclosures: {run.result.ledger.profile()}")
    if not args.verify:
        return 0

    checks = verify_against_in_process(run, by_party, config, seeds)
    for check, passed in checks.items():
        print(f"verify {check}: {'bit-identical' if passed else 'MISMATCH'}")
    return 0 if all(checks.values()) else 1


def _prepare_run_dir(args, by_party, config, seeds) -> int:
    import pathlib

    from repro.runtime.orchestrator import build_manifest, write_run_dir

    if not args.run_dir:
        raise SystemExit("--prepare-only requires --run-dir")
    manifest = build_manifest(by_party, config, seeds)
    run_dir = pathlib.Path(args.run_dir)
    write_run_dir(run_dir, manifest, by_party)
    print(f"run directory prepared: {run_dir}")
    print("launch each party in its own terminal:")
    for name in manifest.names:
        print(f"  python -m repro party --run-dir {run_dir} --party {name}")
    print("each party writes report_<name>.json when its passes finish")
    return 0


def _resolve_psk(args) -> str | None:
    import os

    return args.psk or os.environ.get("REPRO_PSK") or None


def _run_party(args) -> int:
    from repro.runtime.party import run_party

    report = run_party(args.run_dir, args.party_name,
                       fail_after_queries=args.fail_after_queries,
                       resume=args.resume, epoch=args.epoch,
                       psk=_resolve_psk(args),
                       bind_host=args.bind_host)
    print(f"{report.party}: labels={report.labels} "
          f"elapsed={report.elapsed_seconds:.2f}s")
    return 0


def _run_mesh_spec(args) -> int:
    import pathlib

    from repro.runtime.daemon import MeshSpec, mesh_digest
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
    import pathlib
    import signal

    from repro.runtime.daemon import MeshSpec, PartyDaemon

    spec = MeshSpec.from_json(pathlib.Path(args.spec).read_text())
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
    for signum in (signal.SIGINT, signal.SIGTERM):
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
    import pathlib

    from repro.runtime.client import (
        DaemonFleet,
        SessionClient,
        SessionClientError,
    )
    from repro.runtime.daemon import MeshSpec
    from repro.runtime.manifest import pair_key
    from repro.runtime.orchestrator import build_manifest

    if bool(args.spec) == bool(args.spawn):
        raise SystemExit("submit needs exactly one of --spec or --spawn")

    psk = _resolve_psk(args)
    fleet = None
    if args.spawn:
        names = tuple(f"party{index}" for index in range(args.parties))
        fleet = DaemonFleet(names, mode="process", psk=psk,
                            trace_dir=args.trace_dir).start()
        spec = fleet.spec
    else:
        spec = MeshSpec.from_json(pathlib.Path(args.spec).read_text())

    args.parties = len(spec.names)
    by_party, seeds = _orchestrate_workload(args)
    # _orchestrate_workload names parties party0..k-1; rebind the same
    # partitions to the mesh's party names in slot order.
    by_party = dict(zip(spec.names, by_party.values()))
    config = ProtocolConfig(
        eps=args.eps, min_pts=args.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=args.key_bits, comparison="bitwise",
                      key_seed=args.seed))
    ports = {pair_key(a, b): 0
             for i, a in enumerate(spec.names)
             for b in spec.names[i + 1:]}
    try:
        with SessionClient(spec, psk=psk) as client:
            concurrency = max(1, getattr(args, "concurrency", 1))
            handles = []
            for index in range(max(1, args.sessions)):
                manifest = build_manifest(
                    by_party, config, seeds,
                    session_id=f"submit-{index:03d}",
                    ports=ports, host=spec.host)
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
                if args.verify and not _verify_daemon_run(
                        run, by_party, config, seeds):
                    failures += 1
            if args.shutdown:
                client.shutdown_mesh(drain=True)
        return 1 if failures else 0
    finally:
        if fleet is not None:
            fleet.stop()


def _run_stats(args) -> int:
    import json
    import pathlib

    from repro.runtime.client import SessionClient, SessionClientError
    from repro.runtime.daemon import MeshSpec

    spec = MeshSpec.from_json(pathlib.Path(args.spec).read_text())
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

    def level(name: str, **labels) -> float:
        from repro.obs.metrics import series_key
        return gauges.get(series_key(name, labels), 0)

    consumed = level("repro_randomness", stat="factors_consumed")
    hits = level("repro_randomness", stat="factors_hit")
    hit_rate = f"{hits / consumed:.1%}" if consumed else "n/a"
    print(f"{party}: sessions run={level('repro_sessions_run'):g} "
          f"active={level('repro_sessions_active'):g} "
          f"admitted={total('repro_sessions_admitted_total'):g} "
          f"completed={total('repro_sessions_completed_total'):g} "
          f"failed={total('repro_sessions_failed_total'):g} "
          f"rejected={total('repro_sessions_rejected_total'):g}")
    print(f"  restarts={total('repro_restarts_total'):g}  "
          f"pool hit rate {hit_rate} ({hits:g}/{consumed:g})  "
          f"threads={level('repro_daemon_threads'):g}")
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


def _verify_daemon_run(run, by_party, config, seeds) -> bool:
    from repro.net.transcript import transcript_digest
    from repro.runtime.manifest import pair_key

    # The reference must share the session's coin stream: wave sessions
    # (--concurrency) run under derived rng_namespaces, and a
    # namespace-mismatched reference would flag transcript drift that
    # is really just different coins.
    mesh = PartyMesh(list(by_party), config.smc, seeds=seeds,
                     rng_namespace=run.manifest.rng_namespace)
    reference = run_multiparty_horizontal_dbscan(by_party, config,
                                                 seeds=seeds, mesh=mesh)
    digests = {pair_key(*pair): transcript_digest(transcript)
               for pair, transcript in mesh.pair_transcripts().items()}
    checks = {
        "labels": run.result.labels_by_party == reference.labels_by_party,
        "ledger": run.result.ledger.events == reference.ledger.events,
        "comparisons": run.result.comparisons == reference.comparisons,
        "transcripts": run.transcript_digests == digests,
    }
    for check, passed in checks.items():
        print(f"  verify {check}: "
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
