"""Session runners, daemon meshes and measurements of the layered benchmark.

A runner owns one workload's inputs and executes numbered sessions:
session 0 is the cold start, later indices are measured.  Every session
gets distinct coins (``session_seeds`` / ``session_id``) over the same
data, so exact counts repeat.  Each finished session is checked against
``union_density_dbscan`` and -- for the mesh -- against the closed-form
count model; a session that fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import model
# Protocol entry points are called through their modules, where the
# trace run's probes replace them.
from repro.core import enhanced
from repro.crypto.integer_math import powmod_cache_report
from repro.data.partitioning import HorizontalPartition
from repro.data.quantize import squared_distance_bound
from repro.multiparty import horizontal
from repro.multiparty.mesh import PartyMesh
from repro.net.party import make_party_pair
from repro.obs.metrics import parse_series_key
from repro.runtime.client import DaemonFleet, SessionClient
from repro.runtime.manifest import pair_key
from repro.runtime.orchestrator import build_manifest, verify_against_in_process
from repro.smc.session import SmcSession, channel_for_config
from workloads import (
    Workload,
    deal,
    enhanced_config,
    protocol_config,
    reference_labels,
    session_id,
    session_seeds,
)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PSK = "layered-benchmark-link-key"
SESSION_TIMEOUT_S = 60.0
_TICKS = os.sysconf("SC_CLK_TCK")


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory next to this file that becomes the temporary
    directory of this process and its children; removed on exit."""
    path = tempfile.mkdtemp(prefix="scratch-", dir=HERE)
    os.environ["TMPDIR"] = tempfile.tempdir = path
    try:
        yield pathlib.Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- /proc readers -----------------------------------------------------------

def process_cpu_s(pid: int) -> float:
    """utime + stime of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # Fields after the parenthesised command name start at field 3.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _status_field(pid: int, field_name: str) -> int:
    """The first number of one ``/proc/<pid>/status`` line."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field_name} line for process {pid}")


def process_peak_rss_mb(pid: int) -> float:
    """VmHWM of one process, in MiB."""
    return _status_field(pid, "VmHWM") / 1024


def process_threads(pid: int) -> int:
    return _status_field(pid, "Threads")


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: ``src`` importable."""
    env = dict(os.environ)
    path = str(ROOT / "src")
    env["PYTHONPATH"] = (path + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else path)
    return env


def series_total(snapshots: dict, table: str, name: str, **labels) -> float:
    """Sum of one metric over daemons' ``get_metrics`` snapshots."""
    total = 0.0
    for snapshot in snapshots.values():
        for key, value in snapshot[table].items():
            series, series_labels = parse_series_key(key)
            if series == name and all(series_labels.get(label) == wanted
                                      for label, wanted in labels.items()):
                total += value
    return total


# -- sessions ----------------------------------------------------------------

@dataclass
class Outcome:
    """One finished session as the client saw it."""

    index: int
    latency_s: float
    labels: dict
    stats: dict
    comparisons: int
    pool: dict
    run: object = None
    infos: list = field(default_factory=list)


@dataclass
class _Done:
    """An in-process session: finished by the time it is submitted."""

    index: int
    outcome: Outcome | None = None
    error: BaseException | None = None

    def done(self) -> bool:
        return True


@dataclass
class _Pending:
    index: int
    started: float
    handle: object

    def done(self) -> bool:
        return self.handle.done()


class Runner:
    """Inputs, gates and session execution of one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.points = deal(workload, seed)
        self.config = protocol_config(workload, seed)
        self.reference = reference_labels(self.points, self.config)
        everything = [p for points in self.points.values() for p in points]
        self.value_bound = squared_distance_bound(everything, everything)
        self.expected = None
        if workload.protocol == "mesh":
            self.expected = model.predict_mesh(
                self.points, self.config.eps_squared, self.config.min_pts,
                self.value_bound, self.config.smc.mask_sigma)
        self._first_counts = None

    def mismatches(self, outcome: Outcome) -> list[str]:
        """Why ``outcome`` is wrong; empty when it passes every gate."""
        problems = []
        if outcome.labels != self.reference:
            problems.append("labels differ from union_density_dbscan")
        counts = (outcome.stats["total_messages"], outcome.stats["rounds"],
                  outcome.comparisons)
        if self.expected is not None:
            source = "the count model"
            predicted = (self.expected.messages, self.expected.rounds,
                         self.expected.comparisons)
        else:
            source = "the first session"
            if self._first_counts is None:
                self._first_counts = counts
            predicted = self._first_counts
        if counts != predicted:
            problems.append(f"(messages, rounds, comparisons) {counts} != "
                            f"{predicted} from {source}")
        return problems

    def run(self, index: int) -> Outcome:
        return self.collect(self.submit(index))

    pids: tuple[int, ...] = ()

    def cpu_s(self) -> float:
        """CPU time of this worker plus every daemon it started."""
        return sum(process_cpu_s(pid) for pid in (os.getpid(), *self.pids))

    def peak_rss_mb(self) -> float:
        return sum(process_peak_rss_mb(pid)
                   for pid in (os.getpid(), *self.pids))

    def close(self) -> None:
        pass


class InprocRunner(Runner):
    """Sessions run in this process, over in-memory channels."""

    def __init__(self, workload: Workload, seed: int):
        super().__init__(workload, seed)
        self.span = contextlib.nullcontext

    def submit(self, index: int) -> _Done:
        try:
            return _Done(index, outcome=self._execute(index))
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            return _Done(index, error=exc)

    def collect(self, pending: _Done) -> Outcome:
        if pending.error is not None:
            raise pending.error
        return pending.outcome

    def _execute(self, index: int) -> Outcome:
        seeds = session_seeds(self.workload, self.seed, index)
        names = list(self.points)
        with self.span():
            started = time.perf_counter()
            if self.workload.protocol == "mesh":
                mesh = PartyMesh(names, self.config.smc, seeds=seeds,
                                 rng_namespace=session_id(
                                     self.workload, self.seed, index))
                result = horizontal.run_multiparty_horizontal_dbscan(
                    self.points, self.config, seeds=seeds, mesh=mesh)
                latency = time.perf_counter() - started
                labels = dict(result.labels_by_party)
                pools = [report for pair in mesh.pool_report().values()
                         for report in pair.values()]
            else:
                config = enhanced_config(self.config, seeds)
                alice, bob = make_party_pair(
                    channel_for_config(config.smc), config.alice_seed,
                    config.bob_seed)
                session = SmcSession(alice, bob, config.smc)
                result = enhanced.run_enhanced_horizontal_dbscan(
                    HorizontalPartition(tuple(self.points[names[0]]),
                                        tuple(self.points[names[1]])),
                    config, session=session)
                latency = time.perf_counter() - started
                labels = {names[0]: result.alice_labels,
                          names[1]: result.bob_labels}
                pools = list(session.pool_report().values())
        return Outcome(index, latency, labels, result.stats,
                       result.comparisons, _pool_totals(pools))

    def window_state(self) -> dict:
        return {"memo": powmod_cache_report(),
                "pool": "per session, created empty; never prefilled"}


def _pool_totals(reports) -> dict:
    totals = {"consumed": 0, "misses": 0}
    for report in reports:
        for key in totals:
            totals[key] += report.get(key, 0)
    return totals


class DaemonRunner(Runner):
    """Sessions submitted through one SessionClient to a daemon process
    per party, over loopback TCP with a PSK.

    Untraced runs start the real ``repro serve`` through
    ``DaemonFleet(mode="process")``.  Traced runs start ``launcher.py``
    (the same daemon with the probes installed) on the fleet's spec
    instead: the fleet can only spawn ``repro serve``.  The program's own
    spans then go to ``trace_dir`` and the probes' spans to
    ``trace_dir/<party>.spans.json``.  Either way the daemons are stopped
    by a drain shutdown, after which the launchers write their spans.
    """

    def __init__(self, workload: Workload, seed: int, *,
                 trace_dir: pathlib.Path | None = None):
        super().__init__(workload, seed)
        names = workload.parties
        self.ports = {pair_key(a, b): 0 for i, a in enumerate(names)
                      for b in names[i + 1:]}
        self.trace_dir = trace_dir
        self.fleet = DaemonFleet(names, net_delay_s=workload.net_delay_s,
                                 engine_workers=1, mode="process", psk=PSK)
        self.launchers: list[subprocess.Popen] = []
        self.client: SessionClient | None = None
        try:
            if trace_dir is None:
                self.fleet.start()
                processes = [member.process
                             for member in self.fleet._members]
            else:
                self._launch(trace_dir)
                processes = self.launchers
            self.pids = tuple(process.pid for process in processes)
            self.client = self.fleet.client(client_id="bench")
        except BaseException:
            self.close()
            raise

    def _launch(self, trace_dir: pathlib.Path) -> None:
        spec_path = trace_dir / "mesh.json"
        spec_path.write_text(self.fleet.spec.to_json())
        env = dict(os.environ, REPRO_PSK=PSK, REPRO_TRACE_DIR=str(trace_dir))
        for name in self.workload.parties:
            self.launchers.append(subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"),
                 "--spec", str(spec_path), "--party", name,
                 "--spans", str(self.spans_path(name))],
                env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))

    def spans_path(self, name: str) -> pathlib.Path:
        return self.trace_dir / f"{name}.spans.json"

    def submit(self, index: int) -> _Pending:
        started = time.perf_counter()
        name = session_id(self.workload, self.seed, index)
        manifest = build_manifest(
            self.points, self.config,
            session_seeds(self.workload, self.seed, index),
            session_id=name, ports=self.ports, host=self.fleet.spec.host,
            rng_namespace=name)
        return _Pending(index, started,
                        self.client.submit(manifest, self.points))

    def collect(self, pending: _Pending) -> Outcome:
        run = pending.handle.result(SESSION_TIMEOUT_S)
        latency = time.perf_counter() - pending.started
        infos = [report.runtime_info for report in run.reports.values()]
        return Outcome(pending.index, latency,
                       dict(run.result.labels_by_party), run.result.stats,
                       run.result.comparisons,
                       _pool_totals(info.get("pool", {}) for info in infos),
                       run=run, infos=infos)

    def metrics(self) -> dict:
        return self.client.get_metrics()

    def window_state(self) -> dict:
        state = {}
        for party, snapshot in sorted(self.metrics().items()):
            state[party] = {
                prefix: {parse_series_key(key)[1]["stat"]: value
                         for key, value in snapshot["gauges"].items()
                         if parse_series_key(key)[0] == prefix}
                for prefix in ("repro_powmod_cache", "repro_randomness")}
        return state

    def verify_in_process(self, outcome: Outcome) -> dict:
        """Re-run ``outcome``'s session in this process, untimed, and
        compare it bit for bit: labels, ledger, comparison count,
        per-pair transcript digests and merged stats.  Also returns the
        powmods the in-process run executed (memo misses)."""
        seeds = session_seeds(self.workload, self.seed, outcome.index)
        mesh = PartyMesh(list(self.points), self.config.smc, seeds=seeds,
                         rng_namespace=session_id(self.workload, self.seed,
                                                  outcome.index))
        before = powmod_cache_report()["misses"]
        reference = horizontal.run_multiparty_horizontal_dbscan(
            self.points, self.config, seeds=seeds, mesh=mesh)
        modexps = powmod_cache_report()["misses"] - before
        checks = verify_against_in_process(
            outcome.run, self.points, self.config, seeds,
            reference=reference, mesh=mesh)
        return {"session": outcome.index, "checks": checks,
                "inproc_modexps": modexps}

    def close(self) -> None:
        """Drain-shut every daemon and wait until each has exited."""
        drained = False
        try:
            if self.client is not None:
                try:
                    self.client.shutdown_mesh(drain=True)
                    drained = True
                finally:
                    self.client.close()
                    self.client = None
        finally:
            for process in self.launchers:
                try:
                    process.wait(timeout=60 if drained else 0.1)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            self.fleet.stop()


def make_runner(workload: Workload, seed: int, *,
                trace_dir: pathlib.Path | None = None) -> Runner:
    if workload.runtime == "daemon":
        return DaemonRunner(workload, seed, trace_dir=trace_dir)
    return InprocRunner(workload, seed)


# -- the closed loop ---------------------------------------------------------

@dataclass
class Window:
    outcomes: list[Outcome]
    failures: list[str]
    window_s: float
    checkpoint: object = None


def closed_loop(runner: Runner, first_index: int, seconds: float,
                in_flight: int, min_sessions: int,
                checkpoint=None) -> Window:
    """Submit waves of ``in_flight`` sessions for ``seconds``; the window
    ends when the last one finishes.

    The next wave goes out once the previous one has finished, so every
    session shares the daemons with the same number of others and the
    latency samples do not depend on where the window's edges fall.
    The first ``min_sessions`` sessions run as a batch; once all of them
    have finished, ``checkpoint()`` is called and its value kept.  It
    therefore sees the same amount of work on every run, however many
    sessions the rest of the window fits.  The first failure stops
    further submissions.
    """
    outcomes: list[Outcome] = []
    failures: list[str] = []
    pending: list = []
    index = first_index
    batch_done = False
    taken = None
    start = time.perf_counter()

    def may_submit() -> bool:
        if failures:
            return False
        if not batch_done:
            return index - first_index < min_sessions
        return time.perf_counter() - start < seconds

    while True:
        for _ in range(in_flight if not pending else 0):
            if not may_submit():
                break
            try:
                pending.append(runner.submit(index))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failures.append(f"session {index}: submit failed: "
                                f"{type(exc).__name__}: {exc}")
            index += 1
        if not pending:
            if batch_done or failures:
                break
            batch_done = True
            if checkpoint is not None:
                taken = checkpoint()
            continue
        ready = [item for item in pending if item.done()]
        if not ready:
            time.sleep(0.002)
            continue
        for item in ready:
            pending.remove(item)
            try:
                outcome = runner.collect(item)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failures.append(f"session {item.index}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            problems = runner.mismatches(outcome)
            if problems:
                failures.append(f"session {item.index}: "
                                + "; ".join(problems))
            else:
                outcomes.append(outcome)
    return Window(outcomes, failures, time.perf_counter() - start, taken)
