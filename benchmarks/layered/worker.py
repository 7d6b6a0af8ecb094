"""The bench worker: one fresh process per cold start, window or trace.

``run.py`` starts this process and reads its JSON lines from stdout:
``{"ready": ...}`` once the cold session's merged result is in, then --
for a window or trace run -- one final ``{"window": ...}`` or
``{"trace": ...}`` line.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import statistics
import sys
import tempfile
import time
import traceback

from harness import (
    InprocRunner,
    Runner,
    closed_loop,
    make_runner,
    process_threads,
    scratch_dir,
    series_total,
)
from probes import LAYERS, LayerTotals, Recorder, in_window, load_spans
from repro.crypto.integer_math import powmod_cache_report
from repro.crypto.keycache import cached_paillier_keypair
from repro.obs.trace import read_trace_dir
from workloads import WORKLOADS, Workload, session_id

#: Key sizes whose per-operation Paillier cost every trace run records.
OP_COST_BITS = (512, 1024, 2048)
OP_COST_SAMPLES = 5
#: An in-process trace run times at least this many pairs of one
#: untraced and one traced session, however short ``--seconds`` is.
TRACE_MIN_PAIRS = 10
#: Per-layer metrics read from what only daemons have: their metrics
#: snapshots, session reports and the program's own trace.  In-process
#: workloads measure none of them.
DAEMON_ONLY = (
    "net.link_bytes_ratio",
    "runtime.restarts",
    "runtime.replayed_frame_ratio",
    "runtime.attempts_per_query",
    "runtime.mirror_modexp_ratio",
    "runtime.session_setup_s",
    "runtime.peer_query_p90_s",
)


def emit(message: dict) -> None:
    print(json.dumps(message, sort_keys=True), flush=True)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def cold_start(runner: Runner) -> list[str]:
    """Session 0; returns its failures (empty when it passed)."""
    try:
        outcome = runner.run(0)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        return [f"session 0: {_describe(exc)}"]
    return [f"session 0: {problem}" for problem in runner.mismatches(outcome)]


def setup_and_window(workload: Workload, seed: int, seconds: float,
                     window: bool) -> None:
    runner = make_runner(workload, seed)
    try:
        failures = cold_start(runner)
        emit({"ready": {"failures": failures}})
        if not window or failures:
            return
        state = runner.window_state()
        cpu_before = runner.cpu_s()
        result = closed_loop(runner, 1, seconds, workload.in_flight,
                             workload.min_sessions,
                             checkpoint=runner.peak_rss_mb)
        cpu_s = runner.cpu_s() - cpu_before
        peak_rss_mb = result.checkpoint
        gate = None
        if workload.runtime == "daemon" and result.outcomes:
            gate = runner.verify_in_process(result.outcomes[0])
            if not all(gate["checks"].values()):
                result.failures.append(
                    f"in-process re-run of session {gate['session']} "
                    f"differs: {gate['checks']}")
        outcomes = result.outcomes
        emit({"window": {
            "sessions": len(outcomes),
            "window_s": result.window_s,
            "latencies_s": [o.latency_s for o in outcomes],
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "bytes": [o.stats["total_bytes"] for o in outcomes],
            "rounds": [o.stats["rounds"] for o in outcomes],
            "messages": [o.stats["total_messages"] for o in outcomes],
            "comparisons": [o.comparisons for o in outcomes],
            "failures": result.failures,
            "window_state": state,
            "gate": gate,
        }})
    finally:
        runner.close()


# -- trace runs --------------------------------------------------------------

def op_costs_ms(seed: int) -> dict[str, float]:
    """Median per-operation Paillier encrypt/decrypt cost per key size."""
    costs = {}
    for bits in OP_COST_BITS:
        keypair = cached_paillier_keypair(bits, seed)
        public = keypair.public_key
        rng = random.Random(seed)
        encrypt, decrypt = [], []
        for _ in range(OP_COST_SAMPLES):
            plaintext = rng.randrange(public.n)
            started = time.perf_counter()
            ciphertext = public.encrypt(plaintext, rng)
            encrypt.append(time.perf_counter() - started)
            started = time.perf_counter()
            keypair.private_key.decrypt(ciphertext)
            decrypt.append(time.perf_counter() - started)
        costs[f"crypto.encrypt_ms_{bits}"] = statistics.median(encrypt) * 1e3
        costs[f"crypto.decrypt_ms_{bits}"] = statistics.median(decrypt) * 1e3
    return costs


def span_metrics(totals: LayerTotals, sessions: int) -> dict[str, float]:
    """Per-session layer figures from the probes' spans."""
    def per(value: float) -> float:
        return value / sessions

    metrics = {
        "crypto.encrypt_s": per(totals.self_s("crypto", "encrypt")),
        "crypto.encrypt_calls": per(totals.entries("crypto", "encrypt")),
        "crypto.decrypt_s": per(totals.self_s("crypto", "decrypt")),
        "crypto.decrypt_calls": per(totals.entries("crypto", "decrypt")),
        "crypto.homomorphic_s": per(totals.self_s("crypto", "homomorphic")),
        "smc.dgk_bits": per(totals.total_n("smc", "dgk")),
        "smc.dgk_s": per(totals.self_s("smc", "dgk")),
        "smc.cross_terms_s": per(totals.self_s("smc", "cross_terms")),
        "smc.multiplication_s": per(totals.self_s("smc", "multiplication")),
        "smc.selection_s": per(totals.self_s("smc", "selection")),
        "core.region_queries": per(totals.count("core", "region_query")),
        "core.region_query_p50_s": totals.quantile("core", "region_query",
                                                   0.5),
        "core.region_query_p90_s": totals.quantile("core", "region_query",
                                                   0.9),
        "core.region_query_self_s": per(totals.self_s("core",
                                                      "region_query")),
        "multiparty.density_tests": per(totals.count("multiparty",
                                                     "scheduler")),
        "multiparty.scheduler_self_s": per(totals.self_s("multiparty",
                                                         "scheduler")),
        "net.serialize_s": per(totals.self_s("net", "serialize")),
        "net.mac_s": per(totals.self_s("net", "mac")),
        "net.wait_s": per(totals.self_s("net", "wait")),
        "trace.layer_coverage": totals.coverage(),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per(totals.layer_self[layer])
    return metrics


def _check_counts(runner: Runner, metrics: dict, failures: list) -> None:
    """In-process mesh: traced counts must equal the model exactly."""
    expected = runner.expected
    if expected is None or runner.workload.runtime != "inproc":
        return
    for name, want in (("core.region_queries", expected.region_queries),
                       ("smc.dgk_bits", expected.dgk_bits)):
        if metrics[name] != want:
            failures.append(f"{name} {metrics[name]} != model {want}")


def trace_inproc(workload: Workload, seed: int, seconds: float) -> dict:
    """Pairs of one untraced and one traced session in one process.

    Pairs alternate which session runs first (untraced-traced, then
    traced-untraced), so a host slowdown that grows or shrinks over the
    run does not favour either side.
    """
    runner = InprocRunner(workload, seed)
    recorder = Recorder()
    failures = cold_start(runner)
    untraced, traced = [], []
    memo = {"hits": 0, "misses": 0}
    pool = {"consumed": 0, "misses": 0}
    threads_peak = process_threads(os.getpid())
    started = time.perf_counter()
    index = 1
    while not failures and (len(traced) < TRACE_MIN_PAIRS
                            or time.perf_counter() - started < seconds):
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for tracing in order:
            if tracing:
                before = powmod_cache_report()
                recorder.install()
                runner.span = recorder.session_span
            try:
                outcome = runner.run(index)
            except Exception as exc:  # noqa: BLE001 - reported
                failures.append(f"session {index}: {_describe(exc)}")
                break
            finally:
                if tracing:
                    recorder.uninstall()
                    runner.span = contextlib.nullcontext
            failures.extend(f"session {index}: {problem}"
                            for problem in runner.mismatches(outcome))
            threads_peak = max(threads_peak, process_threads(os.getpid()))
            if tracing:
                after = powmod_cache_report()
                for key in memo:
                    memo[key] += after[key] - before[key]
                for key in pool:
                    pool[key] += outcome.pool[key]
                traced.append(outcome)
            else:
                untraced.append(outcome)
            index += 1
    attempted = 1 + len(untraced) + len(traced)
    if failures:
        return {"failures": failures, "attempted": attempted + 1}
    totals = LayerTotals()
    totals.add(recorder.keys, recorder.spans)
    sessions = len(traced)
    metrics = span_metrics(totals, sessions)
    metrics.update({
        "crypto.modexps": memo["misses"] / sessions,
        "crypto.memo_hit_ratio": memo["hits"] / (memo["hits"]
                                                 + memo["misses"]),
        "crypto.pool_hit_ratio": _hit_ratio(pool),
        "smc.comparisons": statistics.median(o.comparisons for o in traced),
        "net.messages": statistics.median(o.stats["total_messages"]
                                          for o in traced),
        "runtime.threads_peak": threads_peak,
        # Each traced session is paired with the untraced one run next
        # to it, so a host slowdown spanning the run cancels out.
        "trace.overhead": statistics.median(
            t.latency_s / u.latency_s for u, t in zip(untraced, traced)) - 1,
    })
    _check_counts(runner, metrics, failures)
    return {"metrics": metrics, "failures": failures, "attempted": attempted,
            "detail": {"traced_sessions": sessions,
                       "untraced_sessions": len(untraced),
                       "spans": len(recorder.spans),
                       "traced_p50_s": statistics.median(
                           o.latency_s for o in traced),
                       "untraced_p50_s": statistics.median(
                           o.latency_s for o in untraced)}}


def _hit_ratio(pool: dict) -> float:
    if not pool["consumed"]:
        return 0.0
    return (pool["consumed"] - pool["misses"]) / pool["consumed"]


def _program_trace(trace_dir, sessions: set[str]) -> dict:
    """Attempts per peer query and peer-query latency from the daemons'
    own session -> pass -> peer_query -> attempt spans."""
    spans = read_trace_dir(trace_dir)
    by_id = {(span["party"], span["id"]): span for span in spans}

    def session_of(span):
        while span is not None:
            if span["kind"] == "session":
                return span["name"]
            span = by_id.get((span["party"], span.get("parent")))
        return None

    mine = [span for span in spans if session_of(span) in sessions]
    queries = sorted(span["dur"] for span in mine
                     if span["kind"] == "peer_query")
    attempts = sum(1 for span in mine if span["kind"] == "attempt")
    p90 = (statistics.quantiles(queries, n=10, method="inclusive")[8]
           if len(queries) > 1 else (queries or [0.0])[0])
    return {"attempts_per_query": attempts / len(queries) if queries else 0.0,
            "peer_query_p90_s": p90, "peer_queries": len(queries)}


def _daemon_arm(workload: Workload, seed: int, seconds: float,
                traced: bool) -> dict:
    """Cold session, then a closed loop; traced arms also read spans."""
    trace_dir = pathlib.Path(tempfile.mkdtemp(prefix="trace-")) \
        if traced else None
    runner = make_runner(workload, seed, trace_dir=trace_dir)
    try:
        failures = cold_start(runner)
        if failures:
            return {"failures": failures}
        before = runner.metrics()
        window_start = time.perf_counter()
        result = closed_loop(runner, 1, seconds, workload.in_flight, 2)
        window_end = time.perf_counter()
        after = runner.metrics()
        arm = {"result": result, "before": before, "after": after,
               "failures": result.failures}
        if traced and result.outcomes and not result.failures:
            arm["gate"] = runner.verify_in_process(result.outcomes[0])
    finally:
        runner.close()
    if traced and not arm["failures"]:
        totals = LayerTotals()
        for name in workload.parties:
            keys, spans = load_spans(runner.spans_path(name))
            totals.add(keys, in_window(spans, window_start, window_end))
        arm["totals"] = totals
        arm["program"] = _program_trace(
            trace_dir, {session_id(workload, seed, o.index)
                        for o in result.outcomes})
    return arm


def trace_daemon(workload: Workload, seed: int, seconds: float) -> dict:
    """An untraced ``repro serve`` arm, then a traced launcher arm."""
    plain = _daemon_arm(workload, seed, seconds / 2, traced=False)
    if plain["failures"]:
        return {"failures": plain["failures"], "attempted": 1}
    arm = _daemon_arm(workload, seed, seconds / 2, traced=True)
    failures = list(arm["failures"])
    gate = arm.get("gate")
    if gate is not None and not all(gate["checks"].values()):
        failures.append(f"in-process re-run differs: {gate['checks']}")
    attempted = 2 + len(plain["result"].outcomes) + len(failures) + (
        len(arm["result"].outcomes) if "result" in arm else 0)
    if failures:
        return {"failures": failures, "attempted": attempted}
    outcomes = arm["result"].outcomes
    sessions = len(outcomes)
    before, after = arm["before"], arm["after"]

    def delta(table: str, name: str, **labels) -> float:
        return (series_total(after, table, name, **labels)
                - series_total(before, table, name, **labels))

    hits = delta("gauges", "repro_powmod_cache", stat="hits")
    misses = delta("gauges", "repro_powmod_cache", stat="misses")
    live = delta("counters", "repro_segment_frames_total", mode="live")
    replayed = delta("counters", "repro_segment_frames_total",
                     mode="replayed")
    protocol_bytes = sum(o.stats["total_bytes"] for o in outcomes)
    infos = [info for o in outcomes for info in o.infos]
    modexps = misses / sessions
    p50 = statistics.median(o.latency_s for o in outcomes)
    metrics = span_metrics(arm["totals"], sessions)
    metrics.update({
        "crypto.modexps": modexps,
        "crypto.memo_hit_ratio": hits / (hits + misses),
        "crypto.pool_hit_ratio": _hit_ratio({
            "consumed": sum(o.pool["consumed"] for o in outcomes),
            "misses": sum(o.pool["misses"] for o in outcomes)}),
        "smc.comparisons": statistics.median(o.comparisons
                                             for o in outcomes),
        "net.messages": statistics.median(o.stats["total_messages"]
                                          for o in outcomes),
        "net.link_bytes_ratio": delta("counters", "repro_link_bytes_total",
                                      dir="out") / protocol_bytes,
        "runtime.restarts": delta("counters", "repro_restarts_total")
        / sessions,
        "runtime.replayed_frame_ratio": replayed / (live + replayed),
        "runtime.attempts_per_query": arm["program"]["attempts_per_query"],
        "runtime.mirror_modexp_ratio": modexps / gate["inproc_modexps"],
        "runtime.session_setup_s": statistics.median(
            info["setup_seconds"] for info in infos),
        "runtime.peer_query_p90_s": arm["program"]["peer_query_p90_s"],
        "runtime.threads_peak": max(
            [info["thread_count"] for info in infos]
            + [series_total({party: snapshot}, "gauges",
                            "repro_daemon_threads")
               for party, snapshot in after.items()]),
        "trace.overhead": p50 / statistics.median(
            o.latency_s for o in plain["result"].outcomes) - 1,
    })
    return {"metrics": metrics, "failures": [], "attempted": attempted,
            "detail": {"traced_sessions": sessions,
                       "untraced_sessions": len(plain["result"].outcomes),
                       "traced_p50_s": p50,
                       "peer_queries": arm["program"]["peer_queries"],
                       "inproc_modexps": gate["inproc_modexps"],
                       "net_wait_share_of_session": metrics["net.wait_s"]
                       / (len(workload.parties) * p50)}}


def trace(workload: Workload, seed: int, seconds: float,
          metric_names: list[str]) -> None:
    """The traced run; it must measure exactly the per-layer metrics
    that apply to the workload (all but :data:`DAEMON_ONLY` in process)."""
    if workload.runtime == "daemon":
        result = trace_daemon(workload, seed, seconds)
        result["not_applicable"] = []
    else:
        result = trace_inproc(workload, seed, seconds)
        result["not_applicable"] = list(DAEMON_ONLY)
    if "metrics" in result:
        result["metrics"].update(op_costs_ms(seed))
        measured = set(result["metrics"])
        applicable = set(metric_names) - set(result["not_applicable"])
        if measured != applicable:
            raise KeyError(f"{workload.name}: per-layer metrics not measured "
                           f"{sorted(applicable - measured)}, not in "
                           f"BENCHMARK.json {sorted(measured - applicable)}")
    emit({"trace": result})


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="run.py worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "window", "trace"))
    parser.add_argument("--metric", action="append", default=[])
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        with scratch_dir():
            if args.mode == "trace":
                trace(workload, args.seed, args.seconds, args.metric)
            else:
                setup_and_window(workload, args.seed, args.seconds,
                                 window=args.mode == "window")
    except Exception:  # noqa: BLE001 - the parent reports the crash
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
