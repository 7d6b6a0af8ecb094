"""Layered benchmark of the privacy preserving distributed DBSCAN code.

One workload run (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/layered/run.py --workload mesh3-inproc --seed 1 \\
        --seconds 12 --trace 0

prints a ``{"detail": ...}`` line and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  It exits 1 if
any session fails or mismatches its reference.  Other commands::

    run.py suite --seeds 1-10 --out FILE [--label A] [--append]
    run.py trace --seed 1 [--out FILE]
    run.py compare BASE.json NEW.json

See README.md for the workloads and metrics.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Cold starts per run; the last one goes on into the measured window.
SETUP_SAMPLES = 3


def _fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` -> list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _worker(workload: str, seed: int, seconds: float, mode: str,
            metric_names=()) -> subprocess.Popen:
    from harness import child_env

    command = [sys.executable, str(HERE / "run.py"), "worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode]
    for name in metric_names:
        command += ["--metric", name]
    return subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)


def _messages(process: subprocess.Popen):
    for line in process.stdout:
        if line.strip():
            yield json.loads(line)


class WorkerCrash(RuntimeError):
    """A worker exited without its result line."""


def _finish(process: subprocess.Popen, key: str) -> dict:
    found = None
    for message in _messages(process):
        found = message.get(key, found)
    if process.wait() != 0 or found is None:
        raise WorkerCrash(f"worker exited {process.returncode} without "
                          f"its {key!r} line")
    return found


def _end_to_end(setup: list[float], window: dict) -> dict[str, float]:
    sessions = window["sessions"]
    return {
        "setup_s": statistics.median(setup),
        "session_p50_s": statistics.median(window["latencies_s"]),
        "sessions_per_s": sessions / window["window_s"],
        "cpu_s_per_session": window["cpu_s"] / sessions,
        "peak_rss_mb": window["peak_rss_mb"],
        "bytes_per_session": statistics.median(window["bytes"]),
        "rounds_per_session": statistics.median(window["rounds"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The ``BENCHMARK.json`` command for one workload and seed."""
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from results import provenance
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        return _fail(f"unknown workload {name!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    spec = _benchmark_spec()
    workload = WORKLOADS[name]
    detail = {
        "workload": name,
        "provenance": provenance(ROOT, seed, {name: workload.describe()}),
        "seconds": seconds,
    }
    try:
        if trace:
            catalogue = spec["per_layer"]
            process = _worker(name, seed, seconds, "trace",
                              [m["name"] for m in catalogue])
            result = _finish(process, "trace")
            failures = result["failures"]
            values = result.get("metrics", {})
            detail["trace"] = result.get("detail")
            detail["not_applicable"] = result["not_applicable"]
            attempted = result["attempted"]
            # The result line carries every per-layer metric.  One that
            # this workload cannot measure reads 0 there; the detail
            # line names it, and result files leave it out.
            if values:
                values.update(dict.fromkeys(result["not_applicable"], 0.0))
        else:
            catalogue = spec["end_to_end"]
            setup, failures, window = [], [], None
            for sample in range(SETUP_SAMPLES):
                last = sample == SETUP_SAMPLES - 1
                started = time.perf_counter()
                process = _worker(name, seed, seconds,
                                  "window" if last else "setup")
                ready = next(_messages(process), {}).get("ready")
                setup.append(time.perf_counter() - started)
                if ready is None:
                    process.wait()
                    raise WorkerCrash("worker exited before its cold "
                                      "session finished")
                failures += ready["failures"]
                if last and not failures:
                    window = _finish(process, "window")
                    failures += window["failures"]
                elif process.wait() != 0:
                    raise WorkerCrash(f"worker exited {process.returncode}")
            detail["setup_samples_s"] = setup
            detail["window"] = window
            attempted = SETUP_SAMPLES + (
                window["sessions"] + len(window["failures"])
                if window else 0)
            values = _end_to_end(setup, window) if window and not failures \
                else {}
    except WorkerCrash as exc:
        return _fail(str(exc))
    detail["failures"] = failures
    correct = not failures
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in catalogue if m["name"] in values},
    }))
    return 0 if correct else 1


# -- suite / trace / compare -------------------------------------------------

def _invoke(workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """One ``BENCHMARK.json`` command in a fresh process, parsed."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result "
                         f"(exit {completed.returncode})")
    detail = json.loads(lines[-2])["detail"]
    final = json.loads(lines[-1])
    skip = set(detail.get("not_applicable", ()))
    return {"seed": seed, "correct": final["correct"],
            "attempted": final["attempted"], "failed": final["failed"],
            "metrics": {k: v["value"] for k, v in final["metrics"].items()
                        if k not in skip},
            "detail": detail}


def _run_set(seeds: list[int], trace: bool, label: str, out, append: bool):
    """Every workload once per seed; prints medians and spreads and, with
    ``out``, writes (or with ``append`` extends) a result file."""
    sys.path.insert(0, str(ROOT / "src"))
    import results
    from workloads import WORKLOADS

    spec = _benchmark_spec()
    seconds = spec["run_seconds"]
    runs = {name: [] for name in WORKLOADS}
    wall = {name: 0.0 for name in WORKLOADS}
    ok = True
    for seed in seeds:
        for name in WORKLOADS:
            started = time.perf_counter()
            run = _invoke(name, seed, seconds, trace)
            wall[name] += time.perf_counter() - started
            runs[name].append(run)
            ok = ok and run["correct"]
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f}s"
                  f" correct={run['correct']}", flush=True)
    new_set = {"label": label, "seeds": seeds, "trace": trace,
               "seconds": seconds, "wall_s": wall, "runs": runs}
    if append:
        data = results.load(out)
        data["sets"].append(new_set)
    else:
        data = {"schema": results.SCHEMA,
                "provenance": results.provenance(
                    ROOT, seeds, {name: workload.describe()
                                  for name, workload in WORKLOADS.items()}),
                "sets": [new_set]}
    if out:
        results.save(out, data)
    catalogue = spec["per_layer" if trace else "end_to_end"]
    print(results.format_rows(
        results.set_summary(data, catalogue),
        ["set", "workload", "metric", "unit", "runs", "median", "spread"]))
    return 0 if ok else 1


def suite(argv: list[str]) -> int:
    """``suite``: the untraced run of every workload, once per seed."""
    import argparse

    parser = argparse.ArgumentParser(prog="run.py suite")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="A")
    parser.add_argument("--out", required=True)
    parser.add_argument("--append", action="store_true",
                        help="add this set to an existing result file")
    args = parser.parse_args(argv)
    return _run_set(_seeds(args.seeds), False, args.label, args.out,
                    args.append)


def trace_all(argv: list[str]) -> int:
    """``trace``: the traced run of every workload, once per seed."""
    import argparse

    parser = argparse.ArgumentParser(prog="run.py trace")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    return _run_set(_seeds(args.seed), True, "trace", args.out, False)


def compare_files(argv: list[str]) -> int:
    import argparse

    import results

    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = _benchmark_spec()
    rows = results.compare(results.load(args.base), results.load(args.new),
                           spec["end_to_end"] + spec["per_layer"])
    for row in rows:
        row["delta"] = ("from 0" if row["delta"] is None
                        else f"{row['delta']:+.1%}")
        row["spread"] = f"{row['spread']:.1%}"
    print(results.format_rows(rows, ["workload", "metric", "unit", "base",
                                     "new", "delta", "spread", "bound",
                                     "status"]))
    flagged = [row for row in rows if row["status"] == "worse"]
    for row in flagged:
        print(f"WORSE: {row['workload']} {row['metric']} {row['delta']} "
              f"(bound {row['bound']:.0%})")
    return 1 if flagged else 0


def main(argv: list[str]) -> int:
    commands = {"suite": suite, "trace": trace_all, "compare": compare_files}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    if argv and argv[0] == "worker":
        sys.path.insert(0, str(ROOT / "src"))
        import worker
        return worker.main(argv[1:])
    import argparse

    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window length (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds or _benchmark_spec()["run_seconds"]
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
