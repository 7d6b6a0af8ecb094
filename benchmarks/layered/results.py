"""Result files of the layered benchmark: provenance, spreads, compare.

A result file holds one or more *sets* of runs; each run is one
``run.py --workload W --seed S`` invocation with its metric values and
detail (window, memo and pool state, gate)::

    {"schema": "layered-bench/1", "provenance": {...},
     "sets": [{"label": "A", "seeds": [...], "trace": false,
               "runs": {"mesh3-inproc": [{"seed": 1, "correct": true,
                                          "metrics": {...},
                                          "detail": {...}}, ...]}}]}
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import statistics

SCHEMA = "layered-bench/1"


def git_head(root: pathlib.Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: pathlib.Path, seed, workloads: dict) -> dict:
    """Host, interpreter, commit, seed and per-workload configuration."""
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": git_head(root),
        "seed": seed,
        "workloads": workloads,
    }


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a layered benchmark result file")
    return data


def save(path, data: dict) -> None:
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def metric_values(data: dict, workload: str, metric: str) -> list[list]:
    """Per set, the metric's values over that set's runs of ``workload``."""
    return [[run["metrics"][metric]
             for run in result_set["runs"].get(workload, [])
             if metric in run["metrics"]]
            for result_set in data["sets"]]


def set_summary(data: dict, metrics: list[dict]) -> list[dict]:
    """Median and spread per (set, workload, metric)."""
    rows = []
    for result_set in data["sets"]:
        for workload, runs in sorted(result_set["runs"].items()):
            for metric in metrics:
                values = [run["metrics"][metric["name"]] for run in runs
                          if metric["name"] in run["metrics"]]
                if values:
                    rows.append({
                        "set": result_set["label"], "workload": workload,
                        "metric": metric["name"], "unit": metric["unit"],
                        "runs": len(values),
                        "median": statistics.median(values),
                        "spread": spread(values)})
    return rows


def compare(base: dict, new: dict, metrics: list[dict]) -> list[dict]:
    """Per workload and metric: base and new medians over all runs, the
    delta as a share of base, and a status.

    ``worse`` -- the new median is worse than base by more than the
    metric's bound; ``unresolved`` -- some set's run-to-run spread
    exceeds the bound and not every new run beats every base run;
    ``better`` when the new median beats base by more than the widest
    set's spread, ``same`` otherwise.  Metrics without a bound
    (per-layer metrics) are never flagged: a worsening beyond the spread
    reads ``worse*``.  A base median of 0 has no relative delta
    (``None``); any move away from it counts as beyond every bound.
    """
    rows = []
    workloads = sorted({w for d in (base, new) for s in d["sets"]
                        for w in s["runs"]})
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            base_sets = metric_values(base, workload, name)
            new_sets = metric_values(new, workload, name)
            base_all = [v for values in base_sets for v in values]
            new_all = [v for values in new_sets for v in values]
            if not base_all or not new_all:
                continue
            base_median = statistics.median(base_all)
            new_median = statistics.median(new_all)
            lower = metric["better"] == "lower"
            if base_median:
                delta = (new_median - base_median) / base_median
                worsening = delta if lower else -delta
            else:
                delta = None
                moved = new_median - base_median
                worsening = math.copysign(math.inf, moved if lower
                                          else -moved) if moved else 0.0
            bound = metric.get("bound")
            widest = max(spread(values)
                         for values in base_sets + new_sets if values)
            status = ("better" if worsening < -widest else "worse*"
                      if worsening > widest else "same")
            if bound is not None:
                dominates = (max(new_all) < min(base_all) if lower
                             else min(new_all) > max(base_all))
                if widest > bound and not dominates:
                    status = "unresolved"
                elif worsening > bound:
                    status = "worse"
                elif worsening > 0:
                    status = "same"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "base": base_median,
                         "new": new_median, "delta": delta,
                         "spread": widest, "bound": bound,
                         "status": status})
    return rows


def format_rows(rows: list[dict], columns: list[str]) -> str:
    """Plain fixed-width table."""
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return "-" if value is None else str(value)

    table = [columns] + [[cell(row[column]) for column in columns]
                         for row in rows]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(columns))]
    return "\n".join("  ".join(text.ljust(width)
                               for text, width in zip(line, widths))
                     .rstrip() for line in table)
