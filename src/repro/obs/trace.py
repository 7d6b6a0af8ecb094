"""Structured span tracing with a privacy guard.

A :class:`Tracer` records a tree of timed spans -- session -> pass ->
peer-query -> attempt -- and writes one JSON line per finished span to a
per-party file under the run's trace directory.  ``repro trace
summarize`` folds those files back into a per-session critical-path
breakdown (which pass, which peer, how much replay).

Every attribute that enters a span passes through :func:`guard_value`,
which admits only *shapes* of data -- small numbers, short digit-free
strings, sizes, and truncated digests -- and replaces anything that
could carry protocol secrets (big integers, long strings, raw bytes,
containers) with its size or digest.  Plaintexts, randomness factors,
and key components are arbitrary-precision integers, so they can never
survive the guard; this is property-tested in ``tests/obs``.

Timing uses ``time.monotonic`` offsets from the tracer's epoch, so span
durations are immune to wall-clock steps; traces are observational only
and never feed back into the protocol, keeping instrumented runs
bit-identical to uninstrumented ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading
import time
from typing import Mapping

#: Integers at or above this magnitude are digested, never recorded.
#: Protocol counts (frames, restarts, steps) sit far below; Paillier and
#: RSA material sits far above.
INT_BOUND = 1 << 63

_STR_MAX_CHARS = 120
_DIGIT_RUN = re.compile(r"[0-9]{19,}")
_DIGEST_HEX_CHARS = 16


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()[:_DIGEST_HEX_CHARS]


def guard_value(value: object) -> object:
    """Admit only privacy-safe shapes; reduce everything else.

    - ``None``/``bool``/``float`` and small ints pass through.
    - Big ints (``abs >= 2**63``) become ``{"digest", "bits"}``.
    - Short digit-run-free strings pass; long or numeric-looking ones
      become ``{"digest", "len"}``.
    - ``bytes`` always become ``{"digest", "len"}`` (wire payloads).
    - Containers are reduced to their sizes; other objects to their
      type name.  The guard never raises: a span attribute cannot take
      down a protocol pass.
    """
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        if abs(value) < INT_BOUND:
            return value
        data = value.to_bytes((value.bit_length() + 8) // 8,
                              "big", signed=True)
        return {"digest": _digest(data), "bits": value.bit_length()}
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        if len(value) <= _STR_MAX_CHARS and not _DIGIT_RUN.search(value):
            return value
        return {"digest": _digest(value.encode()), "len": len(value)}
    if isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        return {"digest": _digest(data), "len": len(data)}
    if isinstance(value, (list, tuple, set, frozenset)):
        return {"len": len(value)}
    if isinstance(value, Mapping):
        return {"keys": len(value)}
    return {"type": type(value).__name__}


class _NullSpan:
    """Shared no-op span from a disabled tracer."""

    __slots__ = ()
    span_id = 0

    def set(self, **attrs) -> None:
        pass

    def child(self, kind: str, name: str, **attrs) -> "_NullSpan":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One timed region; emit happens on close (context manager)."""

    __slots__ = ("_tracer", "span_id", "parent_id", "kind", "name",
                 "start", "attrs", "_closed")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: int | None, kind: str, name: str,
                 attrs: dict) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start = tracer.now()
        self.attrs = {key: guard_value(value)
                      for key, value in attrs.items()}
        self._closed = False

    def set(self, **attrs) -> None:
        for key, value in attrs.items():
            self.attrs[key] = guard_value(value)

    def child(self, kind: str, name: str, **attrs) -> "Span":
        return self._tracer.span(kind, name, parent=self, **attrs)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._tracer._emit(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info and exc_info[0] is not None:
            self.attrs["error"] = guard_value(exc_info[0].__name__)
        self.close()


class Tracer:
    """Writes finished spans as JSONL to one per-party file.

    A falsy ``path`` builds a disabled tracer whose :meth:`span`
    returns the shared :data:`NULL_SPAN` -- the enabled check happens
    once per span, not per attribute.
    """

    def __init__(self, path: str | os.PathLike | None,
                 party: str) -> None:
        self.party = party
        self.path = os.fspath(path) if path else None
        self.enabled = self.path is not None
        self._epoch = time.monotonic()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._file = None
        if self.enabled:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def span(self, kind: str, name: str, *,
             parent: "Span | _NullSpan | None" = None, **attrs):
        if not self.enabled:
            return NULL_SPAN
        parent_id = None
        if isinstance(parent, Span):
            parent_id = parent.span_id
        return Span(self, next(self._ids), parent_id, kind, name, attrs)

    def _emit(self, span: Span) -> None:
        if self._file is None:
            return
        end = self.now()
        record = {
            "id": span.span_id,
            "parent": span.parent_id,
            "kind": span.kind,
            "name": span.name,
            "party": self.party,
            "t0": round(span.start, 6),
            "t1": round(end, 6),
            "dur": round(end - span.start, 6),
            "attrs": span.attrs,
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._file is not None:
                self._file.write(line + "\n")
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
        self.enabled = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def tracer_for(trace_dir: str | os.PathLike | None, party: str) -> Tracer:
    """Per-party tracer under ``trace_dir`` (disabled when unset)."""
    if not trace_dir:
        return Tracer(None, party)
    return Tracer(os.path.join(os.fspath(trace_dir), f"{party}.jsonl"),
                  party)


# -- summaries ---------------------------------------------------------------


def read_trace_dir(trace_dir: str | os.PathLike) -> list[dict]:
    """All span records under ``trace_dir`` (``*.jsonl``), unordered."""
    spans: list[dict] = []
    root = os.fspath(trace_dir)
    for entry in sorted(os.listdir(root)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(root, entry), encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans


def summarize_trace_dir(trace_dir: str | os.PathLike) -> dict:
    """Fold a trace directory into per-session breakdowns.

    Returns ``{"sessions": {session: {"parties": {party: {...}}}}}``
    where each party entry carries total duration, per-pass rows in
    pass order (role, duration, queries, attempts, restarts), and the
    pass critical path: the time covered by at least one of the pass's
    peer queries -- a pass runs its queries at once, so their union,
    not their sum, is the time it spends on them.  A daemon
    runs all of its pass roles at once, so each party entry also
    carries ``passes_sum`` (the passes' summed durations) and
    ``passes_union`` (the time covered by at least one pass): the gap
    between them is the overlap.  ``setup`` is the session span's
    ``setup_seconds`` (session start to the drive role's start) and
    ``first_query`` the offset from the session's start at which the
    first query of this party's drive pass started, ``sync_checked``
    the offset at which its check of the peers' session-sync records
    ended (each ``None`` when the trace has no such span): a daemon's
    first queries leave before the check, in the session's first
    flight.
    """
    spans = read_trace_dir(trace_dir)
    by_party_id = {(span["party"], span["id"]): span for span in spans}

    def session_of(span: dict) -> str | None:
        while span is not None:
            if span["kind"] == "session":
                return span["name"]
            parent = span.get("parent")
            span = by_party_id.get((span["party"], parent)) \
                if parent else None
        return None

    sessions: dict[str, dict] = {}
    for span in spans:
        session = session_of(span)
        if session is None:
            continue
        parties = sessions.setdefault(session, {"parties": {}})["parties"]
        entry = parties.setdefault(span["party"], {
            "duration": 0.0, "setup": None, "first_query": None,
            "sync_checked": None, "passes": [], "_queries": {},
            "_start": 0.0, "_sync_end": None})
        if span["kind"] == "session":
            entry["duration"] = span["dur"]
            entry["setup"] = span["attrs"].get("setup_seconds")
            entry["_start"] = span["t0"]
        elif span["kind"] == "sync":
            entry["_sync_end"] = span["t1"]
        elif span["kind"] == "pass":
            entry["passes"].append({
                "name": span["name"],
                "index": span["attrs"].get("index"),
                "id": span["id"],
                "interval": (span["t0"], span["t1"]),
                "role": span["attrs"].get("role"),
                "duration": span["dur"],
                "queries": 0,
                "attempts": 0,
                "restarts": 0,
                "critical_path": 0.0,
            })
        elif span["kind"] == "peer_query":
            entry["_queries"].setdefault(
                span.get("parent"), []).append(span)
        elif span["kind"] == "attempt":
            entry.setdefault("_attempts", {}).setdefault(
                span.get("parent"), []).append(span)

    for session in sessions.values():
        for entry in session["parties"].values():
            queries = entry.pop("_queries", {})
            attempts = entry.pop("_attempts", {})
            start = entry.pop("_start")
            sync_end = entry.pop("_sync_end")
            if sync_end is not None:
                entry["sync_checked"] = round(sync_end - start, 6)
            # Pass order is the span's index: names sort pass10 before
            # pass2.
            entry["passes"].sort(key=lambda row: (
                row["index"] is None, row["index"], row["name"]))
            intervals = [row.pop("interval") for row in entry["passes"]]
            entry["passes_sum"] = round(
                sum(row["duration"] for row in entry["passes"]), 6)
            entry["passes_union"] = round(_union_length(intervals), 6)
            for row in entry["passes"]:
                pass_queries = queries.get(row.pop("id"), [])
                row["queries"] = len(pass_queries)
                if row["role"] == "drive" and pass_queries:
                    entry["first_query"] = round(
                        min(query["t0"] for query in pass_queries)
                        - start, 6)
                for query in pass_queries:
                    query_attempts = attempts.get(query["id"], [])
                    row["attempts"] += len(query_attempts)
                    row["restarts"] += max(0, len(query_attempts) - 1)
                row["critical_path"] = round(_union_length(
                    (query["t0"], query["t1"]) for query in pass_queries),
                    6)
    return {"sessions": sessions}


def _union_length(intervals) -> float:
    """Total length covered by at least one ``(start, end)`` interval."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}s"


def format_trace_summary(summary: dict) -> str:
    """Human-readable critical-path breakdown for ``repro trace``."""
    lines: list[str] = []
    for session, data in sorted(summary["sessions"].items()):
        lines.append(f"session {session}")
        for party, entry in sorted(data["parties"].items()):
            lines.append(f"  party {party}: "
                         f"{entry['duration']:.3f}s total, setup "
                         f"{_seconds(entry['setup'])}, first drive query "
                         f"at {_seconds(entry['first_query'])}, sync "
                         f"checked at {_seconds(entry['sync_checked'])}, "
                         f"passes {entry['passes_sum']:.3f}s summed "
                         f"{entry['passes_union']:.3f}s union")
            for row in entry["passes"]:
                role = row["role"] or "?"
                lines.append(
                    f"    {row['name']} [{role}] "
                    f"{row['duration']:.3f}s"
                    f" critical-path {row['critical_path']:.3f}s"
                    f" queries {row['queries']}"
                    f" attempts {row['attempts']}"
                    f" restarts {row['restarts']}")
    return "\n".join(lines) + ("\n" if lines else "")
