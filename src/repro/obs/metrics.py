"""Thread-safe metrics registry: counters, gauges, histograms.

One registry replaces the ad-hoc counters that grew alongside the
runtime (per-session ``runtime_info`` dicts, bench-script bookkeeping):
every subsystem increments *named, labeled series* on a shared
:class:`MetricsRegistry`, and a single ``snapshot()`` (JSON-friendly
dict) or ``render_text()`` (Prometheus-style exposition) reads the
whole state.  The daemon answers the ``get_metrics`` control frame and
the ``repro stats`` CLI from this snapshot.

Design rules:

- **Near-zero overhead when disabled.**  A registry constructed with
  ``enabled=False`` hands out one shared null instrument whose
  ``inc``/``dec``/``set``/``observe`` are no-op methods; hot paths keep
  a reference to the instrument, so the disabled cost is one attribute
  call.  Enablement is fixed at construction -- there is no toggle to
  race against.
- **Observation only.**  Nothing in the runtime ever *reads* a metric
  to make a decision, so instrumented runs stay bit-identical to
  uninstrumented ones in labels, ledger, and transcripts.
- **Privacy at the type level.**  Metric values are bounded numbers
  (``abs(value) < 2**63``) and label values are short digit-run-free
  strings; cryptographic material (plaintexts, randomness factors, key
  components) is arbitrary-precision and cannot fit, so a registry can
  never leak it.  The bound is enforced with :class:`ValueError`, not
  truncation, and is property-tested in ``tests/obs``.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Iterable, Mapping

#: Hard bound on metric magnitudes and label numerals.  Everything the
#: runtime counts (frames, bytes, sessions, restarts) sits far below
#: this; Paillier/RSA material sits far above it.
VALUE_BOUND = 1 << 63

_LABEL_MAX_CHARS = 120
_DIGIT_RUN = re.compile(r"[0-9]{19,}")


def _check_value(value: float) -> float:
    """Reject magnitudes large enough to smuggle crypto material."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"metric value must be int or float, got "
                         f"{type(value).__name__}")
    if abs(value) >= VALUE_BOUND:
        raise ValueError("metric value magnitude must stay below 2**63 "
                         "(record sizes/counts/digests, never values)")
    return value


def _check_label(name: str, value: object) -> str:
    text = str(value)
    if len(text) > _LABEL_MAX_CHARS:
        raise ValueError(f"label {name!r} longer than {_LABEL_MAX_CHARS} "
                         "chars -- labels identify series, they do not "
                         "carry payloads")
    if _DIGIT_RUN.search(text):
        raise ValueError(f"label {name!r} contains a long digit run -- "
                         "never label series with protocol values")
    return text


def series_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical series identity: ``name{k=v,...}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`series_key` (used by the ``repro stats`` CLI)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, __, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for part in inner.split(","):
        if part:
            label, __, value = part.partition("=")
            labels[label] = value
    return name, labels


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0


NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """Monotonically increasing count (frames, restarts, sessions)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        amount = _check_value(amount)
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time level (parked coroutines, active sessions)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: float) -> None:
        value = _check_value(value)
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        _check_value(amount)
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Distribution summary (durations): count/sum/min/max + buckets."""

    __slots__ = ("_lock", "count", "sum", "min", "max", "_bounds",
                 "_buckets")

    #: Seconds-oriented default boundaries; +inf is implicit.
    DEFAULT_BOUNDS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)

    def __init__(self, bounds: Iterable[float] = DEFAULT_BOUNDS) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._bounds = tuple(sorted(bounds))
        self._buckets = [0] * (len(self._bounds) + 1)

    def observe(self, value: float) -> None:
        value = _check_value(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self._buckets[index] += 1
                    return
            self._buckets[-1] += 1

    def summary(self) -> dict[str, float | None]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
            }


class MetricsRegistry:
    """Registry of labeled series plus snapshot-time collectors.

    ``counter``/``gauge``/``histogram`` return the live instrument for
    ``(name, labels)``, creating it on first use; callers on hot paths
    should fetch once and keep the reference.  ``register_collector``
    adds a callback invoked (with the registry) at snapshot time --
    used for levels cheaper to read on demand than to track, such as
    ``threading.active_count()`` or the engine/randomness reports.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []

    # -- instrument lookup ---------------------------------------------------

    def _series(self, table: dict, factory, name: str,
                labels: dict[str, object]):
        checked = {key: _check_label(key, value)
                   for key, value in labels.items()}
        key = series_key(name, checked)
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = factory()
            return instrument

    def counter(self, name: str, **labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._series(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._series(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._series(self._histograms, Histogram, name, labels)

    def register_collector(
            self, collector: Callable[["MetricsRegistry"], None]) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._collectors.append(collector)

    # -- reading -------------------------------------------------------------

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector(self)
            except Exception:  # a dead subsystem must not break snapshots
                continue

    def snapshot(self) -> dict:
        """JSON-friendly full read: ``{"enabled", "counters", ...}``."""
        self._run_collectors()
        with self._lock:
            counters = {key: counter.value
                        for key, counter in sorted(self._counters.items())}
            gauges = {key: gauge.value
                      for key, gauge in sorted(self._gauges.items())}
            histograms = {key: histogram.summary()
                          for key, histogram
                          in sorted(self._histograms.items())}
        return {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_text(self) -> str:
        """Prometheus-style text exposition of the current snapshot."""
        snapshot = self.snapshot()
        lines: list[str] = []
        for table in ("counters", "gauges"):
            for key, value in snapshot[table].items():
                lines.append(f"{_exposition_key(key)} {value}")
        for key, summary in snapshot["histograms"].items():
            name, labels = parse_series_key(key)
            for stat in ("count", "sum"):
                stat_key = series_key(f"{name}_{stat}", labels)
                lines.append(f"{_exposition_key(stat_key)} {summary[stat]}")
        return "\n".join(lines) + ("\n" if lines else "")


def _exposition_key(key: str) -> str:
    name, labels = parse_series_key(key)
    if not labels:
        return name
    inner = ",".join(f'{label}="{value}"'
                     for label, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


#: Process-wide default registry for call sites with no daemon to hang a
#: registry off (scheduler executors).
DEFAULT_REGISTRY = MetricsRegistry(enabled=True)


def default_registry() -> MetricsRegistry:
    return DEFAULT_REGISTRY
