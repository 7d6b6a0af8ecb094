"""Call probes: one span per call into a layer's public functions.

:class:`Recorder` wraps each target of :data:`TARGETS` by replacing the
attribute where callers look it up -- the class attribute of a method,
and every ``repro`` module attribute bound to a module-level function
(``from x import f`` copies the reference into the importing module).
Each call becomes a span ``(id, parent, target, start, end, n)``; the
parent is the innermost enclosing span of the same thread or asyncio
task, and ``n`` is a per-call count (the bit width for DGK calls, else
1).  Spans stay in memory until :meth:`Recorder.dump` or the caller's
analysis; the program under test is never modified on disk.

Self time is a span's duration minus the part of it that its child
spans cover (children of an async span may overlap, so the covered part
is the union of their intervals).
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import inspect
import itertools
import json
import statistics
import sys
import time

LAYERS = ("crypto", "smc", "core", "multiparty", "net", "runtime")


def _dgk_bits(args, kwargs) -> int:
    # dgk_greater_than(key_holder, x, other, y, bits, ...) and the batch
    # form share the positional layout.
    return kwargs["bits"] if "bits" in kwargs else args[4]


#: (layer, group, module, attribute path, per-call count or None).
#: Layer ``None`` marks a bench-only span: it delimits a session for the
#: coverage figure and belongs to no layer.
TARGETS = (
    ("crypto", "encrypt", "repro.crypto.paillier",
     "PaillierPublicKey.encrypt", None),
    ("crypto", "encrypt", "repro.crypto.paillier",
     "PaillierPublicKey.encrypt_batch", None),
    ("crypto", "encrypt", "repro.crypto.engine",
     "ModexpEngine.encrypt_batch", None),
    ("crypto", "encrypt", "repro.crypto.engine",
     "ModexpEngine.encryption_factors", None),
    ("crypto", "encrypt", "repro.crypto.engine", "ModexpEngine.fill_pool",
     None),
    ("crypto", "decrypt", "repro.crypto.paillier",
     "PaillierPrivateKey.decrypt_raw", None),
    ("crypto", "decrypt", "repro.crypto.paillier",
     "PaillierPrivateKey.decrypt_raw_batch", None),
    ("crypto", "decrypt", "repro.crypto.engine",
     "ModexpEngine.decrypt_raw_batch", None),
    ("crypto", "homomorphic", "repro.crypto.paillier",
     "PaillierCiphertext.__add__", None),
    ("crypto", "homomorphic", "repro.crypto.paillier",
     "PaillierCiphertext.__radd__", None),
    ("crypto", "homomorphic", "repro.crypto.paillier",
     "PaillierCiphertext.__sub__", None),
    ("crypto", "homomorphic", "repro.crypto.paillier",
     "PaillierCiphertext.__mul__", None),
    ("crypto", "homomorphic", "repro.crypto.paillier",
     "PaillierCiphertext.__rmul__", None),
    ("crypto", "homomorphic", "repro.crypto.paillier",
     "PaillierCiphertext.rerandomize", None),
    ("smc", "session", "repro.smc.session", "SmcSession.__post_init__",
     None),
    ("smc", "dgk", "repro.smc.bitwise_comparison", "dgk_greater_than",
     _dgk_bits),
    ("smc", "dgk", "repro.smc.bitwise_comparison", "dgk_greater_than_batch",
     _dgk_bits),
    ("smc", "cross_terms", "repro.smc.scalar_product",
     "secure_masked_dot_terms_batch", None),
    ("smc", "cross_terms", "repro.smc.scalar_product",
     "secure_masked_dot_terms", None),
    ("smc", "multiplication", "repro.smc.scalar_product",
     "secure_scalar_products", None),
    ("smc", "multiplication", "repro.smc.multiplication",
     "secure_multiplication", None),
    ("smc", "selection", "repro.smc.kth_smallest", "kth_smallest_scan", None),
    ("smc", "selection", "repro.smc.kth_smallest", "kth_smallest_quickselect",
     None),
    ("core", "region_query", "repro.core.distance", "hdp_region_query", None),
    ("core", "protocol", "repro.core.enhanced",
     "run_enhanced_horizontal_dbscan", None),
    ("multiparty", "protocol", "repro.multiparty.horizontal",
     "run_multiparty_horizontal_dbscan", None),
    ("multiparty", "mesh", "repro.multiparty.mesh", "PartyMesh.__init__",
     None),
    ("multiparty", "scheduler", "repro.multiparty.scheduler",
     "PassExecutor.run_pass", None),
    ("multiparty", "scheduler", "repro.multiparty.scheduler",
     "AsyncPassExecutor.run_pass_async", None),
    ("net", "serialize", "repro.net.serialization", "serialize_message",
     None),
    ("net", "serialize", "repro.net.serialization", "deserialize_message",
     None),
    ("net", "mac", "repro.net.framing", "FrameAuthenticator.seal", None),
    ("net", "mac", "repro.net.framing", "FrameAuthenticator.open", None),
    ("net", "wait", "repro.net.transport",
     "SessionLinkTransport.wait_message", None),
    ("runtime", "attempt", "repro.runtime.async_pass", "PairRuntime.run",
     None),
    ("runtime", "snapshot", "repro.runtime.async_pass",
     "PairRuntime._capture", None),
    ("runtime", "snapshot", "repro.runtime.async_pass",
     "PairRuntime._restore", None),
    ("runtime", "mirror", "repro.runtime.async_pass",
     "RestartableMirrorChannel._send", None),
    ("runtime", "mirror", "repro.runtime.mirror", "MirrorChannel._receive",
     None),
    (None, "session", "repro.runtime.daemon", "PartyDaemon._run_session",
     None),
)


class Recorder:
    """Installs the probes and collects their spans."""

    def __init__(self):
        self.keys = [(layer, group, f"{module}.{path}")
                     for layer, group, module, path, _ in TARGETS]
        self.spans: list[tuple] = []
        self._session_target = next(
            index for index, (layer, group, *_) in enumerate(TARGETS)
            if layer is None and group == "session")
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("probe_span", default=0)
        self._patched: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused while it can still be found.
        self._originals: dict[int, tuple[object, object]] = {}

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; idempotent per install/uninstall pair."""
        if self._patched:
            return
        for index, (_, _, module_name, path, count) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attribute]
                self._patch(owner, attribute,
                            self._wrap(original, index, count))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, index, count)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, including wrappers that a
        module imported after :meth:`install` copied by ``from x import``."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                wrapped = self._originals.get(id(value))
                if wrapped is not None and wrapped[0] is value:
                    setattr(loaded, name, wrapped[1])
        self._originals.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, original, index: int, count):
        spans = self.spans
        ids = self._ids
        current = self._current
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):
            async def probe(*args, **kwargs):
                parent = current.get()
                span_id = next(ids)
                token = current.set(span_id)
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append((span_id, parent, index, start, end,
                                  count(args, kwargs) if count else 1))
        else:
            def probe(*args, **kwargs):
                parent = current.get()
                span_id = next(ids)
                token = current.set(span_id)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append((span_id, parent, index, start, end,
                                  count(args, kwargs) if count else 1))

        self._originals[id(probe)] = (probe, original)
        return probe

    # -- bench-owned spans ---------------------------------------------------

    @contextlib.contextmanager
    def session_span(self):
        """A layer-less span around one bench session."""
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, parent, self._session_target, start,
                               end, 1))

    # -- persistence ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write keys and spans (times rounded to 0.1 us) as JSON."""
        payload = {
            "keys": self.keys,
            "spans": [[span_id, parent, index, round(start, 7),
                       round(end, 7), n]
                      for span_id, parent, index, start, end, n
                      in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def load_spans(path) -> tuple[list, list]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return ([tuple(key) for key in payload["keys"]],
            [tuple(span) for span in payload["spans"]])


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """``{span id: self time}`` over one process's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    return {span_id: (end - start)
            - _covered(children.get(span_id, []), start, end)
            for span_id, _, _, start, end, _ in spans}


def in_window(spans, start: float, end: float) -> list:
    """Spans that began and ended inside ``[start, end]``."""
    return [span for span in spans if span[3] >= start and span[4] <= end]


class LayerTotals:
    """Per-group and per-layer sums over spans of one or more processes."""

    def __init__(self):
        self.group_self: dict[tuple, float] = {}
        self.group_calls: dict[tuple, int] = {}
        self.group_entries: dict[tuple, int] = {}
        self.group_n: dict[tuple, int] = {}
        self.durations: dict[tuple, list[float]] = {}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.sessions_wall = 0.0

    def add(self, keys, spans) -> None:
        """Fold one process's spans (keys index its targets)."""
        selfs = self_times(spans)
        group_of = {span[0]: keys[span[2]][:2] for span in spans}
        for span_id, parent, index, start, end, n in spans:
            layer, group = keys[index][:2]
            if layer is None:
                self.sessions_wall += end - start
                continue
            key = (layer, group)
            self.group_self[key] = self.group_self.get(key, 0.0) \
                + selfs[span_id]
            self.group_calls[key] = self.group_calls.get(key, 0) + 1
            if group_of.get(parent) != key:
                self.group_entries[key] = self.group_entries.get(key, 0) + 1
            self.group_n[key] = self.group_n.get(key, 0) + n
            self.durations.setdefault(key, []).append(end - start)
            self.layer_self[layer] += selfs[span_id]

    def self_s(self, layer: str, group: str) -> float:
        return self.group_self.get((layer, group), 0.0)

    def entries(self, layer: str, group: str) -> int:
        return self.group_entries.get((layer, group), 0)

    def count(self, layer: str, group: str) -> int:
        return self.group_calls.get((layer, group), 0)

    def total_n(self, layer: str, group: str) -> int:
        return self.group_n.get((layer, group), 0)

    def quantile(self, layer: str, group: str, q: float) -> float:
        """Duration quantile (0 < q < 1) of one group's calls."""
        values = sorted(self.durations.get((layer, group), []))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100,
                                    method="inclusive")[round(q * 100) - 1]

    def coverage(self) -> float:
        """Layer self time over bench session time (0 without sessions)."""
        if not self.sessions_wall:
            return 0.0
        return sum(self.layer_self.values()) / self.sessions_wall
