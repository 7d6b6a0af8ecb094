"""Communication accounting.

Tracks bytes and message counts per direction and per protocol-phase
label.  This is the measurement side of the paper's cost claims: the E2,
E3, E4, E9 and E10 benchmarks read these counters and fit them against
the closed-form predictions in ``repro.analysis.communication``.

Thread safety: one accumulator is shared by both endpoints of a channel,
and a channel may be driven from a worker thread (the scheduler tests
run each peer query under ``asyncio.to_thread``) -- so :meth:`record`,
:meth:`merge`, and :meth:`snapshot` all take an internal lock.
Single-threaded choreographies pay one uncontended lock acquire per
message, which is noise next to serialization.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class CommunicationStats:
    """Mutable accumulator shared by both endpoints of a channel.

    ``rounds`` counts direction switches: consecutive messages from the
    same sender batch into one round (the latency-relevant cost measure
    for interactive protocols).
    """

    bytes_by_direction: dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    messages_by_direction: dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    bytes_by_label: dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    messages_by_label: dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    rounds: int = 0
    _last_sender: str | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, sender: str, receiver: str, label: str,
               size_bytes: int) -> None:
        with self._lock:
            direction = f"{sender}->{receiver}"
            self.bytes_by_direction[direction] += size_bytes
            self.messages_by_direction[direction] += 1
            self.bytes_by_label[label] += size_bytes
            self.messages_by_label[label] += 1
            if sender != self._last_sender:
                self.rounds += 1
                self._last_sender = sender

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_direction.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_direction.values())

    @property
    def total_bits(self) -> int:
        """The unit the paper's formulas are stated in."""
        return 8 * self.total_bytes

    def bytes_for_phase(self, label_prefix: str) -> int:
        return sum(size for label, size in self.bytes_by_label.items()
                   if label.startswith(label_prefix))

    def messages_for_phase(self, label_prefix: str) -> int:
        return sum(count for label, count in self.messages_by_label.items()
                   if label.startswith(label_prefix))

    def merge(self, other: "CommunicationStats") -> None:
        """Fold another accumulator into this one (multi-channel runs).

        Rounds add up: pairwise channels are independent links, so the
        merged figure is the sequential sum.
        """
        with other._lock:
            other_bytes_dir = dict(other.bytes_by_direction)
            other_msgs_dir = dict(other.messages_by_direction)
            other_bytes_label = dict(other.bytes_by_label)
            other_msgs_label = dict(other.messages_by_label)
            other_rounds = other.rounds
        with self._lock:
            for key, value in other_bytes_dir.items():
                self.bytes_by_direction[key] += value
            for key, value in other_msgs_dir.items():
                self.messages_by_direction[key] += value
            for key, value in other_bytes_label.items():
                self.bytes_by_label[key] += value
            for key, value in other_msgs_label.items():
                self.messages_by_label[key] += value
            self.rounds += other_rounds

    def snapshot(self) -> dict:
        """Plain-dict copy for reports and benchmark JSON output."""
        with self._lock:
            return {
                "total_bytes": sum(self.bytes_by_direction.values()),
                "total_messages": sum(self.messages_by_direction.values()),
                "rounds": self.rounds,
                "bytes_by_direction": dict(self.bytes_by_direction),
                "messages_by_direction": dict(self.messages_by_direction),
                "bytes_by_label": dict(self.bytes_by_label),
            }


#: The scalar/mapping split of :meth:`CommunicationStats.snapshot` --
#: the single authoritative field list :func:`merge_snapshots` folds.
#: Extend these alongside ``snapshot()`` and cross-process merges stay
#: in lockstep automatically.
_SNAPSHOT_SCALARS = ("total_bytes", "total_messages", "rounds")
_SNAPSHOT_MAPPINGS = ("bytes_by_direction", "messages_by_direction",
                      "bytes_by_label")


def merge_snapshots(snapshots) -> dict:
    """Fold :meth:`CommunicationStats.snapshot` dicts into one.

    Semantically :meth:`CommunicationStats.merge` over independent links
    followed by :meth:`~CommunicationStats.snapshot` -- scalars add (the
    sequential figure, as ``merge`` documents), mappings add per key.
    Lives here, next to the snapshot field list, so the socket
    runtime's cross-process merge cannot drift from the in-process
    accounting when a field is added.
    """
    merged: dict = {name: 0 for name in _SNAPSHOT_SCALARS}
    for name in _SNAPSHOT_MAPPINGS:
        merged[name] = {}
    for snapshot in snapshots:
        # Tolerate snapshots from before a field existed (an old report
        # replayed through a newer merge): a missing scalar counts as
        # zero, a missing mapping as empty, instead of a KeyError.
        for name in _SNAPSHOT_SCALARS:
            merged[name] += snapshot.get(name, 0)
        for name in _SNAPSHOT_MAPPINGS:
            for key, value in snapshot.get(name, {}).items():
                merged[name][key] = merged[name].get(key, 0) + value
    return merged
