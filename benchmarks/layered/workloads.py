"""The four named workloads of the layered benchmark.

Every workload deals its points from
``standard_workload("blobs", seed=S, size="large")`` (eps 1.2,
min_pts 4, scale 100, d = 2): three Gaussian blobs of 32 points around
(0, 0), (6, 6) and (0, 6).  Only points within 0.5 of their blob centre
are dealt, so two points of one blob are always within eps of each other
and points of different blobs never are.  Each party then receives a
fixed number of points from each blob (its *plan*).  The seed decides
which points and which coins; the plan decides the protocol's control
flow.  That is what makes the cost of a session -- density tests,
secure comparisons, DGK bit widths, messages and rounds -- the same for
every seed, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.data.workloads import standard_workload
from repro.smc.session import SmcConfig

#: Blob centres of the ``blobs`` standard workload on the scale-100 grid.
BLOB_CENTERS = ((0, 0), (600, 600), (0, 600))
#: Dealt points lie within this grid distance of their blob centre.
CORE_RADIUS = 50


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` takes and ``BENCHMARK.json`` lists.
        why: one line on what the workload isolates.
        protocol: ``"mesh"`` (k-party horizontal, Algorithms 3/4) or
            ``"enhanced"`` (two-party Section 5 protocol).
        runtime: ``"inproc"`` (one process, in-memory channels) or
            ``"daemon"`` (one ``repro serve`` process per party over
            loopback TCP with a PSK).
        key_bits: Paillier modulus size.
        plan: per party, how many points it takes from each blob.
        in_flight: sessions the closed loop keeps submitted at once.
        net_delay_s: simulated one-way link delay of the daemon mesh.
        min_sessions: the window opens with this many sessions as one
            batch (run even when they outlast ``--seconds``); peak RSS
            is read when the batch has finished, so it reflects the same
            work on every run.
    """

    name: str
    why: str
    protocol: str
    runtime: str
    key_bits: int
    plan: tuple[tuple[int, ...], ...]
    in_flight: int = 1
    net_delay_s: float = 0.0
    min_sessions: int = 3

    @property
    def parties(self) -> tuple[str, ...]:
        return tuple(f"party{slot}" for slot in range(len(self.plan)))

    def describe(self) -> dict:
        """The configuration recorded in every result file."""
        return {
            "protocol": self.protocol,
            "runtime": self.runtime,
            "key_bits": self.key_bits,
            "parties": len(self.plan),
            "points_per_party": [sum(counts) for counts in self.plan],
            "plan": [list(counts) for counts in self.plan],
            "in_flight": self.in_flight,
            "net_delay_s": self.net_delay_s,
            "engine_workers": 1,
            "link_auth": self.runtime == "daemon",
            "selection": "scan",
        }


_MESH3_PLAN = ((2, 1, 0), (2, 0, 1), (1, 1, 1))

WORKLOADS = {workload.name: workload for workload in (
    Workload(
        name="mesh3-inproc",
        why="3 parties x 3 points in one process: all time is crypto, smc "
            "and core, no sockets or runtime; the floor the daemon path "
            "is compared against",
        protocol="mesh", runtime="inproc", key_bits=256, plan=_MESH3_PLAN),
    Workload(
        name="mesh3-daemon",
        why="the same sessions on 3 repro serve daemons over loopback, 2 "
            "in flight: the gap to mesh3-inproc is runtime and net "
            "(mirroring, replays, framing, MAC, multiplexing)",
        protocol="mesh", runtime="daemon", key_bits=256, plan=_MESH3_PLAN,
        in_flight=2, min_sessions=4),
    Workload(
        name="mesh3-wan",
        why="daemons with 50 ms link delay, 3 x 2 points: most of a "
            "session is network wait, so round-count and overlap changes "
            "show and crypto-kernel changes barely do",
        protocol="mesh", runtime="daemon", key_bits=256,
        plan=((2, 0, 0), (1, 1, 0), (1, 0, 1)), net_delay_s=0.05),
    Workload(
        name="enhanced2-inproc",
        why="Section 5 protocol, 2 x 4 points: per-point DGK, secure "
            "multiplication and k-th selection, none of which the mesh "
            "calls; mesh or batched-DGK changes should leave it flat",
        protocol="enhanced", runtime="inproc", key_bits=256,
        plan=((2, 1, 1), (2, 1, 1))),
)}


class DealError(ValueError):
    """Raised when a seed's blobs cannot supply a workload's plan."""


def _squared_distance(a, b) -> int:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def deal(workload: Workload, seed: int) -> dict[str, list[tuple[int, ...]]]:
    """The workload's partitions for ``seed``: party name -> points."""
    source = standard_workload("blobs", seed=seed, size="large")
    members: list[list[tuple[int, ...]]] = [[] for _ in BLOB_CENTERS]
    for point in source.points:
        distances = [_squared_distance(point, centre)
                     for centre in BLOB_CENTERS]
        blob = distances.index(min(distances))
        if distances[blob] <= CORE_RADIUS ** 2:
            members[blob].append(tuple(point))
    rng = random.Random(seed)
    for group in members:
        rng.shuffle(group)
    needed = [sum(counts[blob] for counts in workload.plan)
              for blob in range(len(BLOB_CENTERS))]
    for blob, (group, count) in enumerate(zip(members, needed)):
        if len(group) < count:
            raise DealError(
                f"seed {seed}: blob {blob} has {len(group)} points within "
                f"{CORE_RADIUS} of its centre, {workload.name} needs {count}")
    dealt = {}
    for name, counts in zip(workload.parties, workload.plan):
        dealt[name] = [members[blob].pop()
                       for blob, count in enumerate(counts)
                       for _ in range(count)]
    return dealt


def protocol_config(workload: Workload, seed: int) -> ProtocolConfig:
    """Default ``ProtocolConfig``/``SmcConfig`` flags at the workload's
    key size; keys are derived from the seed (one keypair per party)."""
    source = standard_workload("blobs", seed=seed, size="large")
    return ProtocolConfig(
        eps=source.eps, min_pts=source.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=workload.key_bits, key_seed=seed))


def session_seeds(workload: Workload, seed: int, index: int) -> list[int]:
    """Per-party coin seeds of session ``index``: distinct per session."""
    return [seed * 1_000_003 + index * 101 + slot
            for slot in range(len(workload.plan))]


def session_id(workload: Workload, seed: int, index: int) -> str:
    """Session id, also the ``rng_namespace`` of the session's coins."""
    return f"{workload.name}-s{seed}-{index}"


def enhanced_config(config: ProtocolConfig,
                    seeds: list[int]) -> ProtocolConfig:
    """The two-party protocol takes its coins from the config."""
    return dataclasses.replace(config, alice_seed=seeds[0],
                               bob_seed=seeds[1])


def reference_labels(points: dict[str, list],
                     config: ProtocolConfig) -> dict[str, tuple[int, ...]]:
    """Each party's labels as ``union_density_dbscan`` defines them."""
    labels = {}
    for name, own in points.items():
        others = [point for other, theirs in points.items()
                  if other != name for point in theirs]
        labels[name] = union_density_dbscan(
            own, others, config.eps_squared, config.min_pts).labels.as_tuple()
    return labels
