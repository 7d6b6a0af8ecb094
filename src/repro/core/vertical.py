"""Privacy preserving DBSCAN over vertically partitioned data.

Algorithms 5 and 6 of the paper.  Both parties know every record id (the
split is by attribute, Figure 3), so a single shared DBSCAN control flow
runs; only the neighbourhood predicate is secured.  For each candidate
pair, each party locally sums the squared differences over its own
attributes and Protocol VDP compares ``partA <= Eps^2 - partB`` -- both
parties learn the outcome, which is part of the protocol's defined
output (Theorem 10 reveals the neighbourhood size of each queried
point).

Because expansion is unrestricted, the result matches centralized DBSCAN
over the joint database exactly (property-tested).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    ClusterLabels,
    next_cluster_id,
)
from repro.core.config import ProtocolConfig
from repro.core.distance import vdp_within_eps
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import VerticalPartition
from repro.data.quantize import squared_distance_bound
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.session import SmcSession, channel_for_config


@dataclass(frozen=True)
class VerticalRunResult:
    """Output of a vertical protocol run (labels are the joint output)."""

    labels: tuple[int, ...]
    ledger: LeakageLedger
    stats: dict
    comparisons: int


def run_vertical_dbscan(partition: VerticalPartition,
                        config: ProtocolConfig,
                        *, channel: Channel | None = None,
                        ) -> VerticalRunResult:
    """Run Algorithms 5 + 6 over a vertical partition."""
    channel = (channel if channel is not None
                   else channel_for_config(config.smc))
    alice, bob = make_party_pair(channel, config.alice_seed, config.bob_seed)
    session = SmcSession(alice, bob, config.smc)
    ledger = LeakageLedger()

    value_bound = squared_distance_bound(partition.alice_records,
                                         partition.bob_records)
    runner = _VerticalPass(session=session, partition=partition,
                           config=config, value_bound=value_bound,
                           ledger=ledger)
    labels = runner.run()
    return VerticalRunResult(
        labels=labels.as_tuple(),
        ledger=ledger,
        stats=channel.stats.snapshot(),
        comparisons=session.comparison_backend.invocations,
    )


class _VerticalPass:
    """The shared control flow of Algorithms 5 + 6."""

    def __init__(self, *, session: SmcSession, partition: VerticalPartition,
                 config: ProtocolConfig, value_bound: int,
                 ledger: LeakageLedger):
        self.session = session
        self.partition = partition
        self.config = config
        self.value_bound = value_bound
        self.ledger = ledger
        self.labels = ClusterLabels(partition.size)

    def run(self) -> ClusterLabels:
        cluster_id = next_cluster_id(NOISE)
        for record in range(self.partition.size):
            if self.labels.is_unclassified(record):
                if self._expand_cluster(record, cluster_id):
                    cluster_id = next_cluster_id(cluster_id)
        return self.labels

    def _expand_cluster(self, record: int, cluster_id: int) -> bool:
        seeds = self._region_query(record)
        if len(seeds) < self.config.min_pts:
            self.labels.change_cluster_id(record, NOISE)
            return False
        self.labels.change_cluster_ids(seeds, cluster_id)
        queue = deque(s for s in seeds if s != record)
        while queue:
            current = queue.popleft()
            result = self._region_query(current)
            if len(result) >= self.config.min_pts:
                for neighbor in result:
                    if self.labels[neighbor] in (UNCLASSIFIED, NOISE):
                        if self.labels[neighbor] == UNCLASSIFIED:
                            queue.append(neighbor)
                        self.labels.change_cluster_id(neighbor, cluster_id)
        return True

    def _region_query(self, record: int) -> list[int]:
        """Algorithm 6's regionQuery via Protocol VDP, pair by pair.

        The queried record itself is included for free (distance zero);
        every other pair costs one secure comparison -- the paper's
        ``O(n^2)`` YMPP executions (Section 4.3.2).
        """
        neighbors = [record]
        for other in range(self.partition.size):
            if other == record:
                continue
            alice_partial = _partial_squared_distance(
                self.partition.alice_records, record, other)
            bob_partial = _partial_squared_distance(
                self.partition.bob_records, record, other)
            within = drive(vdp_within_eps(
                self.session, self.session.alice, alice_partial,
                self.session.bob, bob_partial, self.config.eps_squared,
                self.value_bound, ledger=self.ledger,
                reveal_to="both", label="vertical/vdp"))
            if within:
                neighbors.append(other)
        self.ledger.record("vertical", self.session.alice.name,
                           Disclosure.NEIGHBOR_COUNT,
                           detail=f"record {record}: {len(neighbors)}")
        self.ledger.record("vertical", self.session.bob.name,
                           Disclosure.NEIGHBOR_COUNT,
                           detail=f"record {record}: {len(neighbors)}")
        return sorted(neighbors)


def _partial_squared_distance(records, x: int, y: int) -> int:
    """One party's local share of the squared distance."""
    return sum((a - b) * (a - b) for a, b in zip(records[x], records[y]))
