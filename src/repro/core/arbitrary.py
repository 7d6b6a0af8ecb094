"""Privacy preserving DBSCAN over arbitrarily partitioned data (Sec. 4.4).

"Arbitrarily partitioned data = vertically partitioned data +
horizontally partitioned data" (Figure 4): ownership is decided per
record, per attribute.  Every record id is known to both parties, so the
control flow is the vertical one (Algorithms 5 + 6); only the distance
predicate changes -- Protocol ADP decomposes each pair's squared
distance into same-owner terms (accumulated locally, the vertical part)
and cross-owner terms (routed through the Multiplication Protocol, the
horizontal part), then one secure comparison decides the predicate.

Matches centralized DBSCAN on the joint database exactly, like the
vertical protocol.
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
from repro.core.distance import adp_within_eps
from repro.core.leakage import Disclosure, LeakageLedger
from repro.data.partitioning import ArbitraryPartition
from repro.data.quantize import squared_distance_bound
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.session import SmcSession, channel_for_config


@dataclass(frozen=True)
class ArbitraryRunResult:
    """Output of an arbitrary-partition run (labels are the joint output)."""

    labels: tuple[int, ...]
    ledger: LeakageLedger
    stats: dict
    comparisons: int


def run_arbitrary_dbscan(partition: ArbitraryPartition,
                         config: ProtocolConfig,
                         *, channel: Channel | None = None,
                         ) -> ArbitraryRunResult:
    """Run the Section 4.4 protocol over an arbitrary partition."""
    channel = (channel if channel is not None
                   else channel_for_config(config.smc))
    alice, bob = make_party_pair(channel, config.alice_seed, config.bob_seed)
    session = SmcSession(alice, bob, config.smc)
    ledger = LeakageLedger()

    value_bound = squared_distance_bound(partition.values, partition.values)
    runner = _ArbitraryPass(session=session, partition=partition,
                            config=config, value_bound=value_bound,
                            ledger=ledger)
    labels = runner.run()
    return ArbitraryRunResult(
        labels=labels.as_tuple(),
        ledger=ledger,
        stats=channel.stats.snapshot(),
        comparisons=session.comparison_backend.invocations,
    )


class _ArbitraryPass:
    """Algorithms 5 + 6 control flow with the ADP distance predicate."""

    def __init__(self, *, session: SmcSession, partition: ArbitraryPartition,
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
        neighbors = [record]
        for other in range(self.partition.size):
            if other == record:
                continue
            within = drive(adp_within_eps(
                self.session, self.session.alice, self.session.bob,
                self._ownership_view(record), self._ownership_view(other),
                self.config.eps_squared, self.value_bound,
                ledger=self.ledger, reveal_to="both",
                label="arbitrary/adp"))
            if within:
                neighbors.append(other)
        for party in (self.session.alice, self.session.bob):
            self.ledger.record("arbitrary", party.name,
                               Disclosure.NEIGHBOR_COUNT,
                               detail=f"record {record}: {len(neighbors)}")
        return sorted(neighbors)

    def _ownership_view(self, record: int) -> dict[int, tuple[str, int]]:
        """Attribute -> (owner, value) map Protocol ADP consumes."""
        return {
            attribute: (self.partition.owner_of(record, attribute),
                        self.partition.values[record][attribute])
            for attribute in range(self.partition.dimensions)
        }
