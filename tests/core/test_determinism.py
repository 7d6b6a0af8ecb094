"""Reproducibility guarantees: seeded runs are bit-identical.

Every protocol draws all randomness from the injected per-party RNGs,
so two runs with the same seeds must agree on *everything* -- labels,
byte counts, message counts, disclosure profiles -- and runs with
different seeds must agree on the clustering (correctness is
randomness-independent) while their transcripts differ (the crypto is
actually randomized).
"""

import pytest

from repro.clustering.labels import canonicalize
from repro.core.api import cluster_partitioned
from repro.core.config import ProtocolConfig
from repro.data.dataset import Dataset
from repro.data.partitioning import (
    HorizontalPartition,
    partition_vertical,
)
from repro.smc.session import SmcConfig

POINTS = [(0, 0), (10, 0), (0, 10), (300, 300), (310, 300)]


def _config(alice_seed: int, bob_seed: int, backend="bitwise"):
    return ProtocolConfig(
        eps=2.0, min_pts=2, scale=10,
        smc=SmcConfig(comparison=backend, key_seed=270, mask_sigma=8),
        alice_seed=alice_seed, bob_seed=bob_seed)


def _horizontal():
    return HorizontalPartition(alice_points=tuple(POINTS[:3]),
                               bob_points=tuple(POINTS[3:]))


class TestSameSeedsSameEverything:
    @pytest.mark.parametrize("enhanced", [False, True])
    def test_horizontal_bit_identical(self, enhanced):
        first = cluster_partitioned(_horizontal(), _config(1, 2),
                                    enhanced=enhanced)
        second = cluster_partitioned(_horizontal(), _config(1, 2),
                                     enhanced=enhanced)
        assert first.alice_labels == second.alice_labels
        assert first.bob_labels == second.bob_labels
        assert first.stats["total_bytes"] == second.stats["total_bytes"]
        assert first.stats["total_messages"] \
            == second.stats["total_messages"]
        assert first.ledger.profile() == second.ledger.profile()
        assert first.comparisons == second.comparisons

    def test_vertical_bit_identical(self):
        partition = partition_vertical(Dataset.from_points(POINTS), 1)
        first = cluster_partitioned(partition, _config(3, 4))
        second = cluster_partitioned(partition, _config(3, 4))
        assert first.alice_labels == second.alice_labels
        assert first.stats["total_bytes"] == second.stats["total_bytes"]


class TestDifferentSeedsSameClustering:
    @pytest.mark.parametrize("enhanced", [False, True])
    def test_labels_independent_of_randomness(self, enhanced):
        first = cluster_partitioned(_horizontal(), _config(1, 2),
                                    enhanced=enhanced)
        second = cluster_partitioned(_horizontal(), _config(99, 77),
                                     enhanced=enhanced)
        assert canonicalize(first.alice_labels) \
            == canonicalize(second.alice_labels)
        assert canonicalize(first.bob_labels) \
            == canonicalize(second.bob_labels)

    def test_transcripts_actually_differ(self):
        """Different randomness must produce different ciphertext bytes
        somewhere -- otherwise the 'randomness' is not flowing."""
        from repro.core.horizontal import run_horizontal_dbscan
        from repro.multiparty.mesh import PartyMesh

        def transcript(alice_seed, bob_seed):
            config = _config(alice_seed, bob_seed)
            mesh = PartyMesh(["alice", "bob"], config.smc,
                             seeds=[alice_seed, bob_seed])
            run_horizontal_dbscan(_horizontal(), config, mesh=mesh)
            return mesh.pair_transcripts()[("alice", "bob")]

        def flatten(entries):
            out = []
            for entry in entries:
                value = entry.value
                if isinstance(value, list):
                    out.extend(v for v in value if isinstance(v, int))
                elif isinstance(value, int):
                    out.append(value)
            return out

        values_a = flatten(transcript(1, 2).entries)
        values_b = flatten(transcript(99, 77).entries)
        assert values_a and values_a != values_b

    def test_multiparty_deterministic(self):
        from repro.multiparty.horizontal import (
            run_multiparty_horizontal_dbscan,
        )
        points = {"p0": POINTS[:2], "p1": POINTS[2:4], "p2": POINTS[4:]}
        config = _config(0, 0, backend="oracle")
        first = run_multiparty_horizontal_dbscan(points, config,
                                                 seeds=[1, 2, 3])
        second = run_multiparty_horizontal_dbscan(points, config,
                                                  seeds=[1, 2, 3])
        assert first.labels_by_party == second.labels_by_party
        assert first.stats["total_bytes"] == second.stats["total_bytes"]
