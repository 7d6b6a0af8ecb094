"""E12 -- ablation: ciphertext caching vs per-query permutation.

DESIGN.md calls out the design choice hidden in Algorithm 4's
``SetOfPointsOfBobPermutation``: re-encrypting and re-sending the peer's
coordinates for every query is what buys unlinkability.  The obvious
engineering optimization -- cache each peer point's encrypted
coordinates and reuse them across queries -- saves the request half of
every repeated Multiplication Protocol batch, but puts a stable point id
on the wire, re-enabling exactly the Figure 1 linkage the permutation
exists to prevent.

Expected shape: the cached variant's ledger shows
``linked_neighbor_id`` disclosures on clustered workloads (every point
queried during expansion); the base variant shows zero.  The byte
saving is now small: the batched region query encrypts the querier's
point once per query and returns one ciphertext per peer point, so the
peer's coordinates were never the bulk of a query's traffic.  On the
seed-era per-point pipeline the cache saved several percent of bytes;
on the batched pipeline it saves well under one percent (n=8: 60,153 ->
59,944 bytes), while the linkability cost is unchanged.
"""

from benchmarks.conftest import clustered_points, protocol_config
from repro.analysis.report import render_table
from repro.clustering.labels import canonicalize
from repro.core.config import ProtocolConfig
from repro.core.horizontal import run_horizontal_dbscan
from repro.data.partitioning import HorizontalPartition
from repro.smc.session import SmcConfig

SIZES = (4, 9, 16)


def _config(cached: bool) -> ProtocolConfig:
    return ProtocolConfig(
        eps=1.0, min_pts=3, scale=10,
        smc=SmcConfig(paillier_bits=256, key_seed=560, mask_sigma=8),
        alice_seed=31, bob_seed=32, cache_peer_ciphertexts=cached)


def _run_sweep():
    rows = []
    savings = []
    for size in SIZES:
        partition = HorizontalPartition(
            alice_points=clustered_points(size),
            bob_points=clustered_points(size, origin=(3, 3)))
        base = run_horizontal_dbscan(partition, _config(False))
        cached = run_horizontal_dbscan(partition, _config(True))
        assert canonicalize(base.alice_labels) \
            == canonicalize(cached.alice_labels)
        saving = 1.0 - cached.stats["total_bytes"] / base.stats["total_bytes"]
        savings.append(saving)
        rows.append([
            2 * size,
            base.stats["total_bytes"],
            cached.stats["total_bytes"],
            f"{100 * saving:.1f}%",
            base.ledger.profile().get("linked_neighbor_id", 0),
            cached.ledger.profile().get("linked_neighbor_id", 0),
        ])
    return rows, savings


def test_e12_cached_hdp_ablation(benchmark, record_table):
    rows, savings = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    table = render_table(
        ["n", "base_bytes", "cached_bytes", "saving",
         "base_linked_ids", "cached_linked_ids"],
        rows,
        title="E12: ciphertext-cache ablation (bytes saved vs "
              "linkability introduced)")
    record_table("e12_cached_hdp", table)

    # The cache still saves some bytes on clustered data...
    assert all(saving > 0 for saving in savings)
    # ...at the cost of linkable hits, which the base never discloses.
    assert all(row[4] == 0 for row in rows)
    assert all(row[5] > 0 for row in rows)
