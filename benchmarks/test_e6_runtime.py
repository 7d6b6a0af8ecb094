"""E6 -- runtime scaling vs Paillier key size and dataset size.

The paper motivates problem-specific protocols with efficiency
(Section 2: generic Yao circuits are impractical).  This experiment
pins the constant factors: wall-clock per protocol run as the Paillier
modulus grows (modular exponentiation is ~cubic in key size) and as n
grows (quadratic pair count).  E6c is the offline/online ablation: every
encryption's randomness drawn online (``SmcConfig(precompute=False)``)
vs the same protocol with the Paillier randomness precomputed offline
(same labels, same disclosures -- only where the time goes changes).

Note: as of PR 1 the E6a/E6b sweeps measure the batched region-query
pipeline, so their absolute seconds/bytes are not comparable with
pre-PR-1 recorded tables.
"""

import time

from benchmarks.conftest import spread_points
from repro.analysis.report import render_table
from repro.core.config import ProtocolConfig
from repro.core.horizontal import run_horizontal_dbscan
from repro.data.partitioning import HorizontalPartition
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession

KEY_SIZES = (128, 256, 384)
N_SWEEP = (4, 8, 12)


def _config(bits: int, *, precompute: bool = True) -> ProtocolConfig:
    return ProtocolConfig(
        eps=1.0, min_pts=2, scale=10,
        smc=SmcConfig(paillier_bits=bits, key_seed=510, mask_sigma=8,
                      precompute=precompute),
        alice_seed=23, bob_seed=24)


def _run_key_sweep():
    partition = HorizontalPartition(alice_points=spread_points(4),
                                    bob_points=spread_points(4, offset=7))
    rows = []
    timings = []
    for bits in KEY_SIZES:
        started = time.perf_counter()
        result = run_horizontal_dbscan(partition, _config(bits))
        elapsed = time.perf_counter() - started
        timings.append(elapsed)
        rows.append([bits, f"{elapsed:.2f}",
                     result.stats["total_bytes"]])
    return rows, timings


def _run_n_sweep():
    rows = []
    timings = []
    for n in N_SWEEP:
        partition = HorizontalPartition(
            alice_points=spread_points(n // 2),
            bob_points=spread_points(n - n // 2, offset=7))
        started = time.perf_counter()
        run_horizontal_dbscan(partition, _config(256))
        elapsed = time.perf_counter() - started
        timings.append(elapsed)
        rows.append([n, f"{elapsed:.2f}"])
    return rows, timings


def _run_pipeline_ablation():
    """E6c: all-online randomness vs the offline/online pipeline."""
    partition = HorizontalPartition(
        alice_points=spread_points(6, step=7),
        bob_points=spread_points(6, offset=3, step=7))

    no_pool_config = _config(256, precompute=False)
    started = time.perf_counter()
    no_pool_result = run_horizontal_dbscan(partition, no_pool_config)
    no_pool_seconds = time.perf_counter() - started

    # Probe run learns the randomness budget; the real run pregenerates
    # it offline and times only the online protocol.
    pipeline_config = _config(256)
    probe_session = SmcSession(
        *make_party_pair(Channel(), 23, 24), pipeline_config.smc)
    run_horizontal_dbscan(partition, pipeline_config, session=probe_session)
    plan = {key: report["consumed"]
            for key, report in probe_session.pool_report().items()}

    session = SmcSession(*make_party_pair(Channel(), 23, 24),
                         pipeline_config.smc)
    started = time.perf_counter()
    session.precompute_pools(plan)
    offline_seconds = time.perf_counter() - started
    started = time.perf_counter()
    pipeline_result = run_horizontal_dbscan(partition, pipeline_config,
                                            session=session)
    online_seconds = time.perf_counter() - started

    assert no_pool_result.alice_labels == pipeline_result.alice_labels
    assert no_pool_result.bob_labels == pipeline_result.bob_labels
    assert no_pool_result.ledger.events == pipeline_result.ledger.events

    speedup = no_pool_seconds / online_seconds
    row = [f"{no_pool_seconds:.2f}", f"{offline_seconds:.2f}",
           f"{online_seconds:.2f}", f"{speedup:.1f}x",
           pipeline_result.stats["total_messages"]]
    return row, speedup


def test_e6_runtime(benchmark, record_table):
    (key_rows, key_timings) = benchmark.pedantic(_run_key_sweep, rounds=1,
                                                 iterations=1)
    n_rows, n_timings = _run_n_sweep()
    ablation_row, speedup = _run_pipeline_ablation()
    table = render_table(["paillier_bits", "seconds", "bytes"], key_rows,
                         title="E6a: runtime vs key size (n=8 horizontal)")
    table += "\n\n" + render_table(
        ["n", "seconds"], n_rows,
        title="E6b: runtime vs dataset size (256-bit keys)")
    table += "\n\n" + render_table(
        ["no_pool_s", "offline_s", "online_s", "online_speedup",
         "messages"],
        [ablation_row],
        title="E6c: offline/online pipeline ablation (n=12 horizontal, "
              "identical labels and disclosures)")
    record_table("e6_runtime", table)

    # Bigger keys must cost more time; bytes also grow with key size.
    assert key_timings[-1] > key_timings[0]
    assert key_rows[-1][2] > key_rows[0][2]
    # Quadratic-ish growth in n: 12 vs 4 points is 9x the pairs.
    assert n_timings[-1] > 2.0 * n_timings[0]
    # The offline/online split must pay for itself online.  Typical
    # speedup is 3-4x; the assertion bound is loose because wall-clock
    # ratios on shared machines absorb scheduling noise.
    assert speedup > 1.0
