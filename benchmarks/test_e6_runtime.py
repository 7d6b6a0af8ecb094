"""E6 -- runtime scaling vs Paillier key size and dataset size.

The paper motivates problem-specific protocols with efficiency
(Section 2: generic Yao circuits are impractical).  This experiment
pins the constant factors: wall-clock per protocol run as the Paillier
modulus grows (modular exponentiation is ~cubic in key size) and as n
grows (quadratic pair count).

E6a's byte column is deterministic, so it has a test of its own,
:func:`test_e6a_bytes`, which times nothing and which CI runs with the
other deterministic experiments: a change that moves the bytes must
commit ``e6a_bytes.txt``.  The timing table, ``e6_runtime.txt``, holds
seconds only; CI does not run it, because a time on a shared runner is
host noise.

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
from repro.smc.session import SmcConfig

KEY_SIZES = (128, 256, 384)
N_SWEEP = (4, 8, 12)
KEY_SWEEP_PARTITION = HorizontalPartition(
    alice_points=spread_points(4), bob_points=spread_points(4, offset=7))


def _config(bits: int) -> ProtocolConfig:
    return ProtocolConfig(
        eps=1.0, min_pts=2, scale=10,
        smc=SmcConfig(paillier_bits=bits, key_seed=510, mask_sigma=8),
        alice_seed=23, bob_seed=24)


def _run_key_sweep():
    timings = []
    for bits in KEY_SIZES:
        started = time.perf_counter()
        run_horizontal_dbscan(KEY_SWEEP_PARTITION, _config(bits))
        timings.append(time.perf_counter() - started)
    return timings


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


def test_e6a_bytes(record_table):
    rows = [[bits, run_horizontal_dbscan(
        KEY_SWEEP_PARTITION, _config(bits)).stats["total_bytes"]]
        for bits in KEY_SIZES]
    record_table("e6a_bytes", render_table(
        ["paillier_bits", "bytes"], rows,
        title="E6a: bytes vs key size (n=8 horizontal)"))
    # Ciphertexts travel at their key's width: bytes grow with the key.
    assert rows[0][1] < rows[1][1] < rows[2][1]


def test_e6_runtime(benchmark, record_table):
    key_timings = benchmark.pedantic(_run_key_sweep, rounds=1, iterations=1)
    n_rows, n_timings = _run_n_sweep()
    table = render_table(
        ["paillier_bits", "seconds"],
        [[bits, f"{elapsed:.2f}"]
         for bits, elapsed in zip(KEY_SIZES, key_timings)],
        title="E6a: runtime vs key size (n=8 horizontal)")
    table += "\n\n" + render_table(
        ["n", "seconds"], n_rows,
        title="E6b: runtime vs dataset size (256-bit keys)")
    record_table("e6_runtime", table)

    # Bigger keys must cost more time.
    assert key_timings[-1] > key_timings[0]
    # Quadratic-ish growth in n: 12 vs 4 points is 9x the pairs.
    assert n_timings[-1] > 2.0 * n_timings[0]
