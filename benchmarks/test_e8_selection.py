"""E8 -- k-th statistic selection ablation (paper Section 5).

Paper claims: the scan algorithm is ``O(k*n)`` ("a good time complexity
for a small k") and the quickselect variant is expected ``O(n)``
("appropriate when the k is greater").

Expected shape: secure-comparison counts for the scan grow linearly in
k; quickselect stays flat in k; the crossover sits at small k.
"""

import random

from repro.analysis.report import render_table
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.kth_smallest import (
    kth_smallest_quickselect,
    kth_smallest_scan,
)
from repro.smc.secret_sharing import SharedValues, share_additively
from repro.smc.session import SmcConfig, SmcSession

N = 64
K_SWEEP = (1, 2, 4, 8, 16, 32, 64)


def _shares(session, values, seed=0):
    mask_bound = session.config.mask_bound(max(values) + 1)
    rng = random.Random(seed)
    pairs = [share_additively(v, rng, mask_bound) for v in values]
    return SharedValues(u_values=tuple(p[0] for p in pairs),
                        v_values=tuple(p[1] for p in pairs),
                        value_bound=max(values) + 1,
                        mask_bound=mask_bound)


def _run_sweep():
    rng = random.Random(11)
    values = [rng.randrange(10**6) for _ in range(N)]
    ranked = sorted(values)
    rows = []
    scan_counts = []
    quick_counts = []
    for k in K_SWEEP:
        alice, bob = make_party_pair(Channel(), 1, 2)
        session = SmcSession(alice, bob,
                             SmcConfig(comparison="oracle", key_seed=520))
        backend = session.comparison_backend
        [index] = drive(kth_smallest_scan(backend, alice, bob,
                                          [_shares(session, values)], [k]))
        scan_count = backend.invocations
        assert values[index] == ranked[k - 1]

        alice2, bob2 = make_party_pair(Channel(), 3, 4)
        session2 = SmcSession(alice2, bob2,
                              SmcConfig(comparison="oracle", key_seed=520))
        backend2 = session2.comparison_backend
        [index2] = drive(kth_smallest_quickselect(backend2, alice2, bob2,
                                                  [_shares(session2, values)],
                                                  [k]))
        quick_count = backend2.invocations
        assert values[index2] == ranked[k - 1]

        scan_counts.append(scan_count)
        quick_counts.append(quick_count)
        winner = "scan" if scan_count <= quick_count else "quickselect"
        rows.append([k, scan_count, quick_count, winner])
    return rows, scan_counts, quick_counts


def test_e8_selection_ablation(benchmark, record_table):
    rows, scan_counts, quick_counts = benchmark.pedantic(
        _run_sweep, rounds=1, iterations=1)
    table = render_table(
        ["k", "scan_comparisons", "quickselect_comparisons", "winner"],
        rows, title=f"E8: k-th statistic selection, n={N}")
    record_table("e8_selection", table)

    # Scan is linear in k: k=64 costs far more than k=1.
    assert scan_counts[-1] > 10 * scan_counts[0]
    # Quickselect is flat-ish in k: within a small factor across the sweep.
    assert max(quick_counts) < 6 * min(quick_counts)
    # The paper's guidance: scan wins for k=1, loses by k=n/2.
    assert scan_counts[0] <= quick_counts[0]
    assert scan_counts[-2] > quick_counts[-2]
