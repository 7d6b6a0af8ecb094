"""E9 -- YMPP cost vs domain bound n0 (paper Sections 3.8 / 4.2.2).

Paper claim: each YMPP execution transfers ``O(c2 * n0)`` bits (Alice's
step-5 sequence has one number per domain element).

Expected shape: measured bytes per execution essentially proportional to
n0 (the per-number width c2 grows only logarithmically, as 2*log2(n0)
bits -- see ympp_bit_parameter -- so the fit against n0*log(n0) is the
tighter model; both are reported).
"""

import math

from repro.analysis.communication import fit_through_origin
from repro.analysis.report import render_table
from repro.crypto.keycache import cached_rsa_keypair
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.millionaires import ympp_less_than

N0_SWEEP = (8, 16, 32, 64, 128, 256)
KEYS = cached_rsa_keypair(512, 530)


def _run_sweep():
    rows = []
    linear_x, loglinear_x, measured = [], [], []
    for n0 in N0_SWEEP:
        channel = Channel()
        alice, bob = make_party_pair(channel, 1, 2)
        result = drive(ympp_less_than(alice, n0 // 2, bob, n0 // 2 + 1, n0,
                                      KEYS))
        assert result is True
        total = channel.stats.total_bytes
        rows.append([n0, total, f"{total / n0:.1f}"])
        linear_x.append(float(n0))
        loglinear_x.append(n0 * math.log2(n0))
        measured.append(float(total))
    linear_fit = fit_through_origin(linear_x, measured)
    loglinear_fit = fit_through_origin(loglinear_x, measured)
    return rows, linear_fit, loglinear_fit


def test_e9_ympp_domain_scaling(benchmark, record_table):
    rows, linear_fit, loglinear_fit = benchmark.pedantic(
        _run_sweep, rounds=1, iterations=1)
    table = render_table(
        ["n0", "bytes", "bytes/n0"], rows,
        title="E9: YMPP per-execution bytes vs domain bound  "
              f"[~n0 fit R^2={linear_fit.r_squared:.4f}; "
              f"~n0*log(n0) fit R^2={loglinear_fit.r_squared:.4f}]")
    record_table("e9_ympp_domain", table)

    assert linear_fit.r_squared > 0.98, "cost must scale ~linearly in n0"
    # Sanity: 32x the domain costs much more, but far from 100x.
    assert 10 < rows[-1][1] / rows[0][1] < 80
