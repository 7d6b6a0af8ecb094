"""E13 -- crypto-layer ablations: CRT decryption, the g = n+1 fast
encrypt path, and the owner-side comparison kernels.

None is in the paper; all are standard Paillier engineering, and the
ablation quantifies what the from-scratch implementation gains from
them (and verifies bit-identical outputs).  E13c times the three kernels
the secure comparison runs on against the generic forms they replace:
the key owner's CRT encryption factor vs ``r^n mod n^2``, the DGK key
holder's one-prime zero test vs a CRT decryption of each witness, and
negation by modular inverse vs an (n-1)-bit exponent.
"""

import random
import statistics
import time

from repro.analysis.report import render_table
from repro.crypto.engine import default_engine
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.paillier import generate_paillier_keypair
from repro.smc.bitwise_comparison import _BLIND_BITS, _witness_bound

BATCH = 60
KERNEL_BITS = (256, 512, 1024, 2048)
KERNEL_BATCH = 24
DGK_BITS = 40  # the width of the squared-distance comparisons


def _decrypt_ablation():
    rows = []
    speedups = []
    for bits in (256, 512):
        keys = cached_paillier_keypair(bits, 570)
        rng = random.Random(1)
        ciphers = [keys.public_key.encrypt(rng.randrange(keys.public_key.n),
                                           rng).value
                   for __ in range(BATCH)]
        started = time.perf_counter()
        crt = [keys.private_key.decrypt_raw(c) for c in ciphers]
        crt_time = time.perf_counter() - started
        started = time.perf_counter()
        std = [keys.private_key.decrypt_raw_standard(c) for c in ciphers]
        std_time = time.perf_counter() - started
        assert crt == std
        speedup = std_time / crt_time
        speedups.append(speedup)
        rows.append([bits, f"{1000 * std_time:.1f}", f"{1000 * crt_time:.1f}",
                     f"{speedup:.2f}x"])
    return rows, speedups


def _encrypt_ablation():
    rows = []
    rng = random.Random(2)
    fast = cached_paillier_keypair(256, 571)           # g = n + 1
    slow = generate_paillier_keypair(256, random.Random(3), random_g=True)
    for name, keys in (("g=n+1", fast), ("random g", slow)):
        messages = [rng.randrange(keys.public_key.n) for __ in range(BATCH)]
        started = time.perf_counter()
        for message in messages:
            keys.public_key.encrypt(message, rng)
        elapsed = time.perf_counter() - started
        rows.append([name, f"{1000 * elapsed:.1f}"])
    return rows


def _per_op_ms(function, items):
    """Median milliseconds of ``function`` over ``items``, and results."""
    results, times = [], []
    for item in items:
        started = time.perf_counter()
        results.append(function(item))
        times.append(time.perf_counter() - started)
    return 1000 * statistics.median(times), results


def _kernel_ablation():
    rows = []
    speedups = []
    for bits in KERNEL_BITS:
        keys = cached_paillier_keypair(bits, 572)
        public, private = keys.public_key, keys.private_key
        n, n_sq = public.n, public.n_squared
        rng = random.Random(bits)
        units = [public.random_unit(rng) for __ in range(KERNEL_BATCH)]

        # Owner factor: CRT nth_power vs the generic powmod.
        generic_ms, generic = _per_op_ms(lambda r: pow(r, n, n_sq), units)
        owner_ms, owned = _per_op_ms(private.nth_power, units)
        assert owned == generic

        # Zero test vs CRT decryption, on witness-shaped plaintexts
        # c_t * multiplier with c_t in [-2, 2] (a fifth of them zero).
        witnesses = [public.encrypt(
            ((index % 5 - 2) * rng.randrange(1, 1 << _BLIND_BITS)) % n,
            rng).value for index in range(KERNEL_BATCH)]
        decrypt_ms, plaintexts = _per_op_ms(private.decrypt_raw, witnesses)
        zero_ms, zeros = _per_op_ms(
            lambda c: default_engine().zero_test_batch(
                private, [c], _witness_bound(DGK_BITS))[0], witnesses)
        assert zeros == [m == 0 for m in plaintexts] \
            == [index % 5 == 2 for index in range(KERNEL_BATCH)]

        # Negation: one inverse vs the (n-1)-bit exponent.
        ciphers = [public.encrypt(index, rng) for index in range(KERNEL_BATCH)]
        full_ms, full = _per_op_ms(lambda c: pow(c.value, n - 1, n_sq),
                                   ciphers)
        inverse_ms, negated = _per_op_ms(lambda c: c * -1, ciphers)
        assert [private.decrypt(c) for c in negated] \
            == [private.decrypt_raw(value) for value in full] \
            == [(-index) % n for index in range(KERNEL_BATCH)]

        ratios = (generic_ms / owner_ms, decrypt_ms / zero_ms,
                  full_ms / inverse_ms)
        speedups.append(ratios)
        rows.append([bits,
                     f"{generic_ms:.3f}", f"{owner_ms:.3f}",
                     f"{ratios[0]:.2f}x",
                     f"{decrypt_ms:.3f}", f"{zero_ms:.3f}",
                     f"{ratios[1]:.2f}x",
                     f"{full_ms:.3f}", f"{inverse_ms:.3f}",
                     f"{ratios[2]:.1f}x"])
    return rows, speedups


def test_e13_crypto_ablations(benchmark, record_table):
    (decrypt_rows, speedups) = benchmark.pedantic(_decrypt_ablation,
                                                  rounds=1, iterations=1)
    encrypt_rows = _encrypt_ablation()
    kernel_rows, kernel_speedups = _kernel_ablation()
    table = render_table(
        ["paillier_bits", f"standard_ms({BATCH})", f"crt_ms({BATCH})",
         "speedup"],
        decrypt_rows, title="E13a: CRT vs standard decryption")
    table += "\n\n" + render_table(
        ["generator", f"encrypt_ms({BATCH})"], encrypt_rows,
        title="E13b: fast-path vs random-g encryption")
    table += "\n\n" + render_table(
        ["paillier_bits", "r^n_ms", "owner_crt_ms", "speedup",
         "decrypt_ms", "zero_test_ms", "speedup",
         "neg_full_ms", "neg_inverse_ms", "speedup"],
        kernel_rows,
        title=(f"E13c: owner-side comparison kernels vs generic forms "
               f"(median ms per op over {KERNEL_BATCH})"))
    record_table("e13_crypto_ablations", table)

    # CRT should help at both sizes (generous floor for noisy CI boxes).
    assert all(speedup > 1.2 for speedup in speedups)
    # Random-g encryption pays an extra full-width modexp.
    fast_ms = float(encrypt_rows[0][1])
    slow_ms = float(encrypt_rows[1][1])
    assert slow_ms > fast_ms
    # Every kernel beats its generic form at every size (same floor).
    assert all(ratio > 1.2 for ratios in kernel_speedups for ratio in ratios)
