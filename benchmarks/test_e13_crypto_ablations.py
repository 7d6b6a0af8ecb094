"""E13 -- crypto-layer ablations: CRT decryption, the g = n+1 fast
encrypt path, and the kernels the secure comparison and its Paillier
neighbours run on.

None is in the paper; all are standard engineering, and the ablation
quantifies what the from-scratch implementation gains from them (and
verifies identical outputs).  E13c times each kernel against the form
it replaces: DGK's ``h^r`` from a fixed-base table against Paillier's
``r^n mod n^2`` rerandomization, DGK's zero test ``c^(v_p) mod p``
against Paillier's ``c^(p-1) mod p^2`` (with equal zero decisions on
witness-shaped plaintexts), the key owner's CRT encryption factor
against ``r^n mod n^2``, and negation by modular inverse against an
(n-1)-bit exponent.
"""

import random
import statistics
import time

from repro.analysis.report import render_table
from repro.crypto.dgk import DGK_U
from repro.crypto.keycache import cached_dgk_keypair, cached_paillier_keypair
from repro.crypto.paillier import generate_paillier_keypair

BATCH = 60
KERNEL_BITS = (256, 512, 1024, 2048)
KERNEL_BATCH = 24
# The Paillier comparison blinded witnesses with multipliers below 2^40.
PAILLIER_BLIND_BITS = 40


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
    """Rows ``[kernel, bits, form_ms, kernel_ms, speedup]``."""
    rows = []
    speedups = []
    for bits in KERNEL_BITS:
        keys = cached_paillier_keypair(bits, 572)
        public, private = keys.public_key, keys.private_key
        n, n_sq = public.n, public.n_squared
        dgk = cached_dgk_keypair(bits, 572)
        dgk_public, dgk_private = dgk.public_key, dgk.private_key
        rng = random.Random(bits)
        units = [public.random_unit(rng) for __ in range(KERNEL_BATCH)]
        # Witness values c_t in [-2, 2], a fifth of them zero.
        c_t_values = [index % 5 - 2 for index in range(KERNEL_BATCH)]
        expected = [c_t == 0 for c_t in c_t_values]
        dgk_public.randomizer(rng)  # build the h^r table outside the timing

        # Rerandomization: Paillier r^n mod n^2 vs DGK h^r from the table.
        generic_ms, generic = _per_op_ms(lambda r: pow(r, n, n_sq), units)
        table_ms, _ = _per_op_ms(lambda _: dgk_public.randomizer(rng), units)
        rows.append(["rerandomize: r^n mod n^2 -> DGK h^r", bits,
                     generic_ms, table_ms])

        # Zero test on witness-shaped plaintexts c_t * multiplier.
        p_squared = private.p * private.p
        paillier_witnesses = [public.encrypt(
            c_t * rng.randrange(1, 1 << PAILLIER_BLIND_BITS) % n, rng).value
            for c_t in c_t_values]
        dgk_witnesses = []
        for c_t in c_t_values:
            cipher = dgk_public.encrypt(abs(c_t), rng)
            if c_t < 0:
                cipher = pow(cipher, -1, dgk_public.n)
            dgk_witnesses.append(
                pow(cipher, rng.randrange(1, DGK_U), dgk_public.n)
                * dgk_public.randomizer(rng) % dgk_public.n)
        paillier_zero_ms, paillier_zeros = _per_op_ms(
            lambda c: pow(c, private.p - 1, p_squared) == 1,
            paillier_witnesses)
        dgk_zero_ms, dgk_zeros = _per_op_ms(
            lambda c: dgk_private.zero_test_batch([c])[0], dgk_witnesses)
        assert paillier_zeros == dgk_zeros == expected
        rows.append(["zero test: c^(p-1) mod p^2 -> DGK c^(v_p) mod p",
                     bits, paillier_zero_ms, dgk_zero_ms])

        # Owner factor: CRT nth_power vs the generic powmod.
        owner_ms, owned = _per_op_ms(private.nth_power, units)
        assert owned == generic
        rows.append(["owner factor: r^n mod n^2 -> CRT nth_power", bits,
                     generic_ms, owner_ms])

        # Negation: one inverse vs the (n-1)-bit exponent.
        ciphers = [public.encrypt(index, rng) for index in range(KERNEL_BATCH)]
        full_ms, full = _per_op_ms(lambda c: pow(c.value, n - 1, n_sq),
                                   ciphers)
        inverse_ms, negated = _per_op_ms(lambda c: c * -1, ciphers)
        assert [private.decrypt(c) for c in negated] \
            == [private.decrypt_raw(value) for value in full] \
            == [(-index) % n for index in range(KERNEL_BATCH)]
        rows.append(["negate: c^(n-1) mod n^2 -> inverse", bits, full_ms,
                     inverse_ms])
    # Group by kernel, in the order above (sort is stable in bits).
    kernels = list(dict.fromkeys(row[0] for row in rows))
    rows.sort(key=lambda row: kernels.index(row[0]))
    for row in rows:
        speedups.append(row[2] / row[3])
        row[2:] = [f"{row[2]:.3f}", f"{row[3]:.3f}",
                   f"{row[2] / row[3]:.1f}x"]
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
        ["kernel: replaced form -> kernel", "key_bits", "form_ms",
         "kernel_ms", "speedup"],
        kernel_rows,
        title=(f"E13c: kernels vs the forms they replace "
               f"(median ms per op over {KERNEL_BATCH})"))
    record_table("e13_crypto_ablations", table)

    # CRT should help at both sizes (generous floor for noisy CI boxes).
    assert all(speedup > 1.2 for speedup in speedups)
    # Random-g encryption pays an extra full-width modexp.
    fast_ms = float(encrypt_rows[0][1])
    slow_ms = float(encrypt_rows[1][1])
    assert slow_ms > fast_ms
    # Every kernel beats the form it replaces at every size (same floor).
    assert all(ratio > 1.2 for ratio in kernel_speedups)
