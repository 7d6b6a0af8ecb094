"""Offline precomputation for Paillier: randomness pools and fixed bases.

Every Paillier encryption pays one randomness factor, and every
rerandomization pays the same again: in the fixed-base variant of
Damgard, Jurik and Nielsen (:mod:`repro.crypto.paillier`) a factor is
``h_s^r mod n^2`` from a fixed-base table of the key, at most
``ceil((k + 128) / 6)`` mulmods for a ``k``-bit ``n``.  The plaintext
part ``g^m`` is a single mulmod for the standard ``g = n + 1`` choice.
Factors depend only on the public key, never on the plaintext, so they
can be generated *before* the protocol runs.  This module supplies the two
precomputation tools:

- :class:`RandomnessPool` -- a per-(actor, public-key) queue of
  pregenerated factors.  With a filled pool, online ``encrypt`` and
  ``rerandomize`` each collapse to one mulmod; an empty pool falls back
  to on-demand generation (identical results), so pools never change
  correctness -- only when the factor work is done.  This is the
  standard offline/online split of the MPC literature.  A daemon runs
  each query once, so its pools compute every factor online, once.
- :class:`FixedBaseExp` -- windowed fixed-base exponentiation: the
  ``h_s`` table behind every factor, DGK's ``h^r`` table, and the
  ``g^m`` term when a keypair uses the paper's literal "random g"
  (``random_g=True``) instead of ``n + 1``.

Every pool computes its factors the same way, whether or not its actor
owns the key: the table holds public values only, and no factor passes
through the :func:`~repro.crypto.integer_math.cached_pow` memo.

Security note: a pooled factor is exactly a fresh factor drawn earlier
from the same party RNG -- pooling reorders randomness generation in
time, it does not weaken or correlate it.  Each factor is consumed at
most once (the queue pops), so no two ciphertexts share a factor.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (paillier types)
    from repro.crypto.paillier import PaillierPublicKey


class PrecomputeError(ValueError):
    """Raised on invalid pool or table parameters."""


class RandomnessPool:
    """Pregenerated Paillier randomness factors ``h_s^r mod n^2``.

    A pool belongs to one *actor* (whose private RNG ``rng`` supplies
    every exponent ``r``) and one *public key* (under which the actor
    encrypts or rerandomizes).  Encryption factors and rerandomization
    units are the same algebraic object -- a fresh encryption of zero --
    so one queue serves both uses; the two named accessors exist for
    call-site clarity.

    Accounting attributes (read by benchmarks and tests):

    - ``pregenerated``: factors produced by :meth:`refill` (offline).
    - ``consumed``: factors handed out in total.
    - ``misses``: factors generated on demand because the queue was
      empty (online cost identical to the unpooled path).
    """

    __slots__ = ("public_key", "rng", "_factors", "pregenerated",
                 "consumed", "misses")

    def __init__(self, public_key: "PaillierPublicKey", rng: random.Random):
        self.public_key = public_key
        self.rng = rng
        self._factors: deque[int] = deque()
        self.pregenerated = 0
        self.consumed = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._factors)

    def refill(self, count: int) -> None:
        """Offline phase: pregenerate ``count`` factors."""
        if count < 0:
            raise PrecomputeError(f"cannot pregenerate {count} factors")
        public, rng = self.public_key, self.rng
        self._factors.extend(public.fresh_factor(rng) for _ in range(count))
        self.pregenerated += count

    def encryption_factor(self) -> int:
        """Pop one factor; falls back to on-demand generation when empty."""
        self.consumed += 1
        if self._factors:
            return self._factors.popleft()
        self.misses += 1
        return self.public_key.fresh_factor(self.rng)

    def rerandomization_unit(self) -> int:
        """Alias of :meth:`encryption_factor` (same object, see class doc)."""
        return self.encryption_factor()

    def report(self) -> dict[str, int]:
        """Accounting snapshot: the CLI summary, E6 and the layered bench."""
        return {
            "pregenerated": self.pregenerated,
            "consumed": self.consumed,
            "misses": self.misses,
            "available": len(self._factors),
        }


def combine_pool_reports(reports) -> dict[str, int]:
    """Sum per-pool accounting dicts (from :meth:`RandomnessPool.report`)
    into one totals line -- the shape the CLI summary and the benchmark
    snapshots both print."""
    totals = {"pregenerated": 0, "consumed": 0, "misses": 0, "available": 0}
    for report in reports:
        for key in totals:
            totals[key] += report[key]
    return totals


class FixedBaseExp:
    """Windowed fixed-base modular exponentiation.

    Precomputes ``base^(j * 2^(i*window))`` for every window position
    ``i`` and digit ``j``, so any ``base^e`` with ``e < 2^max_bits``
    costs at most ``ceil(max_bits / window) - 1`` multiplications and no
    squarings.  Built once per key for the Paillier factor base ``h_s``
    and DGK's ``h``, and per ``(g, n^2)`` pair when the Paillier key
    uses a random ``g`` (the ``n + 1`` default never needs a ``g^m``
    table -- its ``g^m`` is already a single mulmod).
    """

    __slots__ = ("modulus", "window", "max_bits", "_table")

    def __init__(self, base: int, modulus: int, max_bits: int,
                 window: int = 4):
        if modulus < 2:
            raise PrecomputeError(f"modulus must be >= 2, got {modulus}")
        if max_bits < 1:
            raise PrecomputeError(f"max_bits must be >= 1, got {max_bits}")
        if window < 1:
            raise PrecomputeError(f"window must be >= 1, got {window}")
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        digits = 1 << window
        block = base % modulus
        table: list[tuple[int, ...]] = []
        for _ in range((max_bits + window - 1) // window):
            row = [1]
            for _ in range(digits - 1):
                row.append((row[-1] * block) % modulus)
            table.append(tuple(row))
            # Advance the block base to base^(2^((i+1)*window)).
            block = (row[-1] * block) % modulus
        self._table = tuple(table)

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` via table lookups."""
        if not 0 <= exponent < (1 << self.max_bits):
            raise PrecomputeError(
                f"exponent {exponent} outside [0, 2^{self.max_bits})")
        mask = (1 << self.window) - 1
        result = 1
        position = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = (result * self._table[position][digit]) % self.modulus
            exponent >>= self.window
            position += 1
        return result

