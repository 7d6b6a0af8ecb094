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
  standard offline/online split of the MPC literature.  A pool's
  attempt log lets a daemon's restarted query hand out the factors an
  aborted attempt drew again instead of computing them twice
  (:meth:`RandomnessPool.log_draws`, :meth:`RandomnessPool.rewind`).
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
most once (the queue pops).  A factor :meth:`RandomnessPool.rewind`
hands back is the same draw used again for the same ciphertext: the
restarted attempt recomputes exactly what the aborted one sent, which
the daemon's replay check verifies byte for byte, so no two distinct
ciphertexts ever share a factor.
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
    - ``consumed``: factors handed out in total; a :meth:`rewind` takes
      back the ones it returns to the queue.
    - ``misses``: factors generated on demand because the queue was
      empty (online cost identical to the unpooled path), each counted
      once however often a rewind hands it out again.

    Attempt log: after :meth:`log_draws` the pool records every factor
    it hands out, and :meth:`rewind` pushes them back to the front of
    the queue in draw order.  A daemon's restartable query
    (:class:`~repro.runtime.async_pass.PairRuntime`) starts the log at
    the query's start and rewinds it whenever an attempt parks for a
    frame, so the next attempt pops the same factors in the same order
    and computes none of them again.
    """

    __slots__ = ("public_key", "rng", "_factors", "_drawn", "pregenerated",
                 "consumed", "misses")

    def __init__(self, public_key: "PaillierPublicKey", rng: random.Random):
        self.public_key = public_key
        self.rng = rng
        self._factors: deque[int] = deque()
        # The attempt log: factors handed out since log_draws or the
        # last rewind; None until log_draws (always, in process).
        self._drawn: list[int] | None = None
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
            factor = self._factors.popleft()
        else:
            self.misses += 1
            factor = self.public_key.fresh_factor(self.rng)
        if self._drawn is not None:
            self._drawn.append(factor)
        return factor

    def log_draws(self) -> None:
        """Start an attempt log (dropping any earlier one): every factor
        handed out from here on is recorded for :meth:`rewind`."""
        self._drawn = []

    def rewind(self) -> None:
        """Give back every factor the log recorded: they return to the
        front of the queue in draw order, ``consumed`` drops by their
        number, and the log starts over.  ``misses`` is left alone, so
        a factor computed online counts once."""
        drawn = self._drawn
        if drawn is None:
            raise PrecomputeError("rewind needs an attempt log: call "
                                  "log_draws when the attempt starts")
        self._factors.extendleft(reversed(drawn))
        self.consumed -= len(drawn)
        drawn.clear()

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

