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
  standard offline/online split of the MPC literature.
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
most once (the queue pops).
"""

from __future__ import annotations

import asyncio
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


class RandomnessLease:
    """One session's registration with a daemon :class:`RandomnessService`.

    A lease holds the session's own :class:`RandomnessPool` objects --
    factor *values* are never shared across sessions, because each pool
    draws from a per-session forked RNG stream and sharing values would
    break the bit-identity contract between runtimes.  What the lease
    buys the session is the service's cross-session knowledge: how many
    factors past sessions under the same keypair actually consumed, so
    the pools can be filled to that demand up front (and topped up in
    idle time) instead of missing their way through the first run.

    Accounting attributes (read by ``runtime_info`` and tests):

    - ``prefilled``: factors filled synchronously at registration.
    - ``background_refilled``: factors added by the idle refill
      coroutine while the session ran.
    - ``busy``: count of in-flight secure queries, incremented by the
      pass runtime around each one (several pair runtimes share one
      lease); the idle refiller skips busy leases so background
      deposits never interleave with an in-flight (restartable)
      query attempt.
    """

    __slots__ = ("service", "session_id", "pools", "busy", "prefilled",
                 "background_refilled", "released")

    def __init__(self, service: "RandomnessService", session_id: str):
        self.service = service
        self.session_id = session_id
        self.pools: list[tuple[tuple, RandomnessPool]] = []
        self.busy = 0
        self.prefilled = 0
        self.background_refilled = 0
        self.released = False

    def register_pool(self, pool: RandomnessPool, owner_digest: str,
                      actor_is_owner: bool, *, role: str = "") -> int:
        """Adopt one session pool; prefill it to the learned demand.

        ``owner_digest`` is the Paillier public-key digest of the pool's
        key owner -- the cross-session identity demand is scoped by
        (factor *counts* transfer between sessions of the same keypair;
        nothing else does).  ``role`` names the protocol role that draws
        from the pool (a daemon registers ``drive`` and ``respond``
        stream pools), so two pools under one key whose roles draw
        differently never share a demand.  Returns the number of
        factors prefilled.
        """
        if self.released:
            raise PrecomputeError(
                f"lease {self.session_id!r} already released")
        key = (owner_digest[:16], bool(actor_is_owner)) + (
            (role,) if role else ())
        self.pools.append((key, pool))
        target = self.service.demand_for(key)
        shortfall = max(0, target - len(pool))
        if shortfall:
            self.service.fill(pool, shortfall)
            self.prefilled += shortfall
        return shortfall

    def hit_report(self) -> dict[str, int]:
        """Consumption totals over the lease's pools (hit = no miss)."""
        totals = combine_pool_reports(
            pool.report() for __, pool in self.pools)
        totals["prefilled"] = self.prefilled
        totals["background_refilled"] = self.background_refilled
        totals["hits"] = totals["consumed"] - totals["misses"]
        return totals


class RandomnessService:
    """Daemon-wide offline-phase broker: demand learning + idle refill.

    Lives on the daemon event loop (single-threaded by construction; no
    locks).  Two jobs:

    1. **Demand model.**  Keyed by ``(key digest[:16], actor-is-owner)``
       -- the two pool roles a keypair induces -- refined by the
       protocol role that draws from the pool when one is registered,
       the service remembers the peak factor consumption any released
       session reported.  A new
       session's pools are prefilled to that target at registration, so
       session N+1 starts warm from session N's experience even though
       their factor values come from disjoint per-session RNG streams.
    2. **Idle refill.**  :meth:`refill_idle` is a background coroutine
       that tops up registered pools toward their remaining need
       (learned demand minus factors already consumed) in small chunks
       between protocol work, yielding to the loop after every chunk
       and skipping leases that are mid-query.
    """

    def __init__(self, engine=None, *, refill_chunk: int = 8,
                 idle_interval_s: float = 0.02):
        if refill_chunk < 1:
            raise PrecomputeError(
                f"refill_chunk must be >= 1, got {refill_chunk}")
        self.engine = engine
        self.refill_chunk = refill_chunk
        self.idle_interval_s = idle_interval_s
        self._demand: dict[tuple, int] = {}
        self._leases: dict[str, RandomnessLease] = {}
        self.sessions_served = 0
        self.factors_prefilled = 0
        self.factors_background = 0
        # Lifetime consumption totals folded in at lease release -- the
        # single source for the daemon-wide pool hit rate.
        self.factors_consumed = 0
        self.factors_missed = 0
        self._closed = False

    # -- leases -------------------------------------------------------------

    def lease(self, session_id: str) -> RandomnessLease:
        if self._closed:
            raise PrecomputeError("randomness service is closed")
        if session_id in self._leases:
            raise PrecomputeError(
                f"session {session_id!r} already holds a lease")
        grant = RandomnessLease(self, session_id)
        self._leases[session_id] = grant
        return grant

    def release(self, session_id: str) -> dict[str, int]:
        """End a lease: learn its demand, return its hit accounting."""
        grant = self._leases.pop(session_id, None)
        if grant is None:
            raise PrecomputeError(f"no lease for session {session_id!r}")
        grant.released = True
        for key, pool in grant.pools:
            self._demand[key] = max(self._demand.get(key, 0), pool.consumed)
        self.sessions_served += 1
        self.factors_prefilled += grant.prefilled
        self.factors_background += grant.background_refilled
        report = grant.hit_report()
        self.factors_consumed += report["consumed"]
        self.factors_missed += report["misses"]
        return report

    def demand_for(self, key: tuple) -> int:
        return self._demand.get(key, 0)

    def fill(self, pool: RandomnessPool, count: int) -> None:
        """Refill through the engine when one is attached (sharded
        modexps), serially otherwise -- bit-identical either way."""
        if count <= 0:
            return
        if self.engine is not None:
            self.engine.fill_pool(pool, count)
        else:
            pool.refill(count)

    # -- background refill --------------------------------------------------

    def refill_step(self) -> int:
        """Top up at most one chunk across all idle leases; returns the
        number of factors generated (0 = every pool is at target).

        The target is the session's *remaining* need: the learned
        demand minus what the pool already handed out.  Topping up to
        the whole demand again would pregenerate factors the session
        never consumes (they are dropped at release).
        """
        for grant in list(self._leases.values()):
            if grant.busy or grant.released:
                continue
            for key, pool in grant.pools:
                shortfall = self.demand_for(key) - pool.consumed - len(pool)
                if shortfall <= 0:
                    continue
                count = min(self.refill_chunk, shortfall)
                self.fill(pool, count)
                grant.background_refilled += count
                return count
        return 0

    async def refill_idle(self) -> None:
        """Idle-time top-up loop; cancel to stop (daemon teardown)."""
        while not self._closed:
            generated = self.refill_step()
            # A productive step yields briefly so protocol coroutines
            # preempt it; a dry pass sleeps until there is plausible
            # new demand.
            await asyncio.sleep(0 if generated else self.idle_interval_s)

    # -- reporting / lifecycle ----------------------------------------------

    def report(self) -> dict[str, int]:
        return {
            "sessions_served": self.sessions_served,
            "active_leases": len(self._leases),
            "demand_entries": len(self._demand),
            "factors_prefilled": self.factors_prefilled,
            "factors_background": self.factors_background,
            "factors_consumed": self.factors_consumed,
            "factors_missed": self.factors_missed,
            "factors_hit": self.factors_consumed - self.factors_missed,
        }

    def close(self) -> None:
        self._closed = True
        self._leases.clear()
