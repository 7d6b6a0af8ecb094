"""Offline precomputation for Paillier: randomness pools and fixed bases.

Every Paillier encryption pays one full-width modular exponentiation
``r^n mod n^2`` for the randomness factor, and every rerandomization
pays the same again -- by far the dominant online cost of the DBSCAN
protocols (the plaintext part ``g^m`` is a single mulmod for the
standard ``g = n + 1`` choice).  Both factors depend only on the public
key, never on the plaintext, so they can be generated *before* the
protocol runs.  This module supplies the two precomputation tools:

- :class:`RandomnessPool` -- a per-(actor, public-key) queue of
  pregenerated factors ``r^n mod n^2``.  With a filled pool, online
  ``encrypt`` and ``rerandomize`` each collapse to one mulmod; an empty
  pool falls back to on-demand generation (identical results, seed-era
  cost), so pools never change correctness -- only where the modexp time
  is spent.  This is the standard offline/online split of the MPC
  literature.
- :class:`FixedBaseExp` -- windowed fixed-base exponentiation for the
  ``g^m`` term when a keypair uses the paper's literal "random g"
  (``random_g=True``) instead of ``n + 1``: one table per ``(g, n^2)``
  turns each encryption's ``g^m`` into ``~bits/window`` mulmods.

Owner pools: a pool whose actor owns the key (the HDP querier's
uploads, the Section 5 receiver's vector) is built with that private
key and computes each factor with
:meth:`~repro.crypto.paillier.PaillierPrivateKey.nth_power` -- CRT over
``p^2`` and ``q^2``, the same factor at about half the cost.  Every
other pool, and every factor shipped to engine workers, uses the
generic ``r^n mod n^2`` on public-key material.

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

from repro.crypto.integer_math import cached_pow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (paillier types)
    from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey


class PrecomputeError(ValueError):
    """Raised on invalid pool or table parameters."""


class RandomnessPool:
    """Pregenerated Paillier encryption factors ``r^n mod n^2``.

    A pool belongs to one *actor* (whose private RNG ``rng`` supplies
    every ``r``) and one *public key* (under which the actor encrypts or
    rerandomizes).  Encryption factors and rerandomization units are the
    same algebraic object -- a random ``r^n mod n^2``, i.e. a fresh
    encryption of zero -- so one queue serves both uses; the two named
    accessors exist for call-site clarity.

    ``private_key`` is given only when the actor owns the key (an owner
    pool, see the module docstring); it changes how each factor is
    computed, never which factor.

    Accounting attributes (read by benchmarks and tests):

    - ``pregenerated``: factors produced by :meth:`refill` (offline).
    - ``consumed``: factors handed out in total.
    - ``misses``: factors generated on demand because the queue was
      empty (online cost identical to the unpooled path).
    """

    __slots__ = ("public_key", "rng", "private_key", "_factors",
                 "pregenerated", "consumed", "misses")

    def __init__(self, public_key: "PaillierPublicKey", rng: random.Random,
                 private_key: "PaillierPrivateKey | None" = None):
        if private_key is not None and private_key.public_key != public_key:
            raise PrecomputeError("private key does not match the pool's key")
        self.public_key = public_key
        self.rng = rng
        self.private_key = private_key
        self._factors: deque[int] = deque()
        self.pregenerated = 0
        self.consumed = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._factors)

    def factor(self, r: int) -> int:
        """``r^n mod n^2`` for the unit ``r``: the owner's CRT kernel when
        the pool holds the private key, the memoized powmod otherwise."""
        if self.private_key is not None:
            return self.private_key.nth_power(r)
        public = self.public_key
        return cached_pow(r, public.n, public.n_squared)

    def _fresh_factor(self) -> int:
        return self.factor(self.public_key.random_unit(self.rng))

    def draw_units(self, count: int) -> list[int]:
        """Draw ``count`` randomness units from the actor's RNG, in order.

        The RNG half of :meth:`refill`, split out so a
        :class:`~repro.crypto.engine.ModexpEngine` can keep the private
        randomness draws in-process while sharding the ``r^n`` powmods
        across workers.  Consuming the same RNG in the same order keeps
        engine fills bit-identical to serial fills.
        """
        if count < 0:
            raise PrecomputeError(f"cannot draw {count} units")
        return [self.public_key.random_unit(self.rng) for _ in range(count)]

    def deposit(self, factors: list[int]) -> None:
        """Queue externally computed factors (the modexp half of refill)."""
        self._factors.extend(factors)
        self.pregenerated += len(factors)

    def refill(self, count: int) -> None:
        """Offline phase: pregenerate ``count`` factors."""
        self.deposit([self.factor(r) for r in self.draw_units(count)])

    def try_factor(self) -> int | None:
        """Pop one factor if available; ``None`` (and a counted miss)
        when the queue is empty, letting batched callers collect their
        misses and generate them in one sharded modexp batch."""
        self.consumed += 1
        if self._factors:
            return self._factors.popleft()
        self.misses += 1
        return None

    def encryption_factor(self) -> int:
        """Pop one factor; falls back to on-demand generation when empty."""
        factor = self.try_factor()
        return self._fresh_factor() if factor is None else factor

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
    squarings.  Worth building once per ``(g, n^2)`` pair when the
    Paillier key uses a random ``g`` (the ``n + 1`` default never needs
    a table -- its ``g^m`` is already a single mulmod).
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
    locks).  Three jobs:

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
    3. **Fixed-base tables.**  :class:`FixedBaseExp` tables depend only
       on the public key, so they are cached per key digest and shared
       across every session under that keypair (``random_g`` keys
       only; the ``n + 1`` default never builds one).
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
        self._tables: dict[tuple[str, int, int], FixedBaseExp] = {}
        self.sessions_served = 0
        self.factors_prefilled = 0
        self.factors_background = 0
        # Lifetime consumption totals folded in at lease release -- the
        # single source for the daemon-wide pool hit rate.
        self.factors_consumed = 0
        self.factors_missed = 0
        self.table_builds = 0
        self.table_hits = 0
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

    # -- fixed-base tables --------------------------------------------------

    def fixed_base_table(self, base: int, modulus: int, max_bits: int,
                         key_digest: str, *, window: int = 4) -> FixedBaseExp:
        """Shared ``g^m`` table for one keypair, built at most once."""
        cache_key = (key_digest[:16], max_bits, window)
        table = self._tables.get(cache_key)
        if table is None:
            table = FixedBaseExp(base, modulus, max_bits, window=window)
            self._tables[cache_key] = table
            self.table_builds += 1
        else:
            self.table_hits += 1
        return table

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
            "table_builds": self.table_builds,
            "table_hits": self.table_hits,
        }

    def close(self) -> None:
        self._closed = True
        self._leases.clear()
        self._tables.clear()
