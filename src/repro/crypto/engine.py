"""Parallel modular-exponentiation engine (the PR-2 tentpole).

Every expensive Paillier operation -- randomness-pool refills
(``r^n mod n^2``), batch encryption, batch decryption -- and YMPP's RSA
sweep reduces to an *array of independent modexp jobs*
``(base, exponent, modulus)``.  :class:`ModexpEngine`
executes such arrays either serially (the default, bit-identical to the
seed-era inner loops) or sharded across a process pool, so offline
wall-clock scales with cores on multi-core hosts.  Job arrays are plain
integer tuples -- picklable, key-material-free bytes on the worker
boundary.

Design rules (see DESIGN.md, "Parallel modexp engine"):

- **Bit-identical results.** The engine never changes *what* is
  computed, only *where*: every high-level helper draws randomness from
  the caller's RNG in exactly the order the serial code path does, then
  ships the pure ``pow`` work to workers.  Engine-vs-serial equivalence
  is property-tested for pool fills, batch encryption and batch
  decryption.
- **Serial fallback.** ``workers <= 1``, batches below
  ``min_parallel_jobs``, or a pool that cannot be spawned (sandboxed
  hosts) all run the jobs in-process; the fallback is recorded in
  :meth:`report`, never raised.
- **Trust boundary.** Worker processes belong to the party that owns the
  engine call: refill jobs carry only public-key material
  ``(r, n, n^2)`` (an owner pool's serial path computes the same factors
  with the key's CRT kernel, but its worker jobs stay generic);
  CRT-split decryption jobs carry ``p``/``q``-derived moduli and are
  only ever issued by the private-key holder for its own ciphertexts --
  the same boundary as the in-process CRT decrypt.  Run in-process,
  those secret jobs bypass the powmod memo.

The DGK comparison (:mod:`repro.crypto.dgk`) issues no engine jobs: its
per-ciphertext work is a table lookup and a short power, below the
cost of shipping a job to a worker.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (paillier types)
    import random

    from repro.crypto.paillier import (
        PaillierCiphertext,
        PaillierPrivateKey,
        PaillierPublicKey,
    )
    from repro.crypto.precompute import RandomnessPool

ModexpJob = tuple  # (base, exponent, modulus)


class EngineError(ValueError):
    """Raised on invalid engine parameters or malformed job arrays."""


def _modexp_chunk(jobs: Sequence[ModexpJob]) -> list[int]:
    """Worker entry point: run one shard of jobs (top-level: picklable)."""
    return [pow(base, exponent, modulus) for base, exponent, modulus in jobs]


def _modexp_chunk_cached(jobs: Sequence[ModexpJob]) -> list[int]:
    """In-process variant of :func:`_modexp_chunk` behind the powmod memo.

    Worker processes keep the plain version (their memory is not shared,
    so a memo there only burns RAM); in-process execution of public jobs
    shares the :func:`~repro.crypto.integer_math.cached_pow` memo with
    the online paths, which is what lets a prefill of already-seen
    factors cost dict hits instead of exponentiations.
    """
    from repro.crypto.integer_math import cached_pow
    return [cached_pow(base, exponent, modulus)
            for base, exponent, modulus in jobs]


class ModexpEngine:
    """Executes arrays of modexp jobs, serially or across a process pool.

    Args:
        workers: process count.  ``None`` auto-sizes to the host's CPU
            count; ``0`` or ``1`` means serial execution (no pool is ever
            spawned).
        min_parallel_jobs: batches smaller than this run serially even
            when workers are available -- below it the fork/pickle
            round-trip costs more than the modexps.
        shards_per_worker: each parallel batch is split into
            ``workers * shards_per_worker`` chunks so an uneven job mix
            cannot leave workers idle behind one heavy shard.
    """

    def __init__(self, workers: int | None = None,
                 min_parallel_jobs: int = 32,
                 shards_per_worker: int = 2):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise EngineError(f"workers must be >= 0, got {workers}")
        if min_parallel_jobs < 1:
            raise EngineError(
                f"min_parallel_jobs must be >= 1, got {min_parallel_jobs}")
        if shards_per_worker < 1:
            raise EngineError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}")
        self.workers = max(1, workers)
        self.min_parallel_jobs = min_parallel_jobs
        self.shards_per_worker = shards_per_worker
        self._executor = None
        self._pool_broken = False
        # One engine is shared by every pairwise session of a mesh, and
        # concurrent passes call it from several threads: the lock keeps
        # the accounting counters exact and executor creation single.
        self._lock = threading.Lock()
        self.batches = 0
        self.jobs = 0
        self.parallel_batches = 0
        self.parallel_modexps = 0
        self.fallbacks = 0
        self.warmups = 0
        # Shard-utilization accounting: chunks actually dispatched vs
        # the slots a perfectly even split would fill.
        self.chunks = 0
        self.chunk_slots = 0

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self):
        with self._lock:
            if self._executor is not None:
                return self._executor
            if self._pool_broken:
                return None
            try:
                from concurrent.futures import ProcessPoolExecutor
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            except Exception:  # sandboxed host: no semaphores/fork allowed
                self._pool_broken = True
                return None
            return self._executor

    def warm_up(self) -> bool:
        """Spawn the worker pool now, outside any timed online phase.

        The first parallel batch otherwise pays process-pool startup
        (fork/spawn plus interpreter boot per worker) inside whatever
        the caller is measuring.  Submitting the warm-up chunks forces
        the executor to create every worker process (one is spawned per
        pending item up to ``workers``), and several small chunks per
        worker are used so the work spreads across workers as they come
        up rather than being drained by the first one to boot.  A
        still-booting worker on a spawn-start platform finishes its
        startup concurrently with (not inside) the caller's next timed
        region.  Serial engines (``workers <= 1``) and hosts that cannot
        spawn a pool return ``False`` and stay serial; the warm-up never
        changes what any later batch computes.
        """
        if self.workers <= 1:
            return False
        executor = self._ensure_executor()
        if executor is None:
            return False
        try:
            chunk = [(3, 65537, 2**61 - 1)] * 8  # cheap, not instant
            for _ in executor.map(_modexp_chunk,
                                  [chunk] * (4 * self.workers)):
                pass
        except Exception:  # pool died during spawn: degrade to serial
            self._pool_broken = True
            self._executor = None
            return False
        self.warmups += 1
        return True

    def close(self) -> None:
        """Shut the worker pool down; the engine then runs serially."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pool_broken = True

    def __enter__(self) -> "ModexpEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def report(self) -> dict[str, int | float]:
        """Execution accounting for benchmarks and the CLI summary.

        ``jobs`` counts *logical* items handed to the engine (one per
        plaintext/ciphertext/factor, including fully-pooled encryptions
        that execute zero modexps); ``parallel_modexps`` counts raw
        modexp jobs actually executed on workers (CRT decryption runs
        two per ciphertext), so the two are deliberately not comparable.
        """
        with self._lock:
            chunks, slots = self.chunks, self.chunk_slots
        return {
            "workers": self.workers,
            "batches": self.batches,
            "jobs": self.jobs,
            "parallel_batches": self.parallel_batches,
            "parallel_modexps": self.parallel_modexps,
            "fallbacks": self.fallbacks,
            "warmups": self.warmups,
            "chunks": chunks,
            "chunk_slots": slots,
            "chunk_utilization": (round(chunks / slots, 4)
                                  if slots else 0.0),
        }

    # -- core executor -----------------------------------------------------

    def _parallel_eligible(self, job_count: int) -> bool:
        """Whether a batch of this size would be sharded across workers."""
        return self.workers > 1 and job_count >= self.min_parallel_jobs

    def _count(self, job_count: int) -> None:
        """Uniform accounting: one batch, ``job_count`` logical jobs.

        Every public operation counts exactly once at entry -- including
        fully-pooled encrypt batches that end up executing zero modexps
        -- so ``report()`` means the same thing on every code path.
        """
        with self._lock:
            self.batches += 1
            self.jobs += max(job_count, 0)

    def modexp_batch(self, jobs: Iterable[ModexpJob]) -> list[int]:
        """``[pow(b, e, m) for (b, e, m) in jobs]``, possibly sharded.

        Memo-free: its caller, YMPP's step-3 sweep, passes the RSA
        private exponent.
        """
        jobs = list(jobs)
        self._count(len(jobs))
        return self._execute(jobs, memo=False)

    def _execute(self, jobs: list[ModexpJob], *,
                 memo: bool = True) -> list[int]:
        """Run jobs without accounting (callers counted at entry).

        ``memo=False`` marks jobs keyed by the factorization: run
        in-process they use plain ``pow``, so nothing secret-derived
        enters the process-wide memo.
        """
        local = _modexp_chunk_cached if memo else _modexp_chunk
        if not self._parallel_eligible(len(jobs)):
            return local(jobs)
        executor = self._ensure_executor()
        if executor is None:
            with self._lock:
                self.fallbacks += 1
            return local(jobs)
        shard_count = min(len(jobs), self.workers * self.shards_per_worker)
        step = (len(jobs) + shard_count - 1) // shard_count
        shards = [jobs[start:start + step]
                  for start in range(0, len(jobs), step)]
        try:
            results: list[int] = []
            for chunk in executor.map(_modexp_chunk, shards):
                results.extend(chunk)
        except Exception:  # a worker died mid-batch: degrade, stay correct
            with self._lock:
                self._pool_broken = True
                self._executor = None
                self.fallbacks += 1
            return local(jobs)
        with self._lock:
            self.parallel_batches += 1
            self.parallel_modexps += len(jobs)
            self.chunks += len(shards)
            self.chunk_slots += self.workers * self.shards_per_worker
        return results

    # -- high-level operations --------------------------------------------

    def fill_pool(self, pool: "RandomnessPool", count: int) -> None:
        """Offline pool refill: RNG draws stay in-process, modexps shard.

        Bit-identical to ``pool.refill(count)``: the randomness units are
        drawn from ``pool.rng`` in the same order, so the deposited
        factors are exactly the ones the serial refill would queue.
        Workers see only ``(r, n, n^2)`` -- public-key material.
        """
        self._count(count)
        if not self._parallel_eligible(count):
            pool.refill(count)
            return
        public = pool.public_key
        units = pool.draw_units(count)
        factors = self._execute(
            [(r, public.n, public.n_squared) for r in units])
        pool.deposit(factors)

    def encrypt_batch(self, public: "PaillierPublicKey",
                      plaintexts: Sequence[int], rng: "random.Random",
                      pool: "RandomnessPool | None" = None,
                      ) -> "list[PaillierCiphertext]":
        """Batch Paillier encryption with the ``r^n`` powmods sharded.

        Consumes pool factors and RNG draws in exactly the order of
        ``public.encrypt_batch`` (pop per plaintext, on-demand draw per
        miss), so the produced ciphertexts are bit-identical to the
        serial path under the same RNG state.
        """
        from repro.crypto.paillier import PaillierCiphertext, PaillierError

        if pool is not None and pool.public_key != public:
            raise PaillierError("randomness pool bound to a different key")
        plaintexts = list(plaintexts)
        self._count(len(plaintexts))
        if not self._parallel_eligible(len(plaintexts)):
            # Serial: run the seed-era per-item path verbatim.
            return public.encrypt_batch(plaintexts, rng, pool)
        factors = self._gather_factors(public, len(plaintexts), rng, pool)
        return [PaillierCiphertext(public,
                                   public.raw_encrypt_with_factor(m, factor))
                for m, factor in zip(plaintexts, factors)]

    def _gather_factors(self, public: "PaillierPublicKey", count: int,
                        rng: "random.Random",
                        pool: "RandomnessPool | None") -> list[int]:
        """``count`` randomness factors in the serial pop/miss draw order.

        The one copy of the subtle part shared by :meth:`encrypt_batch`
        and :meth:`encryption_factors` (no accounting -- callers count):
        each slot pops the pool first (counting consumption and misses
        exactly as ``pool.encryption_factor`` does), misses draw their
        randomness unit in slot order from the pool's RNG (or ``rng``
        when unpooled), and the miss powmods run as one sharded batch
        before being backfilled by position.  A pooled batch too small
        to shard computes its misses with the pool's own kernel (the
        CRT one for an owner pool).
        """
        factors: list[int | None] = []
        pending: list[tuple[int, int]] = []  # (position, randomness unit)
        for position in range(count):
            if pool is not None:
                factor = pool.try_factor()
                if factor is not None:
                    factors.append(factor)
                    continue
                pending.append((position, public.random_unit(pool.rng)))
            else:
                pending.append((position, public.random_unit(rng)))
            factors.append(None)
        if pending:
            if pool is not None and not self._parallel_eligible(len(pending)):
                computed = [pool.factor(r) for _, r in pending]
            else:
                computed = self._execute(
                    [(r, public.n, public.n_squared) for _, r in pending])
            for (position, _), factor in zip(pending, computed):
                factors[position] = factor
        return factors

    def encryption_factors(self, public: "PaillierPublicKey", count: int,
                           rng: "random.Random",
                           pool: "RandomnessPool | None" = None,
                           ) -> list[int]:
        """``count`` encryption/rerandomization factors, serial draw order.

        For masker-side loops that alternate encrypt and rerandomize
        per item (Section 5 share generation): every slot pops the pool
        first -- counting consumption and misses exactly as the
        per-item ``encrypt``/``rerandomize`` path does -- and the
        ``r^n mod n^2`` powmods of the misses run as one sharded batch.
        RNG draws happen in slot order, so the returned factors are
        bit-identical to the serial interleaved sequence under the same
        RNG state (property-tested in ``tests/crypto/test_engine.py``).
        """
        from repro.crypto.paillier import PaillierError

        if pool is not None and pool.public_key != public:
            raise PaillierError("randomness pool bound to a different key")
        self._count(count)
        return self._gather_factors(public, count, rng, pool)

    def decrypt_raw_batch(self, private: "PaillierPrivateKey",
                          ciphertext_values: Sequence[int]) -> list[int]:
        """Batch Paillier decryption, CRT-split into per-prime shards.

        Each ciphertext becomes two half-width jobs (mod ``p^2`` and
        ``q^2``) when the key carries CRT constants -- the per-worker
        split the key holder's own processes run -- or one full-width
        ``c^lambda mod n^2`` job otherwise.  Results are bit-identical
        to ``private.decrypt_raw_batch``.  A sealed (public-only) key
        raises :class:`~repro.crypto.sealed.PublicOnlyKeyError` before
        any job is built, whatever the worker count.
        """
        from repro.crypto.paillier import PaillierError, _paillier_l
        from repro.crypto.sealed import PublicOnlyKeyError, is_sealed

        if is_sealed(private):
            raise PublicOnlyKeyError(private.owner, "decrypt_raw_batch")
        values = list(ciphertext_values)
        self._count(len(values))
        public = private.public_key
        n_sq = public.n_squared
        for value in values:
            if not 0 <= value < n_sq:
                raise PaillierError("ciphertext outside Z_{n^2}")
        if not self._parallel_eligible(2 * len(values)):
            return private.decrypt_raw_batch(values)
        if private.hp is None or private.hq is None:
            powers = self._execute(
                [(value, private.lam, public.n_squared) for value in values],
                memo=False)
            return [(_paillier_l(u, public.n) * private.mu) % public.n
                    for u in powers]
        p, q, crt = private.p, private.q, private.crt
        jobs: list[ModexpJob] = []
        for value in values:
            jobs.append((value, p - 1, crt.p_squared))
            jobs.append((value, q - 1, crt.q_squared))
        powers = self._execute(jobs, memo=False)
        return [private.crt_plaintext(powers[2 * index],
                                      powers[2 * index + 1])
                for index in range(len(values))]


_SERIAL_ENGINE: ModexpEngine | None = None


def default_engine() -> ModexpEngine:
    """The shared serial engine protocol code falls back to.

    Serial by construction: a bare primitive call (no session, no
    configured engine) must behave exactly like the seed-era inner loop,
    with zero process overhead.
    """
    global _SERIAL_ENGINE
    if _SERIAL_ENGINE is None:
        _SERIAL_ENGINE = ModexpEngine(workers=1)
    return _SERIAL_ENGINE
