"""Seeded-jitter exponential backoff for retry loops.

The orchestrator waits ``base * 2**attempt`` (capped at
``max_delay_s``) between attempts, scaled by a jitter factor drawn from
a seeded stream (:func:`repro.net.transport.derive_seeded_stream`),
which keeps test runs deterministic while still decorrelating real
fleets.
"""

from __future__ import annotations

import random

from repro.net.transport import derive_seeded_stream

#: Default cap: no single retry sleep exceeds this many seconds.
DEFAULT_MAX_DELAY_S = 2.0

#: Jitter range: the exponential delay is scaled by a factor drawn
#: uniformly from [0.5, 1.0] -- "equal jitter", so a delay never drops
#: below half its nominal value (liveness) and never exceeds it
#: (boundedness).
_JITTER_FLOOR = 0.5


def jitter_rng(seed: int | None, *scope) -> random.Random:
    """A deterministic jitter stream for one named retry loop.

    ``scope`` parts (party name, pair key, purpose tag) keep distinct
    loops on distinct streams even under one seed.
    """
    return derive_seeded_stream(seed, "backoff", *scope)


def backoff_delay(base_s: float, attempt: int, rng: random.Random, *,
                  max_delay_s: float = DEFAULT_MAX_DELAY_S) -> float:
    """Delay before retry number ``attempt`` (0-based): capped
    exponential growth with seeded equal-jitter."""
    if base_s <= 0:
        return 0.0
    nominal = min(base_s * (2 ** attempt), max_delay_s)
    return nominal * (_JITTER_FLOOR + (1.0 - _JITTER_FLOOR) * rng.random())
