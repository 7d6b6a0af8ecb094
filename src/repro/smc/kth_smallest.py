"""Secure k-th order statistic over additively shared values (Section 5).

The driving party holds ``u_i``, the peer holds ``v_i``, the hidden
values are ``d_i = u_i - v_i``.  Whether ``d_i <= d_j`` reduces to a
secure comparison of ``u_i - u_j`` (driver) against ``v_i - v_j``
(peer) -- the paper's ``(v1 - v2) - (u1 - u2) > 0`` test -- so selection
needs nothing beyond the comparison backend.

The paper sketches two selection algorithms and we implement both:

- :func:`kth_smallest_scan` -- k passes of minimum finding, ``O(k*n)``
  comparisons, "appropriate when k is small";
- :func:`kth_smallest_quickselect` -- the "quick sorted based algorithm"
  with expected ``O(n)`` comparisons and worst case ``O(n^2)``.

Both run several selections at once -- one share vector and rank each,
e.g. every tested point of a pass -- and return the *index* of each
vector's k-th smallest element (1-based rank), known to the driving
party only.  The selections advance in lockstep: each step runs the
next comparison of every unfinished selection as one undeclared
:meth:`~repro.smc.comparison.SecureComparison.leq_batch`, which the
bitwise backend sends as one round-trip.  A selection's comparisons,
their order and their bits are those of a lone selection, so the
selections take as many steps as the longest of them has comparisons,
not the sum.  Experiment E8 benchmarks the two algorithms' comparison
counts against each other.
"""

from __future__ import annotations

import random
from collections.abc import Generator, Sequence

from repro.net.party import Party
from repro.smc.comparison import SecureComparison
from repro.smc.secret_sharing import SharedValues


class SelectionError(ValueError):
    """Raised for out-of-range ranks or mismatched selections."""


#: A selection yields the pairs ``(i, j)`` it needs ``d_i <= d_j`` for,
#: one at a time, is sent each answer, and returns its k-th index.
Selection = Generator[tuple[int, int], bool, int]


def _scan(size: int, k: int) -> Selection:
    """k rounds of minimum finding."""
    remaining = list(range(size))
    for _ in range(k):
        smallest = remaining[0]
        for candidate in remaining[1:]:
            if (yield candidate, smallest):
                smallest = candidate
        remaining.remove(smallest)
    return smallest


def _quickselect(size: int, k: int, rng: random.Random) -> Selection:
    """Randomized quickselect around pivots drawn from ``rng``."""
    candidates = list(range(size))
    rank = k
    while len(candidates) > 1:
        pivot = candidates[rng.randrange(len(candidates))]
        not_greater = []
        greater = []
        for index in candidates:
            if index == pivot:
                continue
            if (yield index, pivot):
                not_greater.append(index)
            else:
                greater.append(index)
        if rank <= len(not_greater):
            candidates = not_greater
        elif rank == len(not_greater) + 1:
            return pivot
        else:
            rank -= len(not_greater) + 1
            candidates = greater
    return candidates[0]


def _check_ranks(shares: Sequence[SharedValues],
                 ks: Sequence[int]) -> None:
    if len(shares) != len(ks):
        raise SelectionError(
            f"{len(shares)} share vectors but {len(ks)} ranks")
    for vector, k in zip(shares, ks):
        if not 1 <= k <= len(vector):
            raise SelectionError(f"rank k={k} outside [1, {len(vector)}]")
    if len({vector.difference_interval() for vector in shares}) > 1:
        raise SelectionError(
            "lockstep selections compare over one public interval")


def _run_lockstep(backend: SecureComparison, u_party: Party,
                  v_party: Party, shares: Sequence[SharedValues],
                  selections: list[Selection], label: str) -> list[int]:
    """Advance every selection one comparison per step until all end.

    ``d_i <= d_j  <=>  u_i - u_j <= v_i - v_j`` with the left side known
    to the u-holder and the right to the v-holder; the u-holder learns
    each bit.  Selections are batched in their given order.
    """
    results: list[int | None] = [None] * len(selections)
    requests: dict[int, tuple[int, int]] = {}

    def advance(position: int, answer: bool | None) -> None:
        try:
            requests[position] = selections[position].send(answer)
        except StopIteration as done:
            results[position] = done.value
            requests.pop(position, None)

    for position in range(len(selections)):
        advance(position, None)
    step = 0
    while requests:
        positions = sorted(requests)
        pairs = [(shares[p], *requests[p]) for p in positions]
        lo, hi = shares[positions[0]].difference_interval()
        outcomes = backend.leq_batch(
            u_party, [s.u_values[i] - s.u_values[j] for s, i, j in pairs],
            v_party, [s.v_values[i] - s.v_values[j] for s, i, j in pairs],
            lo=lo, hi=hi, reveal_to="a", label=f"{label}/step{step}")
        for position, outcome in zip(positions, outcomes):
            advance(position, outcome.result)
        step += 1
    return results


def kth_smallest_scan(backend: SecureComparison, u_party: Party,
                      v_party: Party, shares: Sequence[SharedValues],
                      ks: Sequence[int], *,
                      label: str = "kselect") -> list[int]:
    """k rounds of secure minimum finding per vector; ``O(k*n)``
    comparisons each, ``k(2n - k - 1)/2`` exactly.

    Returns, per share vector, the index of its ``ks``-th smallest
    hidden value; the u-holder learns these indices and the comparison
    bits along the way, the v-holder learns nothing.
    """
    _check_ranks(shares, ks)
    return _run_lockstep(
        backend, u_party, v_party, shares,
        [_scan(len(vector), k) for vector, k in zip(shares, ks)], label)


def kth_smallest_quickselect(backend: SecureComparison, u_party: Party,
                             v_party: Party, shares: Sequence[SharedValues],
                             ks: Sequence[int], *,
                             rng: random.Random | None = None,
                             label: str = "kselect") -> list[int]:
    """Randomized quickselect per vector; expected ``O(n)`` comparisons.

    Pivots are drawn from the u-holder's randomness (they drive the
    selection); partition comparisons reveal to them only pivot-relative
    order bits, the same class of disclosure as the scan variant.
    """
    _check_ranks(shares, ks)
    rng = rng if rng is not None else u_party.rng
    return _run_lockstep(
        backend, u_party, v_party, shares,
        [_quickselect(len(vector), k, rng)
         for vector, k in zip(shares, ks)], label)
