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
party only.  The selections advance in lockstep: each step asks every
unfinished selection for every comparison it can ask at once -- the
scan's next one, quickselect's whole partition against its pivot --
and runs them all as one
:meth:`~repro.smc.comparison.SecureComparison.leq_batch`, which the
bitwise backend sends as one round-trip.  A selection's comparisons,
their order and their bits are those of a lone selection, so the
selections take as many steps as the longest of them needs: its
comparison count for the scan, its partition levels for quickselect.
Experiment E8 benchmarks the two algorithms' comparison counts against
each other.

Every comparison declares the public gap ``value_bound``: the two sides
differ by ``d_i - d_j``, whatever the masks, so the bitwise backend
compares on ``bits(value_bound) + 1`` positions instead of the masked
interval's.

The pair sequence depends on the order bits, which only the u-holder
learns, and the v-holder needs each pair to form ``v_i - v_j``.  In
process both roles run in one place; a two-process run would have to
tell the v-holder every pair, and so every order bit (DESIGN.md,
"Lockstep core tests (Section 5)", "What the peer sees").
"""

from __future__ import annotations

import random
from collections.abc import Generator, Sequence

from repro.net.party import Party
from repro.smc.comparison import SecureComparison
from repro.smc.secret_sharing import SharedValues


class SelectionError(ValueError):
    """Raised for out-of-range ranks or mismatched selections."""


#: A selection yields every pair ``(i, j)`` it can ask ``d_i <= d_j``
#: for at once, is sent their answers, and returns its k-th index.
Selection = Generator[list[tuple[int, int]], list[bool], int]


def _scan(size: int, k: int) -> Selection:
    """k rounds of minimum finding, one comparison at a time."""
    remaining = list(range(size))
    for _ in range(k):
        smallest = remaining[0]
        for candidate in remaining[1:]:
            [smaller] = yield [(candidate, smallest)]
            if smaller:
                smallest = candidate
        remaining.remove(smallest)
    return smallest


def _quickselect(size: int, k: int, rng: random.Random) -> Selection:
    """Randomized quickselect around pivots drawn from ``rng``, one
    whole partition at a time."""
    candidates = list(range(size))
    rank = k
    while len(candidates) > 1:
        pivot = candidates[rng.randrange(len(candidates))]
        others = [index for index in candidates if index != pivot]
        answers = yield [(index, pivot) for index in others]
        not_greater = [i for i, leq in zip(others, answers) if leq]
        greater = [i for i, leq in zip(others, answers) if not leq]
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
    if len({(vector.difference_interval(), vector.difference_gap())
            for vector in shares}) > 1:
        raise SelectionError(
            "lockstep selections compare over one public interval and gap")


def _run_lockstep(backend: SecureComparison, u_party: Party,
                  v_party: Party, shares: Sequence[SharedValues],
                  selections: list[Selection], label: str) -> list[int]:
    """Advance every selection one request per step until all end.

    ``d_i <= d_j  <=>  u_i - u_j <= v_i - v_j`` with the left side known
    to the u-holder and the right to the v-holder; the u-holder learns
    each bit.  The two sides differ by ``d_i - d_j``, so every
    comparison declares the gap ``value_bound``.  Selections are batched
    in their given order, each request's pairs in its own order.
    """
    results: list[int | None] = [None] * len(selections)
    requests: dict[int, list[tuple[int, int]]] = {}

    def advance(position: int, answers: list[bool] | None) -> None:
        try:
            requests[position] = selections[position].send(answers)
        except StopIteration as done:
            results[position] = done.value
            requests.pop(position, None)

    for position in range(len(selections)):
        advance(position, None)
    step = 0
    while requests:
        positions = sorted(requests)
        pairs = [(shares[p], i, j) for p in positions
                 for i, j in requests[p]]
        lo, hi = shares[positions[0]].difference_interval()
        outcomes = backend.leq_batch(
            u_party, [s.u_values[i] - s.u_values[j] for s, i, j in pairs],
            v_party, [s.v_values[i] - s.v_values[j] for s, i, j in pairs],
            lo=lo, hi=hi, reveal_to="a",
            gap=shares[positions[0]].difference_gap(),
            label=f"{label}/step{step}")
        answers = iter(outcome.result for outcome in outcomes)
        for position in positions:
            advance(position, [next(answers)
                               for _ in range(len(requests[position]))])
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
