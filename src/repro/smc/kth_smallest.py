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
and yields them all as one
:class:`~repro.smc.comparison.ComparisonLane`.  A selection's
comparisons, their order and their bits are those of a lone selection,
so the selections take as many steps as the longest of them needs: its
comparison count for the scan, its partition levels for quickselect.
Experiment E8 benchmarks the two algorithms' comparison counts against
each other.

Lanes: :func:`kth_smallest_lane` makes one u-holder's selections a lane
-- a generator of one comparison lane per step -- and
:func:`run_lockstep` advances several lanes together, each step one
:meth:`~repro.smc.comparison.SecureComparison.leq_lanes` call holding
every unfinished lane's request, which the bitwise backend sends as one
round-trip.  The Section 5 protocol runs its two passes as two lanes,
in opposite directions, so they share every step's flights
(:mod:`repro.core.enhanced`); :func:`kth_smallest_scan` and
:func:`kth_smallest_quickselect` are one-lane runs.  Quickselect draws
its pivots from a stream forked from the u-holder's coins when the lane
is made (:func:`pivot_stream`), so its pairs depend neither on the
coins its comparisons draw nor on the other lanes of the run.

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
from repro.smc.comparison import ComparisonLane, SecureComparison
from repro.smc.secret_sharing import SharedValues


class SelectionError(ValueError):
    """Raised for out-of-range ranks or mismatched selections."""


#: A selection yields every pair ``(i, j)`` it can ask ``d_i <= d_j``
#: for at once, is sent their answers, and returns its k-th index.
Selection = Generator[list[tuple[int, int]], list[bool], int]

#: A lane of :func:`run_lockstep` yields one comparison lane per step, is
#: sent that lane's bits, and returns its result.
Lane = Generator[ComparisonLane, list[bool], object]


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


class _Lockstep:
    """Generators advanced together: each step answers every unfinished
    one's request, in position order, until all have returned."""

    def __init__(self, generators: Sequence[Generator]):
        self._generators = generators
        self.results: list = [None] * len(generators)
        self._requests: dict = {}
        for position in range(len(generators)):
            self._advance(position, None)

    def _advance(self, position: int, answer) -> None:
        try:
            self._requests[position] = self._generators[position].send(
                answer)
        except StopIteration as done:
            self.results[position] = done.value
            self._requests.pop(position, None)

    def pending(self) -> list[tuple[int, object]]:
        """``(position, request)`` of every unfinished generator."""
        return sorted(self._requests.items())

    def answer(self, answers: Sequence) -> None:
        """Send every unfinished generator its answer, in position order."""
        for position, answer in zip(sorted(self._requests), answers):
            self._advance(position, answer)


def pivot_stream(party: Party) -> random.Random:
    """A pivot stream forked from ``party``'s coins: one draw now, and
    the pivots never share a stream with the comparisons' coins."""
    return random.Random(party.rng.getrandbits(128))


def kth_smallest_lane(u_party: Party, v_party: Party,
                      shares: Sequence[SharedValues], ks: Sequence[int], *,
                      method: str = "scan",
                      pivots: random.Random | None = None,
                      label: str = "kselect") -> Lane:
    """Every share vector's ``ks``-th smallest as one lane of
    :func:`run_lockstep`; ``method`` is ``"scan"`` or ``"quickselect"``.

    Ranks are checked, and quickselect's pivot stream is forked from the
    u-holder's coins (unless ``pivots`` is given), when the lane is
    made, before it sends anything.  The lane returns, per share vector,
    the index of its ``ks``-th smallest hidden value.
    """
    _check_ranks(shares, ks)
    if method == "scan":
        selections = [_scan(len(vector), k) for vector, k in zip(shares, ks)]
    elif method == "quickselect":
        pivots = pivots if pivots is not None else pivot_stream(u_party)
        selections = [_quickselect(len(vector), k, pivots)
                      for vector, k in zip(shares, ks)]
    else:
        raise SelectionError(f"unknown selection method {method!r}")
    return _selection_lane(u_party, v_party, shares, selections, label)


def _selection_lane(u_party: Party, v_party: Party,
                    shares: Sequence[SharedValues],
                    selections: list[Selection], label: str) -> Lane:
    """Advance every selection one request per step until all end, each
    step one comparison lane.

    ``d_i <= d_j  <=>  u_i - u_j <= v_i - v_j`` with the left side known
    to the u-holder and the right to the v-holder; the u-holder learns
    each bit.  The two sides differ by ``d_i - d_j``, so every
    comparison declares the gap ``value_bound``.  Selections are batched
    in their given order, each request's pairs in its own order.
    """
    lockstep = _Lockstep(selections)
    step = 0
    while pending := lockstep.pending():
        pairs = [(shares[position], i, j) for position, request in pending
                 for i, j in request]
        lo, hi = pairs[0][0].difference_interval()
        bits = iter((yield ComparisonLane(
            u_party, [s.u_values[i] - s.u_values[j] for s, i, j in pairs],
            v_party, [s.v_values[i] - s.v_values[j] for s, i, j in pairs],
            lo=lo, hi=hi, gap=pairs[0][0].difference_gap(),
            label=f"{label}/step{step}")))
        lockstep.answer([[next(bits) for _ in request]
                         for _, request in pending])
        step += 1
    return lockstep.results


async def run_lockstep(backend: SecureComparison,
                       lanes: Sequence[Lane]) -> list:
    """Advance every lane one request per step until all end, and return
    each lane's result.

    Each step is one :meth:`~repro.smc.comparison.SecureComparison.leq_lanes`
    call holding every unfinished lane's request, in lane order, so the
    lanes of one step share its round trip -- and lanes in opposite
    directions its flights.
    """
    lockstep = _Lockstep(lanes)
    while pending := lockstep.pending():
        outcomes = await backend.leq_lanes(
            [request for _, request in pending])
        lockstep.answer([[outcome.result for outcome in lane]
                         for lane in outcomes])
    return lockstep.results


async def kth_smallest_scan(backend: SecureComparison, u_party: Party,
                            v_party: Party, shares: Sequence[SharedValues],
                            ks: Sequence[int], *,
                            label: str = "kselect") -> list[int]:
    """k rounds of secure minimum finding per vector; ``O(k*n)``
    comparisons each, ``k(2n - k - 1)/2`` exactly.

    Returns, per share vector, the index of its ``ks``-th smallest
    hidden value; the u-holder learns these indices and the comparison
    bits along the way, the v-holder learns nothing.  The one-lane run
    of :func:`kth_smallest_lane`.
    """
    [indices] = await run_lockstep(backend, [kth_smallest_lane(
        u_party, v_party, shares, ks, method="scan", label=label)])
    return indices


async def kth_smallest_quickselect(backend: SecureComparison,
                                   u_party: Party, v_party: Party,
                                   shares: Sequence[SharedValues],
                                   ks: Sequence[int], *,
                                   rng: random.Random | None = None,
                                   label: str = "kselect") -> list[int]:
    """Randomized quickselect per vector; expected ``O(n)`` comparisons.

    Pivots are drawn from ``rng``, by default a stream forked from the
    u-holder's randomness before the first comparison (they drive the
    selection; :func:`pivot_stream`); partition comparisons reveal to
    them only pivot-relative order bits, the same class of disclosure as
    the scan variant.  The one-lane run of :func:`kth_smallest_lane`.
    """
    [indices] = await run_lockstep(backend, [kth_smallest_lane(
        u_party, v_party, shares, ks, method="quickselect", pivots=rng,
        label=label)])
    return indices
