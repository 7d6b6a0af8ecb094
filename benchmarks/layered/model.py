"""Closed-form count model of the k-party horizontal protocol.

With k parties holding n_p points each (N in total) and T_p density
tests in party p's pass, every density test runs one batched region
query against each peer.  Q = (k - 1) * sum_p T_p region queries follow,
and each costs five messages and four rounds:

- querier -> peer: its encrypted point (cross terms);
- peer -> querier: the blinded cross sums;
- querier -> peer: the unblinded cross sums, then (same sender, no new
  round) the querier's encrypted DGK threshold bits;
- peer -> querier: the blinded DGK witnesses.

The public-key exchange adds two messages per pair, and one round per
pair, because the second pass over a pair starts with the sender of the
first pass's last message.  So, for every party holding at least one
point:

- messages = k(k-1) + 5Q
- rounds = k(k-1)/2 + 4Q
- comparisons = sum_p T_p (N - n_p)
- region queries = Q
- DGK bits = Q * w, where w is the DGK bit width of the comparison domain

When every point takes exactly one density test (T_p = n_p, which the
workloads' blob plans guarantee) this is Q = (k - 1)N and
comparisons = sum_p n_p (N - n_p).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class MeshCounts:
    """Exact per-session counts of one k-party horizontal session."""

    messages: int
    rounds: int
    comparisons: int
    region_queries: int
    dgk_bits: int


def _within(a, b, eps_squared: int) -> bool:
    return sum((x - y) ** 2 for x, y in zip(a, b)) <= eps_squared


def density_tests(own: list, others: list, eps_squared: int,
                  min_pts: int) -> int:
    """Density tests in one party's pass of Algorithms 3/4, in the clear.

    A test is one union neighbour count: one per point the outer loop
    reaches unclassified, and one per point popped from the expansion
    queue (a seed that was noise before is queued and tested again).
    """
    neighbours = [[j for j, other in enumerate(own)
                   if _within(point, other, eps_squared)] for point in own]
    core = [len(neighbours[i])
            + sum(_within(point, other, eps_squared) for other in others)
            >= min_pts for i, point in enumerate(own)]
    labels: list[str | None] = [None] * len(own)
    tests = 0
    for start in range(len(own)):
        if labels[start] is not None:
            continue
        tests += 1
        if not core[start]:
            labels[start] = "noise"
            continue
        for member in neighbours[start]:
            labels[member] = "cluster"
        queue = deque(m for m in neighbours[start] if m != start)
        while queue:
            current = queue.popleft()
            tests += 1
            if not core[current]:
                continue
            for member in neighbours[current]:
                if labels[member] is None:
                    queue.append(member)
                if labels[member] != "cluster":
                    labels[member] = "cluster"
    return tests


def dgk_bit_width(value_bound: int, eps_squared: int,
                  mask_sigma: int = 16) -> int:
    """Bit width of an HDP threshold comparison.

    The comparison interval is +/- (3B + eps^2 + 2(M + 1) + 1) for the
    public squared-distance bound B and the mask bound
    M = max(2, B) * 2^sigma; the DGK width covers the interval's length
    plus one.
    """
    mask_bound = max(2, value_bound) << mask_sigma
    spread = 3 * value_bound + eps_squared + 2 * (mask_bound + 1) + 1
    return max(1, (2 * spread + 1).bit_length())


def predict_mesh(points: dict[str, list], eps_squared: int, min_pts: int,
                 value_bound: int, mask_sigma: int = 16) -> MeshCounts:
    """The model's counts for one session over ``points`` (party order
    is the dict's)."""
    names = list(points)
    k = len(names)
    total = sum(len(points[name]) for name in names)
    tests = {
        name: density_tests(
            points[name],
            [p for other in names if other != name for p in points[other]],
            eps_squared, min_pts)
        for name in names}
    queries = (k - 1) * sum(tests.values())
    return MeshCounts(
        messages=k * (k - 1) + 5 * queries,
        rounds=k * (k - 1) // 2 + 4 * queries,
        comparisons=sum(tests[name] * (total - len(points[name]))
                        for name in names),
        region_queries=queries,
        dgk_bits=queries * dgk_bit_width(value_bound, eps_squared,
                                         mask_sigma),
    )
