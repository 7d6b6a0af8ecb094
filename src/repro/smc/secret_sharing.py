"""Additive two-party secret shares (the Section 5 representation).

After the enhanced protocol's distance-sharing phase, each squared
distance ``d_i`` exists only as the pair ``(u_i, v_i)`` with
``d_i = u_i - v_i``: the *driving* party (the paper's Alice during her
pass) holds all ``u_i``, the peer holds all ``v_i``.
:class:`SharedValues` groups the two sides and provides the derived
public intervals the selection protocol compares over, and the public
gaps that bound how far apart the two compared sides can be, keeping
the "who holds what" bookkeeping out of the selection logic.  The
intervals grow with the masks; the gaps depend on the hidden values
alone, because each comparison sets ``u`` against ``v`` and the masks
cancel in ``u_i - v_i = d_i``.  Field names follow the paper's
``u``/``v`` notation because either real party can play either role.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class SecretSharingError(ValueError):
    """Raised on mismatched share vectors."""


def share_additively(value: int, rng: random.Random,
                     mask_bound: int) -> tuple[int, int]:
    """Split ``value`` into ``(u, v)`` with ``u - v = value``.

    ``v`` is drawn uniformly from ``[0, mask_bound)``; the bound is the
    statistical-hiding parameter (the paper just says "a random number").
    """
    if mask_bound < 1:
        raise SecretSharingError(f"mask_bound must be >= 1, got {mask_bound}")
    v = rng.randrange(mask_bound)
    return value + v, v


@dataclass(frozen=True)
class SharedValues:
    """Vectors of additive shares: ``values[i] = u_values[i] - v_values[i]``.

    ``value_bound`` is the public bound on the hidden values (squared
    distances); ``mask_bound`` is the public bound the masks were drawn
    under.  Both are needed to size the comparison domains.
    """

    u_values: tuple[int, ...]
    v_values: tuple[int, ...]
    value_bound: int
    mask_bound: int

    def __post_init__(self):
        if len(self.u_values) != len(self.v_values):
            raise SecretSharingError(
                f"share vectors differ in length: {len(self.u_values)} "
                f"vs {len(self.v_values)}"
            )

    def __len__(self) -> int:
        return len(self.u_values)

    def reconstruct(self, index: int) -> int:
        """Open one share -- test/verification use only."""
        return self.u_values[index] - self.v_values[index]

    def difference_interval(self) -> tuple[int, int]:
        """Public interval containing ``u_i - u_j`` and ``v_i - v_j``.

        ``u_i = d_i + v_i`` with ``d_i`` in ``[0, value_bound]`` and
        ``v_i`` in ``[0, mask_bound)``, so pairwise differences of either
        side lie in ``[-(value_bound + mask_bound), value_bound + mask_bound]``.
        """
        spread = self.value_bound + self.mask_bound
        return -spread, spread

    def difference_gap(self) -> int:
        """Public bound on ``|(u_i - u_j) - (v_i - v_j)| = |d_i - d_j|``:
        ``value_bound``, whatever the masks."""
        return self.value_bound

    def threshold_interval(self, threshold: int) -> tuple[int, int]:
        """Public interval for the final ``u_i - threshold`` vs ``v_i`` test."""
        lo = min(-threshold, 0)
        hi = max(self.value_bound + self.mask_bound, self.mask_bound)
        return lo, hi

    def threshold_gap(self, threshold: int) -> int:
        """Public bound on ``|(u_i - threshold) - v_i| = |d_i - threshold|``
        with ``d_i`` in ``[0, value_bound]``."""
        return max(self.value_bound - threshold, threshold)
