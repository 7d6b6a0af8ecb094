"""Region queries (Eps-neighbourhoods) over integer-grid points.

All clustering layers operate on fixed-point integer coordinates (see
:mod:`repro.data.quantize`), so distance comparisons are exact integer
arithmetic -- the same arithmetic the secure protocols perform -- and a
plaintext run can be compared bit-for-bit against a protocol run.

Two implementations of the same interface:

- :class:`BruteForceIndex` -- O(n) per query, the reference.
- :class:`GridIndex` -- uniform-grid acceleration with identical,
  ascending hit lists (property-tested); the driving party's local
  index in centralized DBSCAN and the two-party protocols.
"""

from __future__ import annotations

from collections import defaultdict


def squared_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Exact integer squared Euclidean distance."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x - y) * (x - y) for x, y in zip(a, b))


class BruteForceIndex:
    """Linear-scan Eps-neighbourhood queries."""

    def __init__(self, points: list[tuple[int, ...]]):
        self.points = points

    def region_query(self, center: tuple[int, ...],
                     eps_squared: int) -> list[int]:
        """Indices of all points within distance^2 <= eps_squared.

        Matches the paper's ``regionQuery``: the query point itself is
        included when it belongs to the indexed set.
        """
        return [index for index, point in enumerate(self.points)
                if squared_distance(center, point) <= eps_squared]

    def __len__(self) -> int:
        return len(self.points)


class GridIndex:
    """Uniform-grid index; cell edge = eps so 3^d cells cover a query.

    Only correct for the ``eps_squared`` it was built for, which is the
    DBSCAN use case (one fixed radius for the whole run).
    """

    def __init__(self, points: list[tuple[int, ...]], eps_squared: int):
        if eps_squared < 0:
            raise ValueError(f"eps_squared must be >= 0, got {eps_squared}")
        self.points = points
        self.eps_squared = eps_squared
        # Cell edge of ceil(sqrt(eps_squared)) guarantees neighbours lie
        # in adjacent cells; +1 avoids a zero edge for eps < 1 grid step.
        self._edge = max(1, int(eps_squared ** 0.5) + 1)
        self._cells: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for index, point in enumerate(points):
            self._cells[self._cell_of(point)].append(index)

    def _cell_of(self, point: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(coordinate // self._edge for coordinate in point)

    def region_query(self, center: tuple[int, ...],
                     eps_squared: int) -> list[int]:
        if eps_squared != self.eps_squared:
            raise ValueError(
                f"index built for eps_squared={self.eps_squared}, "
                f"queried with {eps_squared}"
            )
        cell = self._cell_of(center)
        dimensions = len(cell)
        hits = []
        for offset in _neighbor_offsets(dimensions):
            neighbor_cell = tuple(c + o for c, o in zip(cell, offset))
            for index in self._cells.get(neighbor_cell, ()):
                if squared_distance(center, self.points[index]) <= eps_squared:
                    hits.append(index)
        return sorted(hits)

    def __len__(self) -> int:
        return len(self.points)


def _neighbor_offsets(dimensions: int) -> list[tuple[int, ...]]:
    """All offsets in {-1, 0, 1}^d."""
    offsets: list[tuple[int, ...]] = [()]
    for _ in range(dimensions):
        offsets = [prefix + (delta,) for prefix in offsets
                   for delta in (-1, 0, 1)]
    return offsets
