"""Fixed-point quantization of real-valued points.

The secure protocols run on integers; this module is the single place
where real coordinates become grid integers, so plaintext references and
protocol runs share exactly the same geometry.  See
:class:`repro.crypto.encoding.FixedPointEncoder` for the scalar rules.
"""

from __future__ import annotations

from repro.crypto.encoding import FixedPointEncoder


def quantize_points(points, scale: int = 100) -> list[tuple[int, ...]]:
    """Quantize an iterable of real-coordinate points onto the grid."""
    encoder = FixedPointEncoder(scale)
    return [encoder.encode_point(point) for point in points]


def max_coordinate(points) -> int:
    """Largest absolute integer coordinate; sizes comparison domains."""
    return max((abs(c) for point in points for c in point), default=0)


def squared_distance_bound(points_a, points_b) -> int:
    """Public bound on any cross squared distance between the two sets.

    Derived from the max absolute coordinate of either set; every secure
    comparison domain in the protocols is sized from this.
    """
    bound = max(max_coordinate(points_a), max_coordinate(points_b))
    dims = 0
    for source in (points_a, points_b):
        for point in source:
            dims = len(point)
            break
        if dims:
            break
    per_axis = 2 * bound
    return max(1, dims * per_axis * per_axis)
