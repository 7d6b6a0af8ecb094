"""Communication complexity models (Sections 4.2.2, 4.3.2, 5.1).

The paper states per-protocol bit costs:

- Horizontal (Sec 4.2.2):  ``O(c1*m*l*(n-l) + c2*n0*l*(n-l))``
- Vertical   (Sec 4.3.2):  ``O(c2*n0*n^2)``
- Enhanced   (Sec 5.1):    ``O(c1*m*l*(n-l) + c2*n0*l*(n-l))`` (same
  order as the base horizontal protocol)

where ``c1`` is the bits per attribute value transfer, ``c2`` the bits
per YMPP number, ``n0`` the YMPP domain, ``l`` the records one party
holds, ``m`` the attribute count.  These functions evaluate the formulas
and provide least-squares helpers for fitting measured channel bytes
against the predicted work terms (experiments E2-E4, E9, E10).
"""

from __future__ import annotations

from dataclasses import dataclass


def horizontal_predicted_bits(n: int, l: int, m: int, c1: int, c2: int,
                              n0: int) -> int:
    """Section 4.2.2 formula, literally."""
    return c1 * m * l * (n - l) + c2 * n0 * l * (n - l)


def vertical_work_term(n: int) -> int:
    """Vertical cost driver: one comparison per ordered record pair."""
    return n * (n - 1)


def vertical_predicted_bits(n: int, c2: int, n0: int) -> int:
    """Section 4.3.2 formula, literally (``O(c2*n0*n^2)``)."""
    return c2 * n0 * n * n


def enhanced_predicted_bits(n: int, l: int, m: int, c1: int, c2: int,
                            n0: int) -> int:
    """Section 5.1 formula -- same order as the base horizontal cost."""
    return c1 * m * l * (n - l) + c2 * n0 * l * (n - l)


def ympp_predicted_bits(n0: int, c2: int) -> int:
    """Per-execution YMPP transfer: ``n0 + 2`` numbers of ``c2`` bits
    (the shifted ciphertext out, the prime and sequence back)."""
    return c2 * (n0 + 2)


@dataclass(frozen=True)
class OriginFit:
    """Least-squares fit ``y ~ a*x`` with goodness of fit."""

    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.coefficient * x


def fit_through_origin(xs: list[float], ys: list[float]) -> OriginFit:
    """Fit ``y = a*x`` by least squares; R^2 against the through-origin
    model.

    The complexity claims are proportionality statements, so the fit is
    constrained through the origin: a high R^2 means the measured bytes
    scale as the predicted work term.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two observations to fit")
    sum_xy = sum(x * y for x, y in zip(xs, ys))
    sum_xx = sum(x * x for x in xs)
    if sum_xx == 0:
        raise ValueError("all work terms are zero; nothing to fit")
    coefficient = sum_xy / sum_xx
    mean_y = sum(ys) / len(ys)
    total = sum((y - mean_y) ** 2 for y in ys)
    residual = sum((y - coefficient * x) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return OriginFit(coefficient=coefficient, r_squared=r_squared)
