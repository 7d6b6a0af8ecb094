"""Fixed-base exponentiation: the tables behind Paillier and DGK factors.

Every Paillier encryption pays one randomness factor, and every
rerandomization pays the same again: in the fixed-base variant of
Damgard, Jurik and Nielsen (:mod:`repro.crypto.paillier`) a factor is
``h_s^r mod n^2`` from a fixed-base table of the key, at most
``ceil((k + 128) / 6)`` mulmods for a ``k``-bit ``n``.  The plaintext
part ``g^m`` is a single mulmod for the standard ``g = n + 1`` choice.

:class:`FixedBaseExp` is that table: windowed fixed-base
exponentiation, built once per key for ``h_s``, for DGK's ``h^r``, and
for the ``g^m`` term when a keypair uses the paper's literal "random g"
(``random_g=True``) instead of ``n + 1``.  A table holds public values
only.  Each factor is drawn online from the acting party's RNG
(:meth:`~repro.crypto.paillier.PaillierPublicKey.fresh_factor`).
"""

from __future__ import annotations


class PrecomputeError(ValueError):
    """Raised on invalid table parameters."""


class FixedBaseExp:
    """Windowed fixed-base modular exponentiation.

    Precomputes ``base^(j * 2^(i*window))`` for every window position
    ``i`` and digit ``j``, so any ``base^e`` with ``e < 2^max_bits``
    costs at most ``ceil(max_bits / window) - 1`` multiplications and no
    squarings.  Built once per key for the Paillier factor base ``h_s``
    and DGK's ``h``, and per ``(g, n^2)`` pair when the Paillier key
    uses a random ``g`` (the ``n + 1`` default never needs a ``g^m``
    table -- its ``g^m`` is already a single mulmod).
    """

    __slots__ = ("modulus", "window", "max_bits", "_table", "_limit")

    def __init__(self, base: int, modulus: int, max_bits: int,
                 window: int = 4):
        if modulus < 2:
            raise PrecomputeError(f"modulus must be >= 2, got {modulus}")
        if max_bits < 1:
            raise PrecomputeError(f"max_bits must be >= 1, got {max_bits}")
        if window < 1:
            raise PrecomputeError(f"window must be >= 1, got {window}")
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        digits = 1 << window
        block = base % modulus
        table: list[tuple[int, ...]] = []
        for _ in range((max_bits + window - 1) // window):
            row = [1]
            for _ in range(digits - 1):
                row.append((row[-1] * block) % modulus)
            table.append(tuple(row))
            # Advance the block base to base^(2^((i+1)*window)).
            block = (row[-1] * block) % modulus
        self._table = tuple(table)
        self._limit = 1 << max_bits

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` via table lookups."""
        if not 0 <= exponent < self._limit:
            raise PrecomputeError(
                f"exponent {exponent} outside [0, 2^{self.max_bits})")
        modulus = self.modulus
        result = 1
        if self.window == 8:
            # Window-8 digits are the exponent's bytes, least significant
            # first: one row per byte.
            for row, digit in zip(self._table, exponent.to_bytes(
                    len(self._table), "little")):
                if digit:
                    result = result * row[digit] % modulus
            return result
        mask = (1 << self.window) - 1
        position = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = (result * self._table[position][digit]) % modulus
            exponent >>= self.window
            position += 1
        return result

