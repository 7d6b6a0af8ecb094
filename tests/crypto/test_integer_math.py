"""Unit and property tests for modular arithmetic primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.crypto.integer_math import (
    crt_pair,
    egcd,
    lcm,
    mod_inverse,
)


class TestEgcd:
    def test_coprime_pair(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_zero_operand(self):
        g, x, y = egcd(0, 7)
        assert g == 7
        assert 0 * x + 7 * y == 7

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestModInverse:
    def test_small_case(self):
        assert mod_inverse(3, 7) == 5

    def test_identity(self):
        assert mod_inverse(1, 97) == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ValueError, match="no inverse"):
            mod_inverse(6, 9)

    def test_nonpositive_modulus_raises(self):
        with pytest.raises(ValueError, match="positive"):
            mod_inverse(3, 0)

    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=2, max_value=10**9))
    def test_inverse_property(self, a, modulus):
        if math.gcd(a, modulus) != 1:
            with pytest.raises(ValueError):
                mod_inverse(a, modulus)
        else:
            inverse = mod_inverse(a, modulus)
            assert (a * inverse) % modulus == 1
            assert 0 <= inverse < modulus


class TestLcm:
    def test_basic(self):
        assert lcm(4, 6) == 12

    def test_zero(self):
        assert lcm(0, 5) == 0

    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=10**6))
    def test_divisibility(self, a, b):
        result = lcm(a, b)
        assert result % a == 0
        assert result % b == 0
        assert result <= a * b


class TestCrtPair:
    def test_small_case(self):
        # x = 2 mod 3, x = 3 mod 5  ->  x = 8 mod 15
        assert crt_pair(2, 3, 3, 5) == 8

    def test_non_coprime_raises(self):
        with pytest.raises(ValueError, match="coprime"):
            crt_pair(1, 4, 3, 6)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_roundtrip(self, x):
        p, q = 10007, 10009
        value = x % (p * q)
        assert crt_pair(value % p, p, value % q, q) == value
