from math import gcd

import pytest
from hypothesis import given, strategies as st

from skewcyc.cyclic_arith import (
    divisors,
    euler_phi,
    factorize,
    largest_prime_divisor,
    mult_order,
    units,
)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        # Table values: automorphism counts of C_20 and C_42
        assert euler_phi(20) == 8
        assert euler_phi(42) == 12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_equals_unit_count_up_to_200(self):
        # phi(1) = 1 while units(1) = [] by convention
        assert euler_phi(1) == 1 and units(1) == []
        for n in range(2, 201):
            assert euler_phi(n) == len(units(n))


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_units():
    assert units(12) == [1, 5, 7, 11]
    assert units(7) == [1, 2, 3, 4, 5, 6]
    assert units(2) == [1]
    assert units(1) == []


class TestMultOrder:
    def test_examples(self):
        assert mult_order(1, 5) == 1
        assert mult_order(2, 3) == 2
        assert mult_order(2, 5) == 4

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            mult_order(2, 4)

    def test_minimality_up_to_200(self):
        for m in range(1, 201):
            for s in units(m):
                t = mult_order(s, m)
                assert pow(s, t, m) == 1 % m
                assert all(pow(s, e, m) != 1 % m for e in range(1, t))


def test_largest_prime_divisor():
    assert largest_prime_divisor(1) is None
    assert largest_prime_divisor(12) == 3
    assert largest_prime_divisor(42) == 7


@given(st.integers(1, 5000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n).items():
        assert all(p % q for q in range(2, p))  # p prime
        prod *= p**e
    assert prod == n
