import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspidal.arith import (
    divisors_of,
    euler_phi,
    factor,
    is_prime,
    numerator_of,
    omega,
    parts,
    primes_upto,
    valuation,
)


def test_factor_examples():
    assert factor(1) == ()
    assert factor(12) == ((2, 2), (3, 1))
    assert factor(289) == ((17, 2),)


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-6)


def test_parts_examples():
    assert parts(12) == (3, 2, 6)
    assert parts(72) == (1, 6, 6)
    assert parts(11) == (11, 1, 11)
    assert parts(1) == (1, 1, 1)


def test_basic_functions():
    assert euler_phi(12) == 4
    assert omega(30) == 3
    assert divisors_of(12) == (1, 2, 3, 4, 6, 12)
    assert valuation(48, 2) == 4
    assert valuation(48, 5) == 0
    assert numerator_of(Fraction(10, 12)) == 5
    assert numerator_of(Fraction(-10, 12)) == 5
    assert numerator_of(3) == 3


@pytest.mark.parametrize("n, p", [(0, 2), (-4, 2), (12, 1), (12, 0), (12, -3)])
def test_valuation_rejects_bad_arguments(n, p):
    # at p = 1 every n % p is 0, so an unguarded loop never ends
    with pytest.raises(ValueError):
        valuation(n, p)


def test_primes_upto():
    assert primes_upto(13) == (2, 3, 5, 7, 11, 13)
    assert primes_upto(1) == ()
    assert all(is_prime(p) for p in primes_upto(200))
    assert not is_prime(1) and not is_prime(289)


@given(st.integers(min_value=1, max_value=10_000))
def test_phi_sums_to_n(n):
    assert sum(euler_phi(d) for d in divisors_of(n)) == n


@given(st.integers(min_value=1, max_value=100_000))
def test_factor_multiplies_back(n):
    pairs = factor(n)
    primes = [p for p, _ in pairs]
    assert math.prod(p**e for p, e in pairs) == n
    assert all(e >= 1 for _, e in pairs)
    assert primes == sorted(set(primes))
    assert all(is_prime(p) for p in primes)


@given(st.integers(min_value=1, max_value=100_000))
def test_parts_split(n):
    sf, sq, rad = parts(n)
    assert rad == sf * sq
    assert n % (sf * sq) == 0
    assert rad == math.prod(p for p, _ in factor(n))


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
def test_rational_arithmetic_exact(a, b):
    r = Fraction(a, b)
    assert r.denominator > 0
    assert math.gcd(r.numerator, r.denominator) == 1
    if a != 0:
        assert r * Fraction(b, a) == 1
