import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.arith import (
    divisors_of,
    euler_phi,
    factor,
    is_prime,
    omega,
    parts,
    primes_upto,
    valuation,
)
from reference import numerator_of


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


def test_is_prime_agrees_with_factor_below_two_hundred_thousand():
    # factor's own cache is bypassed, so this leaves it as it was.
    by_factor = factor.__wrapped__
    wrong = [n for n in range(-3, 200_000) if is_prime(n) != (n > 1 and by_factor(n) == ((n, 1),))]
    assert wrong == []


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
        1000003 * 1000033,
        # above the strong test's bound, where a witness still proves compositeness
        43**16,
        (10**13 + 37) * (10**12 + 39),
    ],
)
def test_is_prime_rejects_composites_past_trial_division(n):
    assert not is_prime(n)


@pytest.mark.parametrize("p", [1847, 1861, 1000033, 2**31 - 1, 2**61 - 1, 10**18 + 3])
def test_is_prime_accepts_large_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("n", [3317044064679887385961981, 2**89 - 1])
def test_is_prime_refuses_a_pass_at_or_above_the_bound(n):
    # The bound itself passes the strong test to all 13 bases.
    with pytest.raises(ValueError, match=f"{n} is prime at or above 3317044064679887385961981"):
        is_prime(n)


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    fs, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            fs.append((p, e))
        p += 1
    return (*fs, (n, 1)) if n > 1 else tuple(fs)


@given(st.integers(min_value=1, max_value=10**6))
def test_factor_agrees_with_trial_division_below_a_million(n):
    assert factor.__wrapped__(n) == _trial_division(n)


def _prime_from(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


_NEAR_1E9 = st.integers(min_value=10**9, max_value=10**9 + 10**7).map(_prime_from)


@settings(max_examples=30, deadline=None)
@given(_NEAR_1E9, _NEAR_1E9)
def test_factor_splits_two_primes_near_a_billion(p, q):
    # Both primes lie above trial division's bound, so rho splits p q.
    expected = ((p, 2),) if p == q else tuple(sorted(((p, 1), (q, 1))))
    assert factor.__wrapped__(p * q) == expected


@pytest.mark.parametrize(
    "pairs",
    [
        ((10**18 + 3, 1),),
        ((65537, 2),),  # the first prime at trial division's bound
        ((1000000007, 2),),
        ((1000000007, 3),),
        ((3000017, 3),),
        ((70001, 1), (3000017, 2)),
        ((2, 2), (3, 1), (70001, 2), (3000017, 2), (1000000007, 1)),
        ((2**31 - 1, 1), (2**61 - 1, 1)),  # above the strong test's bound
    ],
)
def test_factor_splits_cofactors_above_trial_division(pairs):
    assert factor.__wrapped__(math.prod(p**e for p, e in pairs)) == pairs


def test_factor_refuses_a_prime_cofactor_at_or_above_the_strong_bound():
    with pytest.raises(ValueError, match="prime at or above"):
        factor.__wrapped__(6 * (2**89 - 1))


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
