"""Differential tests of the per-prime local factors against a case split.

The series, the residues, the closed exponent vector, the exponent scale,
the datum's divisor and its class order are products over q^r || N of one
local factor chosen by epsilon(datum, q).  The references below classify
each prime by a five-way split on (r == 1, q | M, q | D) instead, build the
divisor by a closed sum and a pullback recursion, or run the whole-level
class-order engine on the built divisor, and must agree exactly on random
data that cover every eigenvalue at r = 1 and at r >= 2, high prime powers,
and a base prime in M and in L.
"""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspidal.arith import divisors_of, factor, parts, prime_divisors, primes_upto, valuation
from cuspidal.classifier import index_n
from cuspidal.classlattice import (
    _datum_sums,
    _exponent_data,
    _local_exponents,
    apply_lambda_inverse,
    class_order,
    r_vector,
)
from cuspidal.cusps import RationalCuspDivisor, alpha_pullback
from cuspidal.eisq import QExpansion, _local_residues, base_epp, build_qexp, residue_table
from cuspidal.heckediv import EisensteinDatum, _local_divisor, build_c_divisor, epsilon
from reference import recursive_c_divisor

PRIMES = (2, 3, 5, 7, 11, 13)


def _dilate(coeffs, m):
    return tuple(coeffs[k // m] if k % m == 0 else Fraction(0) for k in range(len(coeffs)))


def _split_build_qexp(datum, prec):
    """Reference: the series through the five-way case split per prime."""
    n, m, dp = datum.n, datum.m, datum.d_part
    base = min(prime_divisors(m * datum.l_part))
    coeffs = base_epp(base, prec).coeffs
    if valuation(n, base) >= 2 and m % base:
        coeffs = tuple(a - b for a, b in zip(coeffs, _dilate(coeffs, base)))
    for q, r in factor(n):
        if q == base:
            continue
        dil = _dilate(coeffs, q)
        if r == 1 and m % q == 0:
            coeffs = tuple(a - q * b for a, b in zip(coeffs, dil))
        elif r == 1:
            coeffs = tuple(a - b for a, b in zip(coeffs, dil))
        elif dp % q:
            dil2 = _dilate(coeffs, q * q)
            coeffs = tuple(a - (q + 1) * b + q * c for a, b, c in zip(coeffs, dil, dil2))
        elif m % q == 0:
            coeffs = tuple(a - q * b for a, b in zip(coeffs, dil))
        else:
            coeffs = tuple(a - b for a, b in zip(coeffs, dil))
    return QExpansion(n, prec, coeffs)


def _split_residue_table(datum):
    """Reference: the residues through the five-way case split per prime."""
    n, m, dp = datum.n, datum.m, datum.d_part
    table = {1: Fraction(1)}
    for q, r in factor(n):
        new = {}
        for d, prev in table.items():
            if r == 1 and m % q == 0:
                new[d] = (q - 1) * prev
                new[q * d] = (1 - q) * prev
            elif r == 1:
                new[d] = Fraction(q * q - 1, q) * prev
                new[q * d] = Fraction(0)
            elif dp % q:
                new[d] = q ** (r - 2) * Fraction((q * q - 1) * (q - 1), q) * prev
                new[q * d] = q ** (r - 2) * Fraction(1 - q * q, q) * prev
                for a in range(2, r + 1):
                    new[q**a * d] = Fraction(0)
            elif m % q == 0:
                new[d] = q ** (r - 1) * (q - 1) * prev
                new[q * d] = q ** (r - 2) * (1 - q) * prev
                for a in range(2, r + 1):
                    new[q**a * d] = q ** max(r - 2 * a, 0) * (1 - q) * prev
            else:
                new[d] = q ** (r - 2) * (q * q - 1) * prev
                for a in range(1, r + 1):
                    new[q**a * d] = Fraction(0)
        table = new
    return tuple(sorted((d, Fraction(v)) for d, v in table.items()))


def _split_exponent_data(datum):
    """Reference: 1/24 * prod(p-1, p|M) * prod(p^2-1, p|rad/M) * (N/rad) / prod(p|L),
    with the primes of M taken out of N/rad."""
    n, m = datum.n, datum.m
    _, _, rad = parts(n)
    val = Fraction(1, 24) * (n // rad)
    for p in prime_divisors(m):
        val *= Fraction(p - 1, p ** (valuation(n, p) - 1))
    for p in prime_divisors(rad // m):
        val *= p * p - 1
    for p in prime_divisors(datum.l_part):
        val /= p
    return val


def _split_closed_r_vector(datum):
    """Reference: the closed exponent entries, one prime family at a time."""
    n, m, dp = datum.n, datum.m, datum.d_part
    sf, sq, _ = parts(n)
    scale = _split_exponent_data(datum)
    closed = []
    for delta in divisors_of(n):
        val = 1
        for p in prime_divisors(m):
            val *= (1, -1, 0)[min(valuation(delta, p), 2)]
        for p in prime_divisors(sf * dp // m):
            e = valuation(delta, p)
            val *= p if e == 0 else (-1 if e == 1 else 0)
        for p in prime_divisors(sq // dp):
            e = valuation(delta, p)
            val *= (p, -(p + 1), 1, 0)[min(e, 3)]
        closed.append(Fraction(val) / scale)
    return tuple(closed)


@st.composite
def data(draw):
    """A datum chosen by its eigenvalue at each prime: 1 puts q in M (and in
    D when r >= 2), q puts q in sf(N) * D outside M, 0 puts q in L."""
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=4, unique=True))
    n = m = dp = 1
    for q in sorted(primes):
        r = draw(st.integers(min_value=1, max_value=8 if q <= 3 else 4))
        eps = draw(st.sampled_from((1, q) if r == 1 else (1, q, 0)))
        n *= q**r
        m *= q if eps == 1 else 1
        dp *= q if r >= 2 and eps != 0 else 1
    assume(m * (parts(n)[1] // dp) != 1)
    return EisensteinDatum(n, m, dp)


# 2520 = 2^3 * 3^2 * 5 * 7.  With (M, D) = (10, 6) the base prime 2 lies in
# M, with eigenvalue 1 at r = 3; with (5, 2) it is 3, in L and not the least
# prime.  4725 = 3^3 * 5^2 * 7 with M = 7 has eigenvalue 0 off the base prime.
EXAMPLES = (
    EisensteinDatum(2520, 10, 6),
    EisensteinDatum(2520, 5, 2),
    EisensteinDatum(4725, 7, 1),
    EisensteinDatum(2**10, 1, 1),
    EisensteinDatum(2**10, 2, 2),
)


def _with_examples(test):
    for datum in EXAMPLES:
        test = example(datum=datum)(test)
    return test


def test_examples_cover_every_local_type():
    types, base_eigenvalues = set(), set()
    for datum in EXAMPLES:
        for q, r in factor(datum.n):
            eps = epsilon(datum, q)
            types.add(("q" if eps == q else eps, r >= 2))
        base = min(q for q in prime_divisors(datum.n) if epsilon(datum, q) != q)
        base_eigenvalues.add(epsilon(datum, base))
    assert types == {(1, False), (1, True), ("q", False), ("q", True), (0, True)}
    assert base_eigenvalues == {1, 0}


@settings(max_examples=80, deadline=None)
@_with_examples
@given(datum=data())
def test_build_qexp_matches_case_split(datum):
    for prec in (0, 1, 97):
        assert build_qexp(datum, prec) == _split_build_qexp(datum, prec), datum


@settings(max_examples=80, deadline=None)
@_with_examples
@given(datum=data())
def test_residue_table_matches_case_split(datum):
    assert residue_table(datum).res == _split_residue_table(datum), datum


@settings(max_examples=80, deadline=None)
@_with_examples
@given(datum=data())
def test_exponent_data_matches_case_split(datum):
    assert _exponent_data(datum) == _split_exponent_data(datum), datum


@settings(max_examples=60, deadline=None)
@_with_examples
@given(datum=data())
def test_r_vector_matches_case_split(datum):
    u, den = r_vector(datum)
    assert tuple(Fraction(x, den) for x in u) == _split_closed_r_vector(datum), datum


# Data with a prime q | gcd(M, square support) at r >= 3, where the recursive
# builder pulls (P_1) - (P_q) back through a chain of z -> z coverings: two
# such primes at once, one beside a prime of L, and one beside eigenvalue q
# at r >= 2.
PULLBACK_CHAIN_EXAMPLES = (
    EisensteinDatum(3**5 * 5**3 * 7, 15, 15),
    EisensteinDatum(2**4 * 3**3 * 5**2, 6, 6),
    EisensteinDatum(2**5 * 3**4 * 5**3, 2, 30),
)


def test_pullback_chain_examples_cover_high_powers():
    for datum in PULLBACK_CHAIN_EXAMPLES:
        sq = parts(datum.n)[1]
        assert any(
            valuation(datum.n, q) >= 3 for q in prime_divisors(datum.m) if sq % q == 0
        ), datum


@settings(max_examples=80, deadline=None)
@_with_examples
@example(datum=PULLBACK_CHAIN_EXAMPLES[0])
@example(datum=PULLBACK_CHAIN_EXAMPLES[1])
@example(datum=PULLBACK_CHAIN_EXAMPLES[2])
@given(datum=data())
def test_build_c_divisor_matches_recursive_builder(datum):
    assert build_c_divisor(datum) == recursive_c_divisor(datum), datum


# Data outside the closed form (closed_form_order is None: L = 1 at a
# non-squarefree reduced level), where `sweep` has no closed value to check
# the local orders against, and data at high prime powers besides the 2^10
# of EXAMPLES.
ORDER_EXAMPLES = (
    EisensteinDatum(12, 3, 2),
    EisensteinDatum(50, 2, 5),
    EisensteinDatum(36, 3, 6),
    EisensteinDatum(3**6, 1, 1),
    EisensteinDatum(5**4 * 7**2, 7, 35),
    EisensteinDatum(2**13 * 3**5, 2, 6),
    EisensteinDatum(2**13 * 3**5, 3, 3),
)


def _with_order_examples(test):
    for datum in PULLBACK_CHAIN_EXAMPLES + ORDER_EXAMPLES:
        test = example(datum=datum)(test)
    return test


@settings(max_examples=80, deadline=None)
@_with_examples
@_with_order_examples
@given(datum=data())
def test_datum_order_matches_the_whole_level_engine(datum):
    n = datum.n
    divs = divisors_of(n)
    u, den = apply_lambda_inverse(n, build_c_divisor(datum).as_vector())
    whole_level_sums = (
        math.gcd(*u),
        sum(x * d for x, d in zip(u, divs)),
        sum(x * (n // d) for x, d in zip(u, divs)),
        *(sum(x * valuation(d, p) for x, d in zip(u, divs)) for p in prime_divisors(n)),
    )
    local_den, g, s1, s2, parities = _datum_sums(datum)
    # _eta_order reads each sum only over den.  Every datum's Sum d u_d and
    # Sum (N/d) u_d are multiples of 24 den, so the order alone cannot see a
    # wrong local factor in them; the sums over den can.
    assert [Fraction(x, local_den) for x in (g, s1, s2, *parities)] == [
        Fraction(x, den) for x in whole_level_sums
    ], datum
    assert index_n(datum) == class_order(n, build_c_divisor(datum)), datum


# Every local type up to q = 23 and q^8: 9 primes, eigenvalues 1 and q at
# r = 1 and also 0 at r >= 2.
LOCAL_CASES = tuple(
    (q, r, eps)
    for q in primes_upto(23)
    for r in range(1, 9)
    for eps in ((1, q) if r == 1 else (1, q, 0))
)


def test_closed_local_table_matches_the_engine_and_the_pullback():
    assert len(LOCAL_CASES) == 207
    for q, r, eps in LOCAL_CASES:
        c = _local_divisor(q, r, eps)
        if eps == 1:
            pulled = RationalCuspDivisor.from_dict(q, {1: 1, q: -1})
            for _ in range(r - 1):
                pulled = alpha_pullback(pulled, q)
            assert c == list(pulled.as_vector()), (q, r)
        u, den = apply_lambda_inverse(q**r, c)
        entries, scale = _local_exponents(q, r, eps)
        assert [Fraction(x, den) for x in u] == [Fraction(24 * e, scale) for e in entries], (
            q, r, eps,
        )
        scalar = {
            1: Fraction(q - 1),
            q: Fraction(q) ** (r - 2) * (q * q - 1),
            0: Fraction(q) ** (r - 3) * (q * q - 1),
        }[eps]
        assert _local_residues(q, r, eps) == [scalar * x for x in c], (q, r, eps)
