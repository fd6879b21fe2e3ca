import math
import random
from fractions import Fraction
from operator import mul
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspidal.arith import (
    divisors_of,
    euler_phi,
    factor,
    parts,
    prime_divisors,
    valuation,
)
from cuspidal import classlattice
from cuspidal.classlattice import (
    apply_lambda_inverse,
    class_order,
    closed_form_order,
    lambda_inverse,
    lambda_matrix,
    mat_vec,
    r_vector,
    solve_lambda,
)
from cuspidal.classifier import enumerate_data
from cuspidal.cusps import RationalCuspDivisor
from cuspidal.heckediv import EisensteinDatum, build_c_divisor
from reference import (
    block_denominator,
    block_entry,
    dict_apply_lambda_inverse,
    dict_class_order,
    kernel_intersection_order,
    numerator_of,
)

# Levels whose interior tridiagonal rows (prime exponent >= 2) carry weight.
HIGH_POWER_LEVELS = (2**12, 3**8, 5**5 * 7**2, 2**4 * 3**3 * 5**2 * 7)


def _kronecker_lambda_inverse(n):
    """Reference: Lambda(n)^{-1} built densely by adjoining one prime power at
    a time, each tridiagonal block scaled against the smaller inverse; the
    block divisor order d_i * q^j is permuted back to ascending divisors."""
    inv = [[Fraction(24)]]
    divs = [1]
    for q, r in factor(n):
        w = len(divs)
        den = block_denominator(q, r)
        blocks = [
            [Fraction(block_entry(q, r, m, k), den) for k in range(1, r + 2)]
            for m in range(1, r + 2)
        ]
        size = w * (r + 1)
        new = [[Fraction(0)] * size for _ in range(size)]
        for bm in range(r + 1):
            for bk in range(r + 1):
                b = blocks[bm][bk]
                if not b:
                    continue
                for i in range(w):
                    row = new[bm * w + i]
                    src = inv[i]
                    for j in range(w):
                        row[bk * w + j] = b * src[j]
        divs = [d * q**j for j in range(r + 1) for d in divs]
        inv = new
    order = sorted(range(len(divs)), key=lambda k: divs[k])
    return tuple(tuple(inv[i][j] for j in order) for i in order)


def _fraction_solve_lambda(n, a):
    """Reference: Gauss-Jordan elimination over the Fraction rows of Lambda(n)."""
    divs = divisors_of(n)
    if len(a) != len(divs):
        raise ValueError(f"vector length {len(a)} != number of divisors {len(divs)}")
    size = len(divs)
    m = [list(row) + [Fraction(a[i])] for i, row in enumerate(lambda_matrix(n))]
    for col in range(size):
        piv = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv_p = 1 / m[col][col]
        m[col] = [v * inv_p for v in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return tuple(row[size] for row in m)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols) for r in a)


def test_lambda_matrix_small():
    assert lambda_matrix(1) == ((Fraction(1, 24),),)
    for p in (2, 11, 13):
        assert lambda_matrix(p) == (
            (Fraction(p, 24), Fraction(1, 24)),
            (Fraction(1, 24), Fraction(p, 24)),
        )
    assert lambda_matrix(9) == tuple(
        tuple(Fraction(x, 24) for x in row) for row in ((9, 3, 1), (1, 3, 1), (1, 3, 9))
    )


def test_lambda_inverse_small():
    assert lambda_inverse(1) == _kronecker_lambda_inverse(1) == ((Fraction(24),),)
    for p in (2, 3, 11):
        scale = Fraction(24, p * p - 1)
        assert lambda_inverse(p) == _kronecker_lambda_inverse(p) == (
            (scale * p, -scale),
            (-scale, scale * p),
        )
    assert lambda_inverse(9) == _kronecker_lambda_inverse(9) == tuple(
        tuple(Fraction(x) for x in row) for row in ((3, -3, 0), (-1, 10, -1), (0, -3, 3))
    )


def _identity(size):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(size)) for i in range(size)
    )


# Deep prime powers and a mixed level check the level table's blocks against
# Lambda(n) itself, interior rows included.
@pytest.mark.parametrize(
    "n",
    [1, 2, 8, 9, 12, 36, 60, 90, 128, 144, 150, 2**10, 3**6, 5**4, 7**3, 2**5 * 3**3],
)
def test_lambda_inverse_is_inverse(n):
    size = len(divisors_of(n))
    assert _mat_mul(lambda_matrix(n), lambda_inverse(n)) == _identity(size)


def test_degree_of_lambda_columns_is_psi_over_24():
    # Ligozat: the (P_d)-divisor Lambda(N) r has degree psi(N)/24 * Sum r, so
    # class_order's one degree check reads the weight of Lambda(N)^{-1} a.
    for n in range(1, 400):
        divs = divisors_of(n)
        weights = [euler_phi(math.gcd(d, n // d)) for d in divs]
        psi = math.prod(q ** (e - 1) * (q + 1) for q, e in factor(n))
        columns = zip(*lambda_matrix(n))
        assert all(sum(map(mul, weights, col)) == Fraction(psi, 24) for col in columns), n


def test_solve_lambda_examples():
    e1 = [1] + [0] * (len(divisors_of(60)) - 1)
    rhs = mat_vec(lambda_matrix(60), e1)
    assert solve_lambda(60, rhs) == tuple(Fraction(x) for x in e1)
    assert solve_lambda(11, (1, -1)) == (Fraction(12, 5), Fraction(-12, 5))
    assert mat_vec(lambda_matrix(11), (Fraction(12, 5), Fraction(-12, 5))) == (
        Fraction(1),
        Fraction(-1),
    )


def test_solve_agrees_with_inverse():
    rng = random.Random(7)
    for n in (6, 24, 45, 100, 147):
        vec = tuple(Fraction(rng.randint(-9, 9)) for _ in divisors_of(n))
        assert solve_lambda(n, vec) == mat_vec(lambda_inverse(n), vec)
        assert solve_lambda(n, vec) == mat_vec(_kronecker_lambda_inverse(n), vec)


def test_r_vector_examples():
    # (u, den) with r = u / den: (12/5, -12/5), (9, -12, 3) and (3/2, -3/2)
    assert r_vector(EisensteinDatum(11, 11, 1)) == ((12, -12), 5)
    assert r_vector(EisensteinDatum(9, 1, 1)) == ((9, -12, 3), 1)
    assert r_vector(EisensteinDatum(17, 17, 1)) == ((3, -3), 2)


def test_r_vector_solves_lambda():
    for n in (11, 9, 32, 33, 45, 50, 98):
        sf, sq, _ = parts(n)
        for d in divisors_of(sq):
            for m in divisors_of(sf * d):
                if m * (sq // d) == 1:
                    continue
                datum = EisensteinDatum(n, m, d)
                u, den = r_vector(datum)
                r = tuple(Fraction(x, den) for x in u)
                c = build_c_divisor(datum)
                assert mat_vec(lambda_matrix(n), r) == tuple(
                    Fraction(x) for x in c.as_vector()
                )
                assert r == solve_lambda(n, c.as_vector())


def test_class_order_examples():
    assert class_order(11, {}) == 1
    assert class_order(11, (1, -1)) == 5
    assert class_order(32, build_c_divisor(EisensteinDatum(32, 1, 1))) == 2


def test_class_order_rejects_nonzero_degree():
    with pytest.raises(ValueError):
        class_order(11, (1, 0))
    with pytest.raises(ValueError):
        class_order(9, {1: 1})


def test_is_principal_examples():
    assert class_order(9, {1: 2, 3: -1}) == 1
    assert class_order(11, (1, -1)) != 1
    assert class_order(11, {}) == 1


def _degree_zero_strategy(n):
    divs = divisors_of(n)
    weights = [euler_phi(math.gcd(d, n // d)) for d in divs]

    def build(coeffs):
        base = {}
        for (i, j), c in zip([(a, b) for a in range(len(divs)) for b in range(a)], coeffs):
            base[divs[i]] = base.get(divs[i], 0) + c * weights[j]
            base[divs[j]] = base.get(divs[j], 0) - c * weights[i]
        return base

    npairs = len(divs) * (len(divs) - 1) // 2
    return st.lists(
        st.integers(min_value=-3, max_value=3), min_size=npairs, max_size=npairs
    ).map(build)


@settings(max_examples=30)
@given(data=st.data(), k=st.integers(min_value=1, max_value=30))
def test_class_order_scaling(data, k):
    n = data.draw(st.sampled_from([11, 17, 32, 45, 50]))
    coeffs = data.draw(_degree_zero_strategy(n))
    order = class_order(n, coeffs)
    scaled = class_order(n, {d: k * v for d, v in coeffs.items()})
    assert scaled == order // math.gcd(k, order)


def test_closed_form_examples():
    assert closed_form_order(EisensteinDatum(11, 11, 1)) == 5
    assert closed_form_order(EisensteinDatum(32, 1, 1)) == 2
    assert closed_form_order(EisensteinDatum(289, 1, 1)) == 12
    assert closed_form_order(EisensteinDatum(17, 17, 1)) == 4
    assert closed_form_order(EisensteinDatum(9, 3, 3)) == 1
    assert closed_form_order(EisensteinDatum(45, 3, 3)) == 2


def test_closed_form_not_covered():
    # L = 1 with M inert in the square support and a non-squarefree reduction
    assert closed_form_order(EisensteinDatum(45, 5, 3)) is None


def test_closed_form_squarefree_h_factor():
    # squarefree levels: numerator of prod(p-1 | M) prod(p^2-1 | N/M) / 24 times h
    for n, m, expected in ((17, 17, 4), (34, 17, 4), (33, 33, 5), (33, 11, 10), (34, 34, 2)):
        datum = EisensteinDatum(n, m, 1)
        assert closed_form_order(datum) == expected
        assert class_order(n, build_c_divisor(datum)) == expected


def test_engine_matches_closed_forms():
    for n in range(2, 100):
        sf, sq, _ = parts(n)
        for d in divisors_of(sq):
            for m in divisors_of(sf * d):
                if m * (sq // d) == 1:
                    continue
                datum = EisensteinDatum(n, m, d)
                closed = closed_form_order(datum)
                if closed is None:
                    continue
                engine = class_order(n, build_c_divisor(datum))
                assert engine == closed, datum


def test_prime_level_orders_numerator():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 37, 101):
        datum = EisensteinDatum(p, p, 1)
        expected = numerator_of(Fraction(p - 1, 12))
        assert class_order(p, build_c_divisor(datum)) == expected


def test_kernel_intersection_examples():
    assert kernel_intersection_order("minus", EisensteinDatum(17, 17, 1), 17) == 2
    assert kernel_intersection_order("minus", EisensteinDatum(11, 11, 1), 11) == 1
    assert kernel_intersection_order("plus", EisensteinDatum(34, 17, 1), 2) == 2
    assert kernel_intersection_order("plain", EisensteinDatum(50, 1, 1), 5) == 1
    with pytest.raises(ValueError):
        kernel_intersection_order("minus", EisensteinDatum(11, 11, 1), 2)
    with pytest.raises(ValueError):
        kernel_intersection_order("plain", EisensteinDatum(11, 11, 1), 11)


def _dense_class_order(n, a):
    """Reference: the class order through the dense Fraction Lambda(n)^{-1}."""
    divs = divisors_of(n)
    if isinstance(a, RationalCuspDivisor):
        vec = tuple(Fraction(c) for c in a.as_vector())
    elif isinstance(a, Mapping):
        vec = tuple(Fraction(a.get(d, 0)) for d in divs)
    else:
        vec = tuple(Fraction(x) for x in a)
    degree = sum(vec[i] * euler_phi(math.gcd(d, n // d)) for i, d in enumerate(divs))
    if degree != 0:
        raise ValueError(f"divisor has degree {degree}, expected 0")
    r = mat_vec(_kronecker_lambda_inverse(n), vec)
    if sum(r) != 0:
        raise ValueError("exponent vector has nonzero weight; no multiple is principal")
    k = math.lcm(*(x.denominator for x in r))
    s1 = sum((x * d for x, d in zip(r, divs)), Fraction(0)) / 24
    k = math.lcm(k, s1.denominator)
    s2 = sum((x * (n // d) for x, d in zip(r, divs)), Fraction(0)) / 24
    k = math.lcm(k, s2.denominator)
    for p in prime_divisors(n):
        v = sum((x * valuation(d, p) for x, d in zip(r, divs)), Fraction(0)) / 2
        k = math.lcm(k, v.denominator)
    return k


def _engine(n, vec):
    """The engine on a Fraction vector, its denominator cleared by hand."""
    den = math.lcm(*(x.denominator for x in vec))
    u, out_den = apply_lambda_inverse(n, [x.numerator * (den // x.denominator) for x in vec], den)
    return tuple(Fraction(x, out_den) for x in u)


def _rational_vectors(size):
    entries = st.one_of(
        st.integers(min_value=-10**6, max_value=10**6).map(Fraction),
        st.fractions(max_denominator=60).filter(lambda x: abs(x.numerator) < 10**6),
    )
    return st.lists(entries, min_size=size, max_size=size)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_matches_dense_and_solve(data):
    n = data.draw(
        st.one_of(st.integers(min_value=1, max_value=399), st.sampled_from(HIGH_POWER_LEVELS))
    )
    vec = tuple(data.draw(_rational_vectors(len(divisors_of(n)))))
    got = _engine(n, vec)
    assert got == mat_vec(_kronecker_lambda_inverse(n), vec)
    assert mat_vec(lambda_matrix(n), got) == vec
    if len(vec) <= 24:
        assert got == solve_lambda(n, vec)


@pytest.mark.parametrize("n", HIGH_POWER_LEVELS)
def test_engine_on_unit_vectors(n):
    inv = _kronecker_lambda_inverse(n)
    size = len(divisors_of(n))
    for j in range(size):
        u, den = apply_lambda_inverse(n, [int(i == j) for i in range(size)])
        assert tuple(Fraction(x, den) for x in u) == tuple(row[j] for row in inv)


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=1, max_value=399), st.sampled_from(HIGH_POWER_LEVELS))
)
def test_dense_inverse_matches_kronecker(n):
    assert lambda_inverse(n) == _kronecker_lambda_inverse(n)


def test_engine_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_lambda_inverse(12, [1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scale=st.integers(min_value=1, max_value=12), bump=st.booleans())
def test_class_order_matches_dense_reference(data, scale, bump):
    n = data.draw(st.sampled_from([11, 32, 45, 50, 120, 2**12, 3**8, 5**5 * 7**2]))
    coeffs = data.draw(_degree_zero_strategy(n))
    if data.draw(st.booleans()):
        coeffs = {d: Fraction(v, scale) for d, v in coeffs.items()}
    if bump:
        coeffs[1] = coeffs.get(1, 0) + Fraction(1, scale)
        with pytest.raises(ValueError) as reference:
            _dense_class_order(n, coeffs)
        with pytest.raises(ValueError) as engine:
            class_order(n, coeffs)
        assert str(engine.value) == str(reference.value)
        assert "degree" in str(engine.value)
    else:
        assert class_order(n, coeffs) == _dense_class_order(n, coeffs)
        vec = [coeffs.get(d, 0) for d in divisors_of(n)]
        assert class_order(n, vec) == class_order(n, coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        {1: Fraction(1, 2), 2: Fraction(-1, 2)},  # only sum (n/d) r_d = 0 mod 24 binds
        {2: Fraction(1, 2), 4: Fraction(-1, 2)},  # only sum d r_d = 0 mod 24 binds
    ],
)
def test_class_order_mod_24_conditions(coeffs):
    assert class_order(4, coeffs) == _dense_class_order(4, coeffs) == 2


@pytest.mark.parametrize("n", HIGH_POWER_LEVELS)
def test_class_order_of_data_matches_dense_reference(n):
    for datum in enumerate_data(n)[:6]:
        div = build_c_divisor(datum)
        assert class_order(n, div) == _dense_class_order(n, div), datum


def _int_or_rational_vectors(size):
    ints = st.lists(
        st.integers(min_value=-10**6, max_value=10**6), min_size=size, max_size=size
    )
    return st.one_of(ints, _rational_vectors(size))


# The Fraction reference takes seconds at tau = 120; levels up to tau = 24 suffice for it.
_SMALL_TAU_HIGH_POWER_LEVELS = [n for n in HIGH_POWER_LEVELS if len(divisors_of(n)) <= 24]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_lambda_matches_fraction_reference_and_engine(data):
    n = data.draw(
        st.one_of(
            st.integers(min_value=1, max_value=399),
            st.sampled_from(_SMALL_TAU_HIGH_POWER_LEVELS),
        )
    )
    vec = data.draw(_int_or_rational_vectors(len(divisors_of(n))))
    got = solve_lambda(n, vec)
    assert all(type(x) is Fraction for x in got)
    assert got == _fraction_solve_lambda(n, vec)
    assert got == _engine(n, vec)


def test_solve_lambda_at_tau_120():
    n = 2**4 * 3**3 * 5**2 * 7
    rng = random.Random(11)
    vec = [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 60)) if i % 2 else rng.randint(-9, 9)
        for i in range(len(divisors_of(n)))
    ]
    got = solve_lambda(n, vec)
    assert got == _engine(n, vec)
    assert mat_vec(lambda_matrix(n), got) == tuple(Fraction(x) for x in vec)


def test_solve_lambda_rejects_wrong_length():
    for solve in (solve_lambda, _fraction_solve_lambda):
        with pytest.raises(ValueError) as exc:
            solve(12, [1, 2, 3])
        assert str(exc.value) == "vector length 3 != number of divisors 6"


def test_solve_lambda_is_independent_of_the_engine(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("solve_lambda reached the prime-local engine")

    expected = _fraction_solve_lambda(360, list(range(24)))
    for name in ("apply_lambda_inverse", "_level_table", "_block"):
        monkeypatch.setattr(classlattice, name, unavailable)
    assert solve_lambda(360, list(range(24))) == expected


# Wide levels for the table-driven engine: deep prime powers, two deep
# primes together, and the highly composite levels of `classify`.
TABLE_LEVELS = (2**12, 3**8, 2**13 * 3**5, 27720, 720720)


def _with_table_levels(test):
    for n in TABLE_LEVELS:
        test = example(n=n, seed=n)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=4999), seed=st.integers(min_value=0))
@_with_table_levels
def test_engine_matches_the_dict_walk_engine(n, seed):
    rng = random.Random(seed)
    a = [rng.randint(-10**9, 10**9) for _ in divisors_of(n)]
    den = rng.randint(1, 10**6)
    assert apply_lambda_inverse(n, a, den) == dict_apply_lambda_inverse(n, a, den)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=4999), seed=st.integers(min_value=0))
@_with_table_levels
# Small levels, where Sum d u_d and Sum (N/d) u_d rule out different orders:
# random levels below 5000 rarely land there.
@example(n=4, seed=5)
@example(n=9, seed=0)
def test_class_order_matches_the_dict_walk_order(n, seed):
    rng = random.Random(seed)
    divs = divisors_of(n)
    support = rng.sample(divs, rng.randint(1, len(divs)))
    coeffs = {d: Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for d in support}
    # (P_1) is one cusp, so moving the degree onto level 1 leaves degree 0.
    coeffs[1] = coeffs.get(1, 0) - sum(
        v * euler_phi(math.gcd(d, n // d)) for d, v in coeffs.items()
    )
    assert class_order(n, coeffs) == dict_class_order(n, coeffs)
    div = RationalCuspDivisor.from_dict(n, {d: v.numerator for d, v in coeffs.items() if d != 1})
    div = div - RationalCuspDivisor.from_dict(n, {1: div.degree()})
    assert class_order(n, div) == dict_class_order(n, div)
