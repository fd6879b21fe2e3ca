import math

import pytest

from cuspidal.arith import divisors_of, parts, prime_divisors
from cuspidal.cusps import RationalCuspDivisor, covering_degree
from cuspidal.classlattice import class_order
from cuspidal.heckediv import (
    EisensteinDatum,
    build_c_divisor,
    epsilon,
    hecke_delta,
    hecke_delta_closed,
)
from reference import aggregate, deg_map, expand, p_divisor, pullback, pushforward


def _valid_data(n):
    sf, sq, _ = parts(n)
    for d in divisors_of(sq):
        for m in divisors_of(sf * d):
            if m * (sq // d) != 1:
                yield EisensteinDatum(n, m, d)


def test_datum_validation():
    EisensteinDatum(45, 3, 3)
    with pytest.raises(ValueError):
        EisensteinDatum(45, 3, 1)  # 3 must lie in d_part
    with pytest.raises(ValueError):
        EisensteinDatum(9, 1, 3)  # degenerate: M * (square/D) = 1
    with pytest.raises(ValueError):
        EisensteinDatum(11, 1, 1)  # degenerate at squarefree level
    with pytest.raises(ValueError):
        EisensteinDatum(12, 5, 1)


def test_epsilon_values():
    assert epsilon(EisensteinDatum(11, 11, 1), 11) == 1
    assert epsilon(EisensteinDatum(9, 1, 1), 3) == 0
    assert epsilon(EisensteinDatum(45, 3, 3), 5) == 5
    assert epsilon(EisensteinDatum(45, 3, 3), 3) == 1
    assert epsilon(EisensteinDatum(45, 15, 3), 3) == 1
    assert epsilon(EisensteinDatum(50, 2, 5), 5) == 5
    with pytest.raises(ValueError):
        epsilon(EisensteinDatum(11, 11, 1), 3)


def test_epsilon_range():
    for n in range(2, 80):
        for datum in _valid_data(n):
            for p in prime_divisors(n):
                e = epsilon(datum, p)
                if n % (p * p):
                    assert e in (1, p)
                else:
                    assert e in (1, p, 0)


def test_build_c_divisor_examples():
    assert build_c_divisor(EisensteinDatum(11, 11, 1)) == RationalCuspDivisor.from_dict(
        11, {1: 1, 11: -1}
    )
    assert build_c_divisor(EisensteinDatum(9, 1, 1)) == RationalCuspDivisor.from_dict(
        9, {1: 2, 3: -1}
    )
    assert build_c_divisor(EisensteinDatum(33, 3, 1)) == RationalCuspDivisor.from_dict(
        33, {1: 1, 3: -1}
    )


def test_build_c_divisor_pullback_chain():
    # gcd(M, square support) != 1 goes through the alpha-pullback chain
    div = build_c_divisor(EisensteinDatum(9, 3, 3))
    assert div == RationalCuspDivisor.from_dict(9, {1: 3, 3: -1, 9: -1})
    assert div.degree() == 0
    for n in (4, 12, 18, 45, 72):
        for datum in _valid_data(n):
            assert build_c_divisor(datum).degree() == 0


def test_hecke_delta_examples():
    assert hecke_delta(p_divisor(1, 11), 2) == RationalCuspDivisor.from_dict(11, {1: 3})
    assert hecke_delta(p_divisor(11, 11), 11) == RationalCuspDivisor.from_dict(
        11, {1: 10, 11: 1}
    )
    assert hecke_delta(p_divisor(3, 9), 3) == RationalCuspDivisor.from_dict(9, {1: 6})


def test_hecke_delta_rejects_a_composite_p():
    # The pullback checks p before any chain table is read.
    for n in (11, 12):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            hecke_delta(p_divisor(1, n), 4)


def test_hecke_delta_closed_examples():
    assert hecke_delta_closed(1, 11, 11) == RationalCuspDivisor.from_dict(11, {1: 11})
    assert hecke_delta_closed(1, 3, 9) == RationalCuspDivisor.from_dict(9, {1: 3})
    assert hecke_delta_closed(3, 3, 9) == RationalCuspDivisor.from_dict(9, {1: 6})
    assert hecke_delta_closed(1, 2, 11) == RationalCuspDivisor.from_dict(11, {1: 3})
    assert hecke_delta_closed(9, 3, 9) is None


def test_hecke_delta_matches_closed_table():
    for n in (11, 9, 12, 30, 45, 50, 98):
        for p in (2, 3, 5, 7):
            for d in divisors_of(n):
                expected = hecke_delta_closed(d, p, n)
                if expected is None:
                    continue
                assert hecke_delta(p_divisor(d, n), p) == expected, (n, p, d)


def test_hecke_delta_naive_composition():
    # independent path through the public per-cusp operations
    for n, p in ((11, 11), (9, 3), (12, 2), (45, 3)):
        for d in divisors_of(n):
            div = p_divisor(d, n)
            pulled = pullback("alpha", expand(div), n, p)
            naive = aggregate(n, pushforward("beta", pulled, p))
            assert naive == hecke_delta(div, p)


def test_hecke_degree_scaling():
    for n in list(range(1, 60)) + list(range(61, 151, 7)):
        for p in (2, 3, 5, 7, 11, 13):
            if n * p > 600 and p > 5:
                continue
            div = p_divisor(1, n) - p_divisor(n, n)
            image = hecke_delta(div, p)
            assert image.degree() == covering_degree(n, p) * div.degree()
            single = hecke_delta(p_divisor(1, n), p)
            assert single.degree() == covering_degree(n, p) * p_divisor(1, n).degree()


def test_divisor_level_annihilation():
    for n in range(2, 60):
        for datum in _valid_data(n):
            if math.gcd(datum.m, datum.d_part) != 1:
                continue
            div = build_c_divisor(datum)
            for p in prime_divisors(n):
                assert hecke_delta(div, p) == epsilon(datum, p) * div, (datum, p)


def test_class_level_annihilation_general_m():
    for n in (4, 9, 12, 18, 36, 45, 50):
        for datum in _valid_data(n):
            if math.gcd(datum.m, datum.d_part) == 1:
                continue
            div = build_c_divisor(datum)
            for p in prime_divisors(n):
                diff = hecke_delta(div, p) - epsilon(datum, p) * div
                assert class_order(n, diff) == 1, (datum, p)


def test_divisor_is_an_exact_eigenvector():
    # Exact at every datum, including those whose M shares a prime with D.
    shared = 0
    for n in range(2, 60):
        for datum in _valid_data(n):
            shared += math.gcd(datum.m, datum.d_part) != 1
            div = build_c_divisor(datum)
            for p in prime_divisors(n):
                assert hecke_delta(div, p) == epsilon(datum, p) * div, (datum, p)
    assert shared


def test_deg_map_plain_is_alpha_pullback():
    div = build_c_divisor(EisensteinDatum(11, 11, 1))
    from cuspidal.cusps import alpha_pullback

    assert deg_map("plain", div, 2) == alpha_pullback(div, 2)
    with pytest.raises(ValueError):
        deg_map("sideways", div, 2)


def test_deg_map_image_identities_at_class_level():
    # [17]^-_17 sends the order-4 class to 18 times the level-289 class
    c = build_c_divisor(EisensteinDatum(17, 17, 1))
    img = deg_map("minus", c, 17)
    target = build_c_divisor(EisensteinDatum(289, 1, 1))
    assert class_order(289, img - 18 * target) == 1
    # [34]^+_2 carries the class to the level-68 class
    c34 = build_c_divisor(EisensteinDatum(34, 17, 1))
    c68 = build_c_divisor(EisensteinDatum(68, 17, 1))
    assert class_order(68, deg_map("plus", c34, 2) - c68) == 1
    # [50]_5 multiplies the class by 5
    c50 = build_c_divisor(EisensteinDatum(50, 1, 1))
    c250 = build_c_divisor(EisensteinDatum(250, 1, 1))
    assert class_order(250, deg_map("plain", c50, 5) - 5 * c250) == 1
