"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion is exact (integers and fractions, no tolerances).
"""

import math
import random
from fractions import Fraction

from cuspidal.arith import (
    divisors_of,
    parts,
    prime_divisors,
    primes_upto,
)
from cuspidal.classifier import enumerate_data, rational_eisenstein_primes
from cuspidal.classlattice import (
    apply_lambda_inverse,
    class_order,
    closed_form_order,
    lambda_inverse,
    lambda_rows,
    mat_vec,
    r_vector,
    solve_lambda,
)
from cuspidal.cusps import enumerate_cusps
from cuspidal.eisq import build_qexp, eigen_check, residue_table
from cuspidal.heckediv import (
    EisensteinDatum,
    build_c_divisor,
    epsilon,
    hecke_delta,
    hecke_delta_closed,
)
from reference import (
    deg_map,
    fraction_qexp,
    fraction_residue_closed,
    fraction_residues,
    kernel_intersection_order,
    numerator_of,
    p_divisor,
)

MAX_N = 150


def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols) for r in a)


def _over(rows, dens):
    """Integer rows over their denominators, one per row, as Fraction rows."""
    return tuple(tuple(Fraction(x, den) for x in row) for row, den in zip(rows, dens))


def _report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_prime_level_orders():
    for p in primes_upto(199):
        datum = EisensteinDatum(p, p, 1)
        expected = numerator_of(Fraction(p - 1, 12))
        assert class_order(p, build_c_divisor(datum)) == expected, p
    for p, spot in ((11, 5), (17, 4), (13, 1)):
        assert class_order(p, build_c_divisor(EisensteinDatum(p, p, 1))) == spot
    _report(1, "prime levels p < 200 have order numerator((p-1)/12)")


def test_criterion_02_two_power_levels():
    expected = [1, 1, 1, 2, 4, 8, 16]
    got = [
        class_order(2**k, build_c_divisor(EisensteinDatum(2**k, 1, 1)))
        for k in range(2, 9)
    ]
    assert got == expected
    assert got == [numerator_of(Fraction(2) ** (k - 4)) for k in range(2, 9)]
    _report(2, "levels 2^k, k = 2..8, have orders 1,1,1,2,4,8,16")


def test_criterion_03_closed_form_vs_engine():
    covered = mismatches = 0
    for n in range(2, MAX_N + 1):
        for datum in enumerate_data(n):
            closed = closed_form_order(datum)
            if closed is None:
                continue
            covered += 1
            if class_order(n, build_c_divisor(datum)) != closed:
                mismatches += 1
    assert mismatches == 0
    assert covered > 300
    _report(3, f"engine matches the closed-form order on all {covered} covered data, N <= {MAX_N}")


def test_criterion_04_lambda_machinery():
    rng = random.Random(0)
    for n in range(1, MAX_N + 1):
        divs = divisors_of(n)
        inv, den = lambda_inverse(n)
        ident = _mat_mul(_over(*lambda_rows(n)), _over(inv, [den] * len(divs)))
        assert all(
            ident[i][j] == (1 if i == j else 0)
            for i in range(len(divs))
            for j in range(len(divs))
        ), n
        rhs = tuple(rng.randint(-20, 20) for _ in divs)
        y, den_y = solve_lambda(n, rhs)
        assert _over([y], [den_y]) == _over([mat_vec(inv, rhs)], [den]), n
    _report(4, f"Lambda * Lambda^-1 = Id and solver agreement for all N <= {MAX_N}")


def test_criterion_05_r_vector_triple_agreement():
    count = 0
    for n in range(2, MAX_N + 1):
        sf, sq, _ = parts(n)
        for d in divisors_of(sq):
            for m in divisors_of(sf):
                if m * (sq // d) == 1:
                    continue
                datum = EisensteinDatum(n, m, d)
                r_num, r_den = r_vector(datum)
                r = tuple(Fraction(x, r_den) for x in r_num)
                c = build_c_divisor(datum)
                u, den = apply_lambda_inverse(n, c.as_vector())
                assert r == tuple(Fraction(x, den) for x in u), datum
                rows, scale = lambda_rows(n)
                lam_r = [sum(x * y for x, y in zip(row, r)) for row in _over(rows, scale)]
                assert lam_r == list(c.as_vector()), datum
                count += 1
    assert count > 250
    _report(5, f"exponent-vector triple agreement and Lambda*R = C on {count} data")


def test_criterion_06_hecke_action():
    table_checks = eigen_checks = class_checks = 0
    for n in range(2, MAX_N + 1):
        for p in prime_divisors(n):
            for d in divisors_of(n):
                expected = hecke_delta_closed(d, p, n)
                if expected is None:
                    continue
                assert hecke_delta(p_divisor(d, n), p) == expected, (n, p, d)
                table_checks += 1
            for datum in enumerate_data(n):
                div = build_c_divisor(datum)
                image = hecke_delta(div, p)
                eps = epsilon(datum, p)
                if math.gcd(datum.m, datum.d_part) == 1:
                    assert image == eps * div, (datum, p)
                    eigen_checks += 1
                else:
                    assert class_order(n, image - eps * div) == 1, (datum, p)
                    class_checks += 1
    _report(
        6,
        f"case table ({table_checks}), divisor identities ({eigen_checks}), "
        f"class principality ({class_checks}) for all N <= {MAX_N}, p | N",
    )


def test_criterion_07_residues():
    count = 0
    for n in range(2, MAX_N + 1):
        for datum in enumerate_data(n):
            res = dict(fraction_residues(residue_table(datum)))
            # the residues sum to 0 over the cusps, each cusp read by its level
            assert sum(res[c.d] for c in enumerate_cusps(n)) == 0, datum
            at_inf, at_ml = fraction_residue_closed(datum)
            assert res[n] == at_inf, datum
            assert res[datum.m * datum.l_part] == at_ml, datum
            assert res[n] == -24 * fraction_qexp(build_qexp(datum, 2))[0], datum
            count += 1
    _report(7, f"residue sum, closed values, and -24*a0 link on {count} data, N <= {MAX_N}")


def test_criterion_08_eigenform_suite():
    count = 0
    for n in range(2, 61):
        for datum in enumerate_data(n):
            refuted = eigen_check(datum, build_qexp(datum, 60), qmax=13)
            assert refuted == {}, (datum, refuted)
            count += 1
    _report(8, f"eigenform checks (T_q = q+1, U_p = eps) on {count} data, N <= 60")


def test_criterion_09_image_kernel_theorem():
    instances = 0
    for n in range(2, 201):
        sf, sq, _ = parts(n)
        for m in divisors_of(sf):
            if m * sq == 1:
                continue
            datum = EisensteinDatum(n, m, 1)
            src = build_c_divisor(datum)
            for p in prime_divisors(n):
                if n * p > 200:
                    continue
                if m % p == 0:
                    kind, target, scale = "minus", EisensteinDatum(n * p, m // p, 1), p + 1
                elif sf % p == 0:
                    kind, target, scale = "plus", EisensteinDatum(n * p, m, 1), 1
                else:
                    kind, target, scale = "plain", EisensteinDatum(n * p, m, 1), p
                diff = deg_map(kind, src, p) - scale * build_c_divisor(target)
                assert class_order(n * p, diff) == 1, (kind, datum, p)
                # raises on any mismatch with the 2-versus-1 prediction
                kernel_intersection_order(kind, datum, p)
                instances += 1
    assert kernel_intersection_order("minus", EisensteinDatum(17, 17, 1), 17) == 2
    _report(9, f"image identities and kernel orders on {instances} instances, N*p <= 200")


def test_criterion_10_classification():
    eleven = rational_eisenstein_primes(11)
    assert {(e.ell, e.datum.m, e.datum.d_part) for e in eleven} == {(5, 11, 1)}
    assert all(e.hypothesis_ok and e.new_candidate for e in eleven)

    thirty_two = rational_eisenstein_primes(32)
    assert {(e.ell, e.datum.m, e.datum.d_part) for e in thirty_two} == {(2, 1, 1)}
    assert not thirty_two[0].hypothesis_ok

    thirty_three = rational_eisenstein_primes(33, ell=5)
    assert {(e.ell, e.datum.m, e.datum.d_part) for e in thirty_three} == {
        (5, 33, 1),
        (5, 11, 1),
    }
    _report(10, "classification sets at N = 11, 32, and 33 (ell = 5) are exact")
