from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import eisq
from cuspidal.arith import divisors_of, is_prime, parts
from cuspidal.cusps import enumerate_cusps
from cuspidal.eisq import (
    QExpansion,
    base_epp,
    build_qexp,
    eigen_check,
    hecke_on_qexp,
    residue_closed,
    residue_table,
)
from cuspidal.heckediv import EisensteinDatum, epsilon
from reference import fraction_qexp, fraction_residue_closed, fraction_residues, level_map


def _valid_data(n):
    sf, sq, _ = parts(n)
    for d in divisors_of(sq):
        for m in divisors_of(sf * d):
            if m * (sq // d) != 1:
                yield EisensteinDatum(n, m, d)


def test_base_epp_coefficients():
    f = base_epp(3, 6)
    assert f.coeffs == (2, 24, 72, 24, 168, 144, 72)  # 24 a_k
    assert fraction_qexp(f) == (
        Fraction(1, 12),
        Fraction(1),
        Fraction(3),
        Fraction(1),
        Fraction(7),
        Fraction(6),
        Fraction(3),
    )
    with pytest.raises(ValueError):
        base_epp(6, 4)


def test_base_epp_is_level_eigenform():
    f = base_epp(3, 30)
    u3 = hecke_on_qexp(f, 3)
    assert u3.coeffs == f.coeffs[: u3.prec + 1]
    t2 = hecke_on_qexp(f, 2)
    assert t2.coeffs == tuple(3 * a for a in f.coeffs[: t2.prec + 1])


def test_build_qexp_base_cases():
    assert build_qexp(EisensteinDatum(3, 3, 1), 10) == base_epp(3, 10)
    # prime-power level with eigenvalue 1 keeps the prime-level expansion
    f = build_qexp(EisensteinDatum(9, 3, 3), 10)
    assert f.coeffs == base_epp(3, 10).coeffs
    assert f.n == 9
    assert build_qexp(EisensteinDatum(9, 1, 1), 10).coeffs[0] == 0


def test_build_qexp_constant_terms():
    assert fraction_qexp(build_qexp(EisensteinDatum(22, 22, 1), 4))[0] == Fraction(-5, 12)
    assert fraction_qexp(build_qexp(EisensteinDatum(22, 11, 1), 4))[0] == 0
    assert fraction_qexp(build_qexp(EisensteinDatum(3, 3, 1), 4))[0] == Fraction(1, 12)


def test_hecke_annihilates_square_level_series():
    f = build_qexp(EisensteinDatum(9, 1, 1), 24)
    g = hecke_on_qexp(f, 3)
    assert all(a == 0 for a in g.coeffs)
    assert g.prec == 8


def test_hecke_constant_term_off_level():
    f = QExpansion(5, (7, 0, 0, 0, 0))
    g = hecke_on_qexp(f, 3)
    assert g.coeffs[0] == (3 + 1) * 7


def test_precision_contracts():
    f = base_epp(5, 21)
    assert hecke_on_qexp(f, 2).prec == 10
    assert hecke_on_qexp(f, 7).prec == 3


def test_level_map_identities_r2():
    # the square-level series agrees with both single-step maps out of level Np
    direct = build_qexp(EisensteinDatum(99, 11, 1), 40)
    via_minus = level_map("minus", build_qexp(EisensteinDatum(33, 33, 1), 40), 3)
    via_plus = level_map("plus", build_qexp(EisensteinDatum(33, 11, 1), 40), 3)
    assert direct.coeffs == via_minus.coeffs == via_plus.coeffs
    assert via_minus.n == 99


def test_level_map_plain_keeps_coefficients():
    f = base_epp(7, 12)
    g = level_map("plain", f, 3)
    assert g.coeffs == f.coeffs and g.n == 21


def _eigen_check(datum, prec, qmax):
    return eigen_check(datum, build_qexp(datum, prec), qmax)


def test_eigen_check_examples():
    assert _eigen_check(EisensteinDatum(11, 11, 1), 60, 13) == {}
    assert _eigen_check(EisensteinDatum(9, 1, 1), 60, 13) == {}
    assert _eigen_check(EisensteinDatum(45, 3, 3), 60, 13) == {}
    # a level-prime eigenvalue that check holds: U_5 = 5 at 45 (U_3 = 0 at 9 is
    # test_hecke_annihilates_square_level_series)
    f = build_qexp(EisensteinDatum(45, 3, 3), 60)
    assert hecke_on_qexp(f, 5).coeffs == tuple(5 * a for a in f.coeffs[:13])
    with pytest.raises(ValueError):
        _eigen_check(EisensteinDatum(11, 11, 1), 10, 13)


def test_eigen_check_names_each_refuted_prime_with_its_first_bad_index():
    datum = EisensteinDatum(11, 11, 1)
    f = build_qexp(datum, 60)
    assert eigen_check(datum, f, 13) == {}
    g = QExpansion(11, (*f.coeffs[:6], f.coeffs[6] + 24, *f.coeffs[7:]))  # a_6 + 1
    # a_6 enters (T_2 g)_3 and (T_3 g)_2, and the eigenvalue side (q+1) a_6
    # at k = 6 for T_5 and T_7; T_13 and U_11 stop at k = 4 and 5.
    assert eigen_check(datum, g, 13) == {2: 3, 3: 2, 5: 6, 7: 6}
    # One datum's series against another datum of its level fails U_p
    # exactly where their eigenvalues at p differ, and nowhere else.
    assert eigen_check(EisensteinDatum(6, 6), build_qexp(EisensteinDatum(6, 2), 60), 13) == {3: 1}
    data = list(_valid_data(45))
    for a in data:
        f = build_qexp(a, 60)
        for b in data:
            differ = {p for p in (3, 5) if epsilon(a, p) != epsilon(b, p)}
            assert set(eigen_check(b, f, 13)) == differ, (a, b)


def test_eigen_check_sweep_small():
    for n in range(2, 40):
        for datum in _valid_data(n):
            assert _eigen_check(datum, 30, 7) == {}, datum


@pytest.mark.parametrize("prec", [0, 4, 25])
def test_eigen_check_rejects_a_series_shorter_than_twice_qmax(prec):
    # The precision is the series' own: a short series cannot pass for a
    # longer check (at prec 4, T_5, T_7, T_13 and U_11 would see k = 0 only).
    datum = EisensteinDatum(11, 11, 1)
    with pytest.raises(ValueError, match="2 \\* qmax"):
        eigen_check(datum, build_qexp(datum, prec), 13)


def test_eigen_check_rejects_a_series_of_another_level():
    # U_2 on a level-22 series against the level-2 datum's eigenvalues would
    # read as a passing check of the level-2 datum.
    with pytest.raises(ValueError, match="level 22 .* level 2$"):
        eigen_check(EisensteinDatum(2, 2), build_qexp(EisensteinDatum(22, 2), 30), 7)


def test_residue_tables():
    # Each table holds its residues as numerators over rad(n).
    assert residue_table(EisensteinDatum(45, 15, 3)).den == 15
    assert residue_table(EisensteinDatum(9, 1, 1)).res == ((1, 16), (3, -8), (9, 0))
    assert fraction_residues(residue_table(EisensteinDatum(3, 3, 1))) == (
        (1, Fraction(2)),
        (3, Fraction(-2)),
    )
    assert fraction_residues(residue_table(EisensteinDatum(9, 1, 1))) == (
        (1, Fraction(16, 3)),
        (3, Fraction(-8, 3)),
        (9, Fraction(0)),
    )
    assert fraction_residues(residue_table(EisensteinDatum(9, 3, 3))) == (
        (1, Fraction(6)),
        (3, Fraction(-2)),
        (9, Fraction(-2)),
    )
    assert fraction_residues(residue_table(EisensteinDatum(45, 15, 3))) == (
        (1, Fraction(24)),
        (3, Fraction(-8)),
        (5, Fraction(-24)),
        (9, Fraction(-8)),
        (15, Fraction(8)),
        (45, Fraction(8)),
    )


def test_residue_closed_examples():
    # numerators over rad(n), as in the table
    assert residue_closed(EisensteinDatum(9, 1, 1)) == (0, -8)
    assert fraction_residue_closed(EisensteinDatum(9, 1, 1)) == (Fraction(0), Fraction(-8, 3))
    assert fraction_residue_closed(EisensteinDatum(3, 3, 1)) == (Fraction(-2), Fraction(-2))
    assert fraction_residue_closed(EisensteinDatum(11, 11, 1))[1] == Fraction(-10)
    # at full radical the residue at infinity is prod (1 - p)
    assert fraction_residue_closed(EisensteinDatum(22, 22, 1))[0] == Fraction(10)
    assert fraction_residue_closed(EisensteinDatum(22, 11, 1))[0] == Fraction(0)


def test_residue_invariants_sweep():
    for n in range(2, 80):
        for datum in _valid_data(n):
            res = dict(fraction_residues(residue_table(datum)))
            assert sum(res[c.d] for c in enumerate_cusps(n)) == 0, datum
            at_inf, at_ml = fraction_residue_closed(datum)
            assert res[n] == at_inf, datum
            assert res[datum.m * datum.l_part] == at_ml, datum
            assert res[n] == -24 * fraction_qexp(build_qexp(datum, 2))[0], datum


@settings(max_examples=30)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(min_value=-6, max_value=6),
    prec=st.integers(min_value=4, max_value=24),
)
def test_level_maps_are_linear(p, k, prec):
    f = base_epp(p, prec)
    kf = QExpansion(f.n, tuple(k * a for a in f.coeffs))
    for kind in ("plus", "minus", "plain"):
        g = level_map(kind, f, 2)
        h = level_map(kind, kf, 2)
        assert h.coeffs == tuple(k * a for a in g.coeffs)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(min_value=10, max_value=40))
def test_hecke_multiplicative_coefficients(p, prec):
    # off-level operators commute on the base series
    f = base_epp(p, prec)
    qs = [q for q in (2, 3, 5) if q != p][:2]
    a = hecke_on_qexp(hecke_on_qexp(f, qs[0]), qs[1])
    b = hecke_on_qexp(hecke_on_qexp(f, qs[1]), qs[0])
    assert a.coeffs == b.coeffs


def _fraction_base_epp(p, prec):
    """Reference: the level-p series with every coefficient a Fraction."""
    if prec < 0:
        raise ValueError("precision must be non-negative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    sigma = [0] * (prec + 1)
    for d in range(1, prec + 1):
        if d % p:
            for k in range(d, prec + 1, d):
                sigma[k] += d
    return QExpansion(p, (Fraction(p - 1, 24), *map(Fraction, sigma[1:])))


def _fraction_hecke_on_qexp(f, q):
    """Reference: the level-q Hecke operator in Fraction arithmetic."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    prec = f.prec // q
    if f.n % q == 0:
        coeffs = tuple(f.coeffs[q * k] for k in range(prec + 1))
    else:
        coeffs = tuple(
            f.coeffs[q * k] + q * (f.coeffs[k // q] if k % q == 0 else Fraction(0))
            for k in range(prec + 1)
        )
    return QExpansion(f.n, coeffs)


def _integral(f):
    return all(type(a) is int for a in f.coeffs)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=2400),
    pick=st.integers(min_value=0),
    prec=st.integers(min_value=0, max_value=120),
    q=st.sampled_from([2, 3, 5, 7, 11, 13]),
    kind=st.sampled_from(["plus", "minus", "plain"]),
)
def test_integer_series_match_fraction_reference(n, pick, prec, q, kind):
    data = list(_valid_data(n))
    datum = data[pick % len(data)]
    f = build_qexp(datum, prec)
    with mock.patch.object(eisq, "base_epp", _fraction_base_epp):
        ref = build_qexp(datum, prec)
    # The package holds 24 a_k in integers; the reference holds a_k as Fractions.
    assert fraction_qexp(f) == ref.coeffs and _integral(f)
    g = hecke_on_qexp(f, q)
    assert fraction_qexp(g) == _fraction_hecke_on_qexp(ref, q).coeffs and _integral(g)
    h = level_map(kind, f, q)
    assert fraction_qexp(h) == level_map(kind, ref, q).coeffs and _integral(h)
    assert fraction_qexp(base_epp(q, prec)) == _fraction_base_epp(q, prec).coeffs


def _enumerated_euler_step(coeffs, q, k):
    """Reference: the generator body that scanned every coefficient."""
    return tuple(a - k * coeffs[j // q] if j % q == 0 else a for j, a in enumerate(coeffs))


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7, 11, 13]),
    plain=st.booleans(),
    a0=st.fractions(max_denominator=48),
    rest=st.one_of(
        st.lists(st.integers(), max_size=12),
        st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=200),
    ),
)
def test_euler_step_matches_enumerated_reference(q, plain, a0, rest):
    k = 1 if plain else q
    coeffs = (a0, *rest)  # prec = len(rest), from 0 past q
    out = eisq._euler_step(coeffs, q, k)
    assert out == _enumerated_euler_step(coeffs, q, k)
    assert type(out[0]) is Fraction and all(type(a) is int for a in out[1:])
