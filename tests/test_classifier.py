import math

import pytest

from cuspidal import classifier, classlattice, heckediv
from cuspidal.arith import factor, primes_upto
from cuspidal.classifier import (
    _hypothesis_ok,
    _new_candidate,
    enumerate_data,
    index_n,
    normalize_datum,
    rational_eisenstein_primes,
)
from cuspidal.cusps import ConsistencyError
from cuspidal.heckediv import EisensteinDatum
from reference import (
    hypothesis_ok_by_presentations,
    new_candidate_by_quotient,
    normalize_by_quotient,
)


def _keys(primes):
    return {(e.ell, e.datum.m, e.datum.d_part) for e in primes}


def test_enumerate_data_examples():
    assert [(d.m, d.d_part) for d in enumerate_data(11)] == [(11, 1)]
    assert [(d.m, d.d_part) for d in enumerate_data(9)] == [(1, 1), (3, 3)]
    assert [(d.m, d.d_part) for d in enumerate_data(33)] == [(3, 1), (11, 1), (33, 1)]
    assert [(d.m, d.d_part) for d in enumerate_data(32)] == [(1, 1), (2, 2)]
    assert enumerate_data(1) == ()


def test_enumerate_data_never_degenerate():
    for n in range(1, 120):
        for datum in enumerate_data(n):
            assert datum.m * datum.l_part != 1


def test_normalize_examples():
    assert normalize_datum(EisensteinDatum(33, 3, 1), 5).m == 33
    assert normalize_datum(EisensteinDatum(33, 11, 1), 5).m == 11
    # mod 2 every odd quotient prime is absorbed
    assert normalize_datum(EisensteinDatum(33, 3, 1), 2).m == 33
    assert normalize_datum(EisensteinDatum(34, 2, 1), 2).m == 34


def test_normalize_idempotent_and_monotone():
    for n in (33, 34, 45, 50, 98):
        for datum in enumerate_data(n):
            for ell in (2, 3, 5, 7):
                once = normalize_datum(datum, ell)
                assert once.m % datum.m == 0
                assert normalize_datum(once, ell) == once


def test_index_examples():
    assert index_n(EisensteinDatum(11, 11, 1)) == 5
    assert index_n(EisensteinDatum(33, 33, 1)) == 5
    assert index_n(EisensteinDatum(33, 11, 1)) == 10
    assert index_n(EisensteinDatum(9, 1, 1)) == 1
    assert index_n(EisensteinDatum(9, 3, 3)) == 1


def test_classify_eleven():
    primes = rational_eisenstein_primes(11)
    assert _keys(primes) == {(5, 11, 1)}
    (entry,) = primes
    assert entry.index_n == 5
    assert entry.hypothesis_ok
    assert entry.new_candidate


def test_classify_thirty_two():
    primes = rational_eisenstein_primes(32)
    assert _keys(primes) == {(2, 1, 1)}
    (entry,) = primes
    assert not entry.hypothesis_ok  # 4 divides N


def test_classify_thirty_three_mod_five():
    primes = rational_eisenstein_primes(33, ell=5)
    assert _keys(primes) == {(5, 33, 1), (5, 11, 1)}
    by_m = {e.datum.m: e for e in primes}
    assert by_m[33].index_n == 5
    assert by_m[11].index_n == 10
    assert by_m[33].new_candidate
    assert not by_m[11].new_candidate  # 3 is not -1 mod 5


def test_every_emission_divisible():
    for n in range(2, 80):
        for entry in rational_eisenstein_primes(n):
            assert entry.index_n % entry.ell == 0
            # normalized: no quotient prime is 1 mod ell
            from cuspidal.arith import parts, prime_divisors

            sf, _, _ = parts(n)
            quotient = sf * entry.datum.d_part // entry.datum.m
            assert all(q % entry.ell != 1 for q in prime_divisors(quotient))


def test_normalized_data_stay_among_the_level_data():
    # rational_eisenstein_primes reads the normalized datum's order from the
    # orders of enumerate_data(n)
    for n in range(1, 301):
        data = set(enumerate_data(n))
        for datum in data:
            for ell in primes_upto(13):
                assert normalize_datum(datum, ell) in data, (datum, ell)


def test_each_index_is_the_largest_over_the_ideals_presentations():
    # The presentations of an emitted ideal are the data whose order ell
    # divides and that normalize to the emitted datum.  The index is the
    # emitted datum's order when ell divides it, else the largest order over
    # the presentations: at N = 21, ell = 2 those are M = 3 (order 4) and
    # M = 7 (order 2), and the index is 4.
    emitted = decided = 0
    for n in range(1, 1001):
        orders = {datum: index_n(datum) for datum in enumerate_data(n)}
        for entry in rational_eisenstein_primes(n):
            ell, nd = entry.ell, entry.datum
            own = orders[nd]
            if own % ell == 0:
                assert entry.index_n == own, (n, ell, nd)
            else:
                shown = [
                    order
                    for datum, order in orders.items()
                    if order % ell == 0 and normalize_datum(datum, ell) == nd
                ]
                assert entry.index_n == max(shown), (n, ell, nd, shown)
                decided += len(set(shown)) > 1
            emitted += 1
    assert (emitted, decided) == (6676, 541)


def test_hypothesis_flags():
    # odd ell fails exactly when ell^2 divides N
    primes = rational_eisenstein_primes(125)
    assert any(e.ell == 5 and not e.hypothesis_ok for e in primes)
    # ell = 2 with an odd presentation: (2, I) at N = 14 comes from M = 2,
    # whose quotient 7 is odd and > 1
    primes14 = rational_eisenstein_primes(14, ell=2)
    assert len(primes14) == 1 and primes14[0].hypothesis_ok
    # prime level 17: the only presentation has quotient 1
    primes17 = rational_eisenstein_primes(17, ell=2)
    assert len(primes17) == 1 and not primes17[0].hypothesis_ok


def test_hypothesis_ok_matches_every_presentation():
    # Every datum at N < 3000, and the 4095 data at 2*3*...*37, where the
    # presentations of a datum number up to 2^11.
    seen = set()
    for n in (*range(1, 3000), math.prod(primes_upto(37))):
        for datum in enumerate_data(n):
            ok = _hypothesis_ok(2, datum)
            assert ok == hypothesis_ok_by_presentations(2, datum), datum
            seen.add(ok)
    assert seen == {True, False}


def test_normalize_and_newness_match_the_quotient_forms():
    # The eigenvalue forms against the (m, d_part) forms they replaced, at
    # every datum with N < 3000 and every prime ell <= 47.
    ells = primes_upto(47)
    for n in range(1, 3000):
        for datum in enumerate_data(n):
            for ell in ells:
                assert normalize_datum(datum, ell) == normalize_by_quotient(datum, ell)
                assert _new_candidate(ell, datum) == new_candidate_by_quotient(ell, datum)


def test_each_ideal_is_flagged_once(monkeypatch):
    calls = []

    def counted(ell, datum):
        calls.append((ell, datum.m, datum.d_part))
        return _hypothesis_ok(ell, datum)

    monkeypatch.setattr(classifier, "_hypothesis_ok", counted)
    primes = rational_eisenstein_primes(223092870)
    assert sorted(calls) == calls == sorted(_keys(primes))
    assert len(calls) == len(primes)


def test_squarefree_indexes_match_formula():
    from fractions import Fraction

    from cuspidal.arith import prime_divisors
    from reference import numerator_of

    for n in (6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39):
        for datum in enumerate_data(n):
            m = datum.m
            val = Fraction(1, 24)
            for p in prime_divisors(m):
                val *= p - 1
            for p in prime_divisors(n // m):
                val *= p * p - 1
            # odd parts agree; the factor-2 refinement is carried by the engine
            expected_odd = numerator_of(val)
            got = index_n(datum)
            while expected_odd % 2 == 0:
                expected_odd //= 2
            odd_got = got
            while odd_got % 2 == 0:
                odd_got //= 2
            assert odd_got == expected_odd, datum


def test_classify_never_builds_the_whole_level_divisor(monkeypatch):
    expected = {n: rational_eisenstein_primes(n) for n in (27720, 720720)}

    def unavailable(*args, **kwargs):
        raise AssertionError("classify reached the whole-level divisor or engine")

    names = (
        "build_c_divisor",
        "class_order",
        "closed_form_order",
        "apply_lambda_inverse",
        "_level_table",
        "over_primes",
    )
    for module in (classifier, classlattice, heckediv):
        for name in names:
            monkeypatch.setattr(module, name, unavailable, raising=False)
    for n, primes in expected.items():
        assert rational_eisenstein_primes(n) == primes


def _outside_the_closed_form(datum):
    # No prime has eps = 0, and some q with q^2 | N has eps_q = q.
    eps = [(q, r, heckediv.epsilon(datum, q)) for q, r in factor(datum.n)]
    return all(e for *_, e in eps) and any(r >= 2 and e == q for q, r, e in eps)


_FAR_LEVELS = (
    *(2**k for k in range(1, 41)),
    *(q**b * t for q in (1000033, 1000037) for b in range(1, 4) for t in (1, 2, 4, 8)),
)


@pytest.mark.parametrize(
    "levels", [range(1, 3001), (720720, 9699690, 15315300, 223092870), _FAR_LEVELS]
)
def test_index_n_matches_the_closed_form_wherever_it_applies(levels):
    covered = 0
    for n in levels:
        for datum in enumerate_data(n):
            closed = classlattice.closed_form_order(datum)
            assert (closed is None) == _outside_the_closed_form(datum), datum
            if closed is not None:
                assert index_n(datum) == closed, datum
                covered += 1
    assert covered


def test_index_n_rejects_a_divisor_of_nonzero_degree(monkeypatch):
    # (P_1) at every prime, whose local exponents are the eps = q entries:
    # each local degree is 1 and each local weight q - 1, which no datum's
    # divisor of degree 0 can have
    real = heckediv._local
    monkeypatch.setattr(heckediv, "_local", lambda q, r, eps: real(q, r, q))
    with pytest.raises(ConsistencyError, match="nonzero weight at every prime"):
        index_n(EisensteinDatum(33, 3, 1))
