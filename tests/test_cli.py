import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import arith, classifier, classlattice, cli, cusps, eisq, heckediv
from cuspidal.arith import divisors_of, parts, prime_divisors, primes_upto
from cuspidal.classifier import enumerate_data
from cuspidal.classlattice import lambda_inverse, lambda_rows
from cuspidal.cusps import RationalCuspDivisor, cusp_count
from cuspidal.cli import main, to_json


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cusps_text(capsys):
    code, out, _ = _run(capsys, "cusps", "9")
    assert code == 0
    assert "count: 4" in out


def test_order_both(capsys):
    code, out, _ = _run(capsys, "order", "11", "--M", "11", "--D", "1", "--method", "both")
    assert code == 0
    assert "order: 5" in out
    assert "engine_closed_match: True" in out


def test_order_json_round_trip(capsys):
    code, out, _ = _run(
        capsys, "order", "17", "--M", "17", "--method", "both", "--format", "json"
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["outputs"]["order"] == 4
    assert to_json(parsed) == out.rstrip("\n")


def test_order_not_covered_closed(capsys):
    code, out, _ = _run(
        capsys, "order", "45", "--M", "5", "--D", "3", "--method", "both", "--format", "json"
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["outputs"]["closed"] is None
    assert parsed["consistency"]["engine_closed_match"] is None


def test_order_closed_reports_the_order_outside_the_closed_form(capsys):
    code, out, _ = _run(
        capsys, "order", "45", "--M", "5", "--D", "3", "--method", "closed", "--format", "json"
    )
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["closed"] is None
    assert outputs["order"] == 4


def test_order_exits_two_when_the_engine_disagrees(capsys, monkeypatch):
    real = cli.class_order
    monkeypatch.setattr(cli, "class_order", lambda n, a: real(n, a) + 1)
    code, out, _ = _run(capsys, "order", "11", "--M", "11", "--method", "lattice")
    assert code == 2
    assert "order: 5" in out
    assert "engine: 6" in out


_ESCAPES = st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d4b3'))
_JSON_TEXT = st.one_of(st.text(), _ESCAPES)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**64)),
    st.floats(),
    _JSON_TEXT,
)
# The strings of the package's rationals: str(int) of any sign and size.
_DECIMAL = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**64)),
).map(str)
_RATIO = st.fixed_dictionaries({"num": _DECIMAL, "den": _DECIMAL})
_RATIOS = st.lists(_RATIO, max_size=4).map(cli._Ratios)
_VECTOR = st.lists(
    st.fixed_dictionaries({"d": st.integers(), "c": _RATIO}), max_size=4
).map(cli._Vector)
_MARKED = st.one_of(_RATIOS, _VECTOR, st.lists(_RATIOS, max_size=3))  # lambda's rows
_JSON_TREES = st.recursive(
    st.one_of(_JSON_LEAVES, _MARKED),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=_JSON_TREES)
def test_to_json_matches_json_dumps(tree):
    assert to_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_the_package_builds_its_rational_lists_and_vectors_marked(capsys, monkeypatch):
    # The reports' own lists reach the writer as `_Ratios` and `_Vector`,
    # whose template `test_to_json_matches_json_dumps` checks.
    seen = []
    monkeypatch.setattr(cli, "to_json", lambda report: seen.append(report["outputs"]) or "")
    for argv in (
        ("qexp", "60", "--M", "3", "--prec", "5"),
        ("lambda", "12"),
        ("residues", "60", "--M", "3"),
        ("cdivisor", "60", "--M", "3"),
        ("hecke", "12", "--p", "2", "--divisor", "1:1,3:-1"),
    ):
        assert _run(capsys, *argv, "--format", "json")[0] == 0
    qexp, lam, residues, cdivisor, hecke = seen
    assert type(qexp["coefficients"]) is cli._Ratios
    assert {type(row) for row in lam["rows"]} == {cli._Ratios}
    assert type(residues["residues"]) is cli._Vector
    assert type(cdivisor["coefficients"]) is cli._Vector
    assert type(hecke["image"]) is type(hecke["input"]) is cli._Vector


# `--format text` of reports with rational lists and divisor vectors, and
# the SHA-256 of their bytes, taken before `_emit` wrote them by template.
_TEXT_GOLDEN = [
    (
        ("qexp", "4725", "--M", "7", "--prec", "300"),
        "932688f62d4b062be443362f4a00429052ee46e1854c94e81c740a081b11a241",
    ),
    (
        ("qexp", "304920", "--M", "15", "--D", "33", "--prec", "300"),
        "951673b7296cdf97c488c175a38224a1c7ed9382d5f08ed7067541887fb053d8",
    ),
    (
        ("qexp", "2310", "--M", "1155", "--D", "1", "--prec", "2000"),
        "bc5a6a621af3d0d82a4bf339a1cc8d965ac4559dfc2a2ce23b13e82365cd1333",
    ),
    (
        ("residues", "4725", "--M", "7"),
        "e6b07aeac3861085b3f704b002b19398c3e8df5d9fbc5512d75a4553be6caef4",
    ),
    (
        ("residues", "304920", "--M", "15", "--D", "33"),
        "0feee4a6cc2cf5518f9cea1d887844c9c25facea9c5b1d4cbd1bf20f64b9991a",
    ),
    (
        ("residues", "1990656", "--M", "2", "--D", "6"),
        "92d1484b69b0d160e981ac287f18aa791dd7450a813f4e4ac58f1d7245f2ba22",
    ),
    (
        ("lambda", "1024", "--inverse"),
        "d9f6cbc9230f760ccfc29c3ff585ec23e7dc3ef4ae5a70dc1be7e9759ac16192",
    ),
    (
        ("lambda", "27720", "--inverse"),
        "d92ca69bd49af306f23db9421552338e6a86e2d3f4ba394d855b7e950a7d009b",
    ),
    (
        ("lambda", "153125", "--inverse"),
        "adabc5bfcb4d9753cf797d032b84af64fdba0e93b28a3bb909d260697ba919ea",
    ),
    (("lambda", "360"), "8d6ecd45bec9340ac63d89a1783d86a2d33676f70737aab4b8ab52d2a92edf24"),
    (
        ("cdivisor", "27720", "--M", "7"),
        "ab0a9d364fe5d2788f54c89fea4681d316ee5113cd49482f534957a32a109ae8",
    ),
    (
        ("hecke", "27720", "--p", "13", "--divisor", "1:3,8:-1,45:2,27720:-5,12:4"),
        "ad27a1286d9b0a5a7a076acc98ce18f67d6ace3df89784a7dd152d0463557cc9",
    ),
]


@pytest.mark.parametrize("argv, sha256", _TEXT_GOLDEN)
def test_text_reports_keep_their_bytes(capsys, argv, sha256):
    code, out, _ = _run(capsys, *argv, "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_determinism(capsys):
    code1, out1, _ = _run(capsys, "classify", "33", "--format", "json")
    code2, out2, _ = _run(capsys, "classify", "33", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "timing_ms" not in out1


def test_classify_json(capsys):
    code, out, _ = _run(capsys, "classify", "11", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["outputs"]["primes"] == [
        {
            "D": 1,
            "M": 11,
            "ell": 5,
            "hypothesis_ok": True,
            "index": 5,
            "new_candidate": True,
        }
    ]


def test_classify_with_ell_filter(capsys):
    code, out, _ = _run(capsys, "classify", "33", "--ell", "5", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert {(p["ell"], p["M"]) for p in parsed["outputs"]["primes"]} == {(5, 11), (5, 33)}


def test_cdivisor(capsys):
    code, out, _ = _run(capsys, "cdivisor", "9", "--M", "1", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert parsed["outputs"]["coefficients"] == [
        {"d": 1, "c": {"num": "2", "den": "1"}},
        {"d": 3, "c": {"num": "-1", "den": "1"}},
    ]
    assert parsed["consistency"]["degree_zero"] is True


def test_residues(capsys):
    code, out, _ = _run(capsys, "residues", "9", "--M", "1", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert parsed["consistency"] == {
        "closed_matches_infinity": True,
        "closed_matches_level_ml": True,
        "normalization_link": True,
        "weighted_sum_zero": True,
    }


def test_qexp(capsys):
    code, out, _ = _run(capsys, "qexp", "3", "--M", "3", "--prec", "4", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert parsed["outputs"]["coefficients"][0] == {"num": "1", "den": "12"}
    assert parsed["outputs"]["coefficients"][2] == {"num": "3", "den": "1"}


def test_hecke(capsys):
    code, out, _ = _run(
        capsys, "hecke", "11", "--p", "11", "--divisor", "11:1", "--format", "json"
    )
    parsed = json.loads(out)
    assert code == 0
    assert parsed["outputs"]["image"] == [
        {"d": 1, "c": {"num": "10", "den": "1"}},
        {"d": 11, "c": {"num": "1", "den": "1"}},
    ]


def test_invalid_input_exits_one(capsys):
    assert _run(capsys, "order", "11", "--M", "7")[0] == 1
    assert _run(capsys, "hecke", "11", "--p", "4", "--divisor", "1:1") == (
        1,
        "",
        "cuspidal: error: 4 is not prime\n",
    )
    assert _run(capsys, "cusps", "not-a-number")[0] == 1


@pytest.mark.parametrize("ell", ["4", "0", "-1", "1"])
def test_classify_rejects_non_prime_ell(capsys, ell):
    code, out, err = _run(capsys, "classify", "12", "--ell", ell)
    assert code == 1
    assert out == ""
    assert err == f"cuspidal: error: {ell} is not prime\n"


@pytest.mark.parametrize("prec", ["100001", "3000000", str(10**12)])
def test_precision_above_the_budget_exits_one(capsys, monkeypatch, prec):
    def refused(*args):
        raise AssertionError("qexp started the series")

    monkeypatch.setattr(cli, "build_qexp", refused)
    code, out, err = _run(capsys, "qexp", "6", "--M", "2", "--prec", prec)
    assert code == 1
    assert out == ""
    assert err == f"cuspidal: error: --prec {prec} exceeds the budget 100000\n"


def test_negative_precision_exits_one(capsys):
    code, out, err = _run(capsys, "qexp", "6", "--M", "2", "--prec", "-1")
    assert code == 1
    assert out == ""
    assert err == "cuspidal: error: precision must be non-negative\n"


def test_lambda_inverse_flag(capsys):
    code, out, _ = _run(capsys, "lambda", "9", "--inverse", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert parsed["outputs"]["rows"][1][1] == {"num": "10", "den": "1"}


def test_lambda_writes_each_entry_as_its_fraction(capsys):
    # Integer rows over their scales, and over the inverse's one den, read
    # as Fractions: the numerator and denominator strings the report holds.
    for n in sorted({*range(1, 400), *_pinned_levels("lambda")}):
        matrix, scale = lambda_rows(n)
        inverse, den = lambda_inverse(n)
        cases = (((), matrix, scale), (("--inverse",), inverse, [den] * len(inverse)))
        for flag, rows, dens in cases:
            code, out, _ = _run(capsys, "lambda", str(n), *flag, "--format", "json")
            fractions = [[Fraction(x, s) for x in row] for row, s in zip(rows, dens)]
            expected = [
                [{"num": str(x.numerator), "den": str(x.denominator)} for x in row]
                for row in fractions
            ]
            assert (code, json.loads(out)["outputs"]["rows"]) == (0, expected), (n, flag)


def test_sweep_small(capsys):
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert parsed["consistency"]["all_invariants_hold"] is True
    assert parsed["outputs"]["failures"] == []


def test_sweep_reports_a_broken_engine(capsys, monkeypatch):
    real = cli.lambda_inverse

    def one_entry_off(n):
        (first, *rest), den = real(n)
        return ((first[0] + 1, *first[1:]), *rest), den

    monkeypatch.setattr(cli, "lambda_inverse", one_entry_off)
    report, ok = cli.run_sweep(6)
    assert not ok
    labels = ("Lambda inverse at {}", "solver agreement at {}")
    assert report["failures"] == [label.format(n) for n in range(1, 7) for label in labels]
    code, out, _ = _run(capsys, "sweep", "--max-N", "6", "--format", "json")
    assert code == 2
    assert json.loads(out)["consistency"]["all_invariants_hold"] is False


def test_sweep_reports_a_perturbed_block_triple(capsys, monkeypatch):
    real = classlattice._block

    def perturbed(q, r, at):
        den, diag, below, above, chains = real(q, r, at)
        if (q, r) != (2, 1):
            return den, diag, below, above, chains
        # T_2[0][0] up by one and T_2[1][0] down by one: the column sums, and
        # with them the weight of every exponent vector, stay as they were.
        return den, (diag[0] + 1, *diag[1:]), (below[0] - 1, *below[1:]), above, chains

    monkeypatch.setattr(classlattice, "_block", perturbed)
    # The level tables hold their blocks: build them afresh with the perturbed
    # block, and drop them again so that no later test reads one.
    classlattice._level_table.cache_clear()
    try:
        code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    finally:
        classlattice._level_table.cache_clear()
    assert code == 2
    parsed = json.loads(out)
    assert parsed["consistency"]["all_invariants_hold"] is False
    failures = parsed["outputs"]["failures"]
    assert [f for f in failures if f.startswith("Lambda inverse at ")] == [
        f"Lambda inverse at {n}" for n in (2, 6, 10)
    ]


def test_sweep_reports_a_block_that_breaks_the_weight(capsys, monkeypatch):
    checks = cli.run_sweep(12)[0]["checks"]
    real = classlattice._block

    def perturbed(q, r, at):
        den, diag, below, above, chains = real(q, r, at)
        if (q, r) != (2, 1):
            return den, diag, below, above, chains
        # T_2[0][0] up by one alone: the column sums of T_2 move, so the
        # engine's image of a degree-0 divisor at 2 || N has nonzero weight
        # and class_order raises; the sweep records it and goes on.
        return den, (diag[0] + 1, *diag[1:]), below, above, chains

    monkeypatch.setattr(classlattice, "_block", perturbed)
    classlattice._level_table.cache_clear()
    try:
        code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    finally:
        classlattice._level_table.cache_clear()
    assert code == 2
    outputs = json.loads(out)["outputs"]
    assert outputs["checks"] == checks
    orders = {2: [2], 6: [2, 3, 6], 10: [2, 5, 10]}
    assert outputs["failures"] == [
        label
        for n, ms in orders.items()
        for label in (
            f"Lambda inverse at {n}",
            f"solver agreement at {n}",
            *(f"order of EisensteinDatum(n={n}, m={m}, d_part=1)" for m in ms),
        )
    ]


def test_sweep_reads_the_normalization_off_the_checked_series(capsys, monkeypatch):
    real = cli.build_qexp

    def shifted(datum, prec):
        f = real(datum, prec)
        return eisq.QExpansion(f.n, (f.coeffs[0] + 24, *f.coeffs[1:]))  # a_0 + 1

    monkeypatch.setattr(cli, "build_qexp", shifted)
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    parsed = json.loads(out)
    failures = parsed["outputs"]["failures"]
    normalization = [f for f in failures if f.startswith("residue normalization of ")]
    assert len(normalization) == parsed["outputs"]["data"]


def _one_entry_off(real):
    """real, with the first entry of the (vector, den) it returns raised by one."""

    def patched(*args):
        (first, *rest), den = real(*args)
        return (first + 1, *rest), den

    return patched


def test_sweep_reports_a_broken_exponent_vector(capsys, monkeypatch):
    monkeypatch.setattr(cli, "r_vector", _one_entry_off(cli.r_vector))
    report, ok = cli.run_sweep(12)
    assert not ok
    assert report["failures"] == [
        f"exponent vector of {datum}"
        for n in range(1, 13)
        for datum in enumerate_data(n)
        if math.gcd(datum.m, datum.d_part) == 1
    ]
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    assert json.loads(out)["consistency"]["all_invariants_hold"] is False


def _break_residue_divisor(monkeypatch) -> None:
    """Move the local divisor's entry at q^0 for the residues alone: the
    local table is perturbed only while eisq's `over_primes` runs."""
    real_local, real_over_primes = heckediv._local, eisq.over_primes

    def entry_off(*args):
        c, entries, scale = real_local(*args)
        return [c[0] + 1, *c[1:]], entries, scale

    def over_primes(*args):
        with monkeypatch.context() as patch:
            patch.setattr(heckediv, "_local", entry_off)
            return real_over_primes(*args)

    monkeypatch.setattr(eisq, "over_primes", over_primes)


def test_sweep_reports_broken_residues(capsys, monkeypatch):
    _break_residue_divisor(monkeypatch)
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    parsed = json.loads(out)
    assert parsed["consistency"]["all_invariants_hold"] is False
    # The patch moves the local factor at q^0, so every weighted sum breaks,
    # and the residue at level ML moves where ML misses a prime of N.
    expected = []
    for n in range(1, 13):
        for datum in enumerate_data(n):
            expected.append(f"residue sum of {datum}")
            if any(datum.m * datum.l_part % q for q in prime_divisors(n)):
                expected.append(f"residue at level ML of {datum}")
    assert len(expected) == 29
    assert parsed["outputs"]["failures"] == expected


def test_residues_reports_a_nonzero_weighted_sum(capsys, monkeypatch):
    _break_residue_divisor(monkeypatch)
    code, out, err = _run(capsys, "residues", "12", "--M", "3", "--format", "json")
    assert code == 2
    assert err == ""
    consistency = json.loads(out)["consistency"]
    assert consistency["weighted_sum_zero"] is False
    assert consistency["closed_matches_level_ml"] is True


def _patch_local_table(monkeypatch, patched) -> None:
    """Replace the local table; `heckediv.local_tables` is its one reader."""
    monkeypatch.setattr(heckediv, "_local", patched)


def _break_local_divisor(monkeypatch) -> None:
    """Raise the entry at q^0 of every local divisor by one, so that every
    datum's divisor has a nonzero degree."""
    real = heckediv._local

    def patched(*args):
        c, entries, scale = real(*args)
        return [c[0] + 1, *c[1:]], entries, scale

    _patch_local_table(monkeypatch, patched)


def test_cdivisor_prints_a_nonzero_degree_and_exits_two(capsys, monkeypatch):
    _break_local_divisor(monkeypatch)
    code, out, err = _run(capsys, "cdivisor", "11", "--M", "11", "--format", "json")
    assert (code, err) == (2, "")
    parsed = json.loads(out)
    assert parsed["outputs"]["degree"] == 1
    assert parsed["consistency"] == {"degree_zero": False}


@pytest.mark.parametrize("method", ["lattice", "both"])
def test_order_refuses_a_nonzero_degree_before_the_engine(capsys, monkeypatch, method):
    _break_local_divisor(monkeypatch)

    def engine(n, div):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(cli, "class_order", engine)
    assert _run(capsys, "order", "11", "--M", "11", "--method", method) == (
        2,
        "",
        "cuspidal: consistency failure: divisor built for "
        "EisensteinDatum(n=11, m=11, d_part=1) has degree 1\n",
    )


def test_sweep_lists_divisors_of_nonzero_degree_under_their_families(monkeypatch):
    # No check aborts the sweep: each family that reads the divisor reports
    # it, and the sweep runs as many checks as on the sound table.
    clean, _ = cli.run_sweep(12)
    _break_local_divisor(monkeypatch)
    report, ok = cli.run_sweep(12)
    assert not ok
    assert report["checks"] == clean["checks"] == 547
    data = [datum for n in range(1, 13) for datum in enumerate_data(n)]
    failures = report["failures"]

    def family(prefix: str) -> list[str]:
        return [label for label in failures if label.startswith(prefix)]

    assert family("residue sum of ") == [f"residue sum of {datum}" for datum in data]
    closed = [datum for datum in data if classlattice.closed_form_order(datum) is not None]
    assert family("order of ") == [f"order of {datum}" for datum in closed]
    assert family("exponent vector of ") == [
        f"exponent vector of {datum}" for datum in data if math.gcd(datum.m, datum.d_part) == 1
    ]
    assert len(family("divisor eigenvalue of ")) == 26
    assert len(family("residue at level ML of ")) == 7
    assert len(failures) == 93


def _sweep_with_broken_local_exponents(capsys, monkeypatch, broken) -> list[str]:
    real = heckediv._local

    def patched(*args):
        c, entries, scale = real(*args)
        return c, broken(entries), scale

    _patch_local_table(monkeypatch, patched)
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    parsed = json.loads(out)
    assert parsed["consistency"]["all_invariants_hold"] is False
    return parsed["outputs"]["failures"]


def test_sweep_reports_broken_local_exponents(capsys, monkeypatch):
    # +1 on e_0 makes every local weight nonzero, so `index_n` raises
    # ConsistencyError at every datum and `sweep` records a failed order
    # wherever the closed form applies.
    failures = _sweep_with_broken_local_exponents(
        capsys, monkeypatch, lambda e: [e[0] + 1, *e[1:]]
    )
    expected = []
    for n in range(1, 13):
        for datum in enumerate_data(n):
            if classlattice.closed_form_order(datum) is not None:
                expected.append(f"order of {datum}")
            if math.gcd(datum.m, datum.d_part) == 1:
                expected.append(f"exponent vector of {datum}")
    assert len(expected) == 38
    assert failures == expected


def test_sweep_reports_a_unit_moved_between_local_exponents(capsys, monkeypatch):
    # One unit moved from e_1 to e_0 keeps every local weight at 0, so
    # `index_n` reads the broken table instead of refusing it.  It reads the
    # scales, the weights and one moment alone, and the moment turns odd only
    # at (9; 1, 1); the entries stay checked by "exponent vector of ...".
    failures = _sweep_with_broken_local_exponents(
        capsys, monkeypatch, lambda e: [e[0] + 1, e[1] - 1, *e[2:]]
    )
    expected = []
    for n in range(1, 13):
        for datum in enumerate_data(n):
            if (datum.n, datum.m, datum.d_part) == (9, 1, 1):
                expected.append(f"order of {datum}")
            if math.gcd(datum.m, datum.d_part) == 1:
                expected.append(f"exponent vector of {datum}")
    assert len(expected) == 18
    assert failures == expected


def test_sweep_reports_a_broken_local_order(capsys, monkeypatch):
    # classify reads the local orders alone; `sweep` is where they meet the
    # closed form and the whole-level engine.  A local scale 5 times too
    # large at q = 3 moves every order and exponent vector there that
    # `sweep` checks.  The scale also fixes the residues' one scalar: the
    # residue at level ML moves, and where M is the radical so do the residue
    # at infinity and its link to the series' constant term.
    expected = []
    for n in range(3, 13, 3):
        for datum in enumerate_data(n):
            if classlattice.closed_form_order(datum) is not None:
                expected.append(f"order of {datum}")
            if math.gcd(datum.m, datum.d_part) == 1:
                expected.append(f"exponent vector of {datum}")
            m_is_radical = datum.m == parts(n)[2]
            if m_is_radical:
                expected.append(f"residue at infinity of {datum}")
            expected.append(f"residue at level ML of {datum}")
            if m_is_radical:
                expected.append(f"residue normalization of {datum}")
    assert len(expected) == 37
    real = heckediv._local

    def perturbed(q, r, eps):
        c, entries, scale = real(q, r, eps)
        return (c, entries, 5 * scale) if q == 3 else (c, entries, scale)

    _patch_local_table(monkeypatch, perturbed)
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    failures = json.loads(out)["outputs"]["failures"]
    assert "order of EisensteinDatum(n=3, m=3, d_part=1)" in failures
    assert failures == expected


def test_sweep_reports_a_broken_divisor_eigenvalue(capsys, monkeypatch):
    # (P_1) - (P_N) added to T_p of every degree-0 divisor breaks the exact
    # eigenvector identity at every datum and prime, the data whose M shares
    # a prime with D included; the single (P_d) of the case table keep T_p.
    real = cli.hecke_delta

    def perturbed(div, p):
        image = real(div, p)
        if div.degree():
            return image
        return image + RationalCuspDivisor.from_dict(div.n, {1: 1, div.n: -1})

    monkeypatch.setattr(cli, "hecke_delta", perturbed)
    report, ok = cli.run_sweep(12)
    assert not ok
    expected = [
        f"divisor eigenvalue of {datum} at {p}"
        for n in range(1, 13)
        for datum in enumerate_data(n)
        for p in prime_divisors(n)
    ]
    assert "divisor eigenvalue of EisensteinDatum(n=12, m=6, d_part=2) at 2" in expected
    assert len(expected) == 33
    assert report["failures"] == expected


def test_sweep_reports_a_broken_solver(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_lambda", _one_entry_off(cli.solve_lambda))
    report, ok = cli.run_sweep(6)
    assert not ok
    assert report["failures"] == [f"solver agreement at {n}" for n in range(1, 7)]
    code, out, _ = _run(capsys, "sweep", "--max-N", "6", "--format", "json")
    assert code == 2
    assert json.loads(out)["consistency"]["all_invariants_hold"] is False


_BIG_SQUARE = (10**9 + 7) ** 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hecke", "0", "--p", "2", "--divisor", "1:1"), "level 0 is not a positive integer"),
        (("hecke", "-3", "--p", "2", "--divisor", "1:1"), "level -3 is not a positive integer"),
        (
            ("hecke", "12", "--p", "2", "--divisor", "1:1,,2:1"),
            "--divisor term '' is not level:coefficient",
        ),
        (
            ("hecke", "12", "--p", "2", "--divisor", "1:x"),
            "--divisor term '1:x' is not level:coefficient",
        ),
        (
            ("hecke", "12", "--p", "2", "--divisor", "4"),
            "--divisor term '4' is not level:coefficient",
        ),
        (("cusps", "0"), "level 0 is not a positive integer"),
        (("lambda", "0", "--inverse"), "level 0 is not a positive integer"),
        (("cdivisor", "-2", "--M", "2"), "level -2 is not a positive integer"),
        (("order", "0", "--M", "1"), "level 0 is not a positive integer"),
        (("residues", "-5", "--M", "5"), "level -5 is not a positive integer"),
        (("qexp", "0", "--M", "1"), "level 0 is not a positive integer"),
        (("classify", "-12"), "level -12 is not a positive integer"),
        # 2^89 - 1 is prime, but the strong test proves primality only below
        # 3317044064679887385961981, and trial division would take years.
        (
            ("classify", "12", "--ell", str(2**89 - 1)),
            f"cannot decide whether {2**89 - 1} is prime at or above 3317044064679887385961981",
        ),
        (
            ("hecke", "12", "--p", str(2**89 - 1), "--divisor", "1:1"),
            f"cannot decide whether {2**89 - 1} is prime at or above 3317044064679887385961981",
        ),
        (("sweep", "--max-N", "100000"), "--max-N 100000 exceeds the budget 1000"),
        # Python 3.10 to 3.12 read `--opt=--` as an empty list; every
        # version reads it as "--", as 3.13 does, and the subcommand's parser
        # names an int option that cannot take it.
        (
            ("sweep", "--max-N=--"),
            "cuspidal sweep: error: argument --max-N: invalid int value: '--'",
        ),
        (("qexp", "5", "--M=--"), "cuspidal qexp: error: argument --M: invalid int value: '--'"),
        (
            ("classify", "12", "--ell=--"),
            "cuspidal classify: error: argument --ell: invalid int value: '--'",
        ),
        (
            ("hecke", "12", "--p", "2", "--divisor=--"),
            "--divisor term '--' is not level:coefficient",
        ),
        # (10^9 + 7)^2 and 2^91: the count is read off the factorization,
        # and the cusps are never listed.
        (
            ("cusps", str(_BIG_SQUARE)),
            f"level {_BIG_SQUARE} has 1000000008 cusps, above the budget 100000",
        ),
        (
            ("cusps", str(2**91)),
            f"level {2**91} has 70368744177664 cusps, above the budget 100000",
        ),
        # `hecke_delta` tests the prime, after the divisor is read.
        (
            ("hecke", "12", "--p", "4", "--divisor", "1:x"),
            "--divisor term '1:x' is not level:coefficient",
        ),
    ],
)
def test_hecke_invalid_input_names_the_input(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    if not message.startswith("cuspidal "):
        message = f"cuspidal: error: {message}"
    assert err == f"{message}\n"


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (("classify", "12", "--ell", "1000000000000000003"), {"primes": []}),
        (
            ("hecke", "12", "--p", "1000000000000000003", "--divisor", "1:1"),
            {
                "image": [{"c": {"den": "1", "num": "1000000000000000004"}, "d": 1}],
                "input": [{"c": {"den": "1", "num": "1"}, "d": 1}],
            },
        ),
    ],
)
def test_a_large_prime_argument_is_decided_at_once(capsys, argv, outputs):
    # Primality of an 18-digit argument used to fall through to trial division.
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["outputs"] == outputs


_P18 = 1000000000000000003


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (
            ("cusps", str(_P18)),
            {"count": 2, "cusps": [{"d": 1, "x": 1}, {"d": _P18, "x": 1}]},
        ),
        (
            ("lambda", str(_P18)),
            {
                "divisors": [1, _P18],
                "inverse": False,
                "rows": [
                    [{"den": "24", "num": str(_P18)}, {"den": "24", "num": "1"}],
                    [{"den": "24", "num": "1"}, {"den": "24", "num": str(_P18)}],
                ],
            },
        ),
    ],
)
def test_a_large_prime_level_is_factored_at_once(argv, outputs):
    # `factor` used to trial-divide up to the square root of the level; a
    # fresh process must answer within a second.
    run = _entry([*argv, "--format", "json"], timeout=1)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["outputs"] == outputs


@pytest.mark.parametrize("command", ["cusps", "classify"])
def test_a_level_that_rho_cannot_split_is_refused_within_its_budget(command):
    # Pollard-Brent would need about 10^9 steps; it stops at 2^20, in about
    # 0.3 s on a 2-vCPU host, and names the level and the budget.
    level = (10**18 + 3) * (10**18 + 9)
    run = _entry([command, str(level)], timeout=2)
    assert (run.returncode, run.stdout) == (1, "")
    message = f"cannot factor {level}: no split within 1048576 rho steps"
    assert run.stderr == f"cuspidal: error: {message}\n"


@pytest.mark.parametrize("level", [_BIG_SQUARE, 2**91])
def test_a_cusp_count_above_the_budget_is_refused_at_once(level):
    # `cusps` used to list every cusp, about 10^9 and 2^45 of them here.
    run = _entry(["cusps", str(level)], timeout=1)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith(f"cuspidal: error: level {level} has ")


def _pinned_levels(command) -> list[int]:
    """The levels of every pinned request of command: the pool's and the golden ones."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
    pinned = [pool["setup"]["argv"]]
    for strata in pool["workloads"].values():
        pinned += [request["argv"] for stratum in strata for request in stratum]
    pinned += [argv for argv, _ in _GOLDEN]
    return [int(argv[1]) for argv in pinned if argv[0] == command]


def test_the_budget_sits_above_every_pinned_cusps_request():
    levels = _pinned_levels("cusps")
    assert levels and max(map(cusp_count, levels)) <= cli._CUSP_BUDGET


@pytest.mark.parametrize("level, tau", [(6469693230, 1024), (200560490130, 2048)])
@pytest.mark.parametrize("inverse", [(), ("--inverse",)], ids=["matrix", "inverse"])
def test_a_lambda_above_the_tau_budget_is_refused_at_once(level, tau, inverse):
    # These used to write 72 MB, and to run past 10 s; tau = 384 takes 0.4 s.
    run = _entry(["lambda", str(level), *inverse], timeout=2)
    assert (run.returncode, run.stdout) == (1, "")
    message = f"level {level} has {tau} divisors, above the budget 384"
    assert run.stderr == f"cuspidal: error: {message}\n"


def test_the_tau_budget_sits_above_every_pinned_lambda_request():
    levels = _pinned_levels("lambda")
    assert levels and max(len(divisors_of(n)) for n in levels) <= cli._LAMBDA_BUDGET


# 2*3*...*79: tau = 2^22 divisors and cusps.
_P79 = 3217644767340672907899084554130


@pytest.mark.parametrize(
    "argv, counted, budget",
    [
        (["lambda"], "divisors", 384),
        (["cusps"], "cusps", 100000),
        (["classify"], "divisors", 8192),
        (["order", "--M", "2"], "divisors", 65536),
        (["order", "--M", "2", "--method", "lattice"], "divisors", 65536),
        (["residues", "--M", "2"], "divisors", 65536),
        (["cdivisor", "--M", "2"], "divisors", 65536),
    ],
    ids=["lambda", "cusps", "classify", "order", "order-lattice", "residues", "cdivisor"],
)
def test_a_level_of_many_divisors_is_refused_at_once(argv, counted, budget):
    # tau(N) and the cusp count are read off the factorization.  These used
    # to list every divisor first: 2.0 s for lambda, 3.3 s for cusps, and
    # classify and order at tau = 2^20 ran past 19 s; residues took 4.6 s
    # at tau = 2^20 and cdivisor 1.9 s here.
    run = _entry([argv[0], str(_P79), *argv[1:]], timeout=1)
    assert (run.returncode, run.stdout) == (1, "")
    message = f"level {_P79} has {2**22} {counted}, above the budget {budget}"
    assert run.stderr == f"cuspidal: error: {message}\n"


@pytest.mark.parametrize(
    "level, budget, past",
    [
        (19399380, cli._LAMBDA_BUDGET, 23),  # 2^2*3*5*...*19: tau = 384
        (math.prod(primes_upto(41)), cli._CLASSIFY_BUDGET, 43),  # tau = 8192
        (math.prod(primes_upto(53)), cli._WHOLE_LEVEL_BUDGET, 59),  # tau = 65536
    ],
)
def test_a_level_at_its_tau_budget_is_served_and_one_prime_more_is_refused(level, budget, past):
    assert math.prod(e + 1 for _, e in arith.factor(level)) == budget
    cli._check_tau(level, budget)
    message = f"level {level * past} has {2 * budget} divisors, above the budget {budget}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli._check_tau(level * past, budget)


def test_order_by_the_closed_form_alone_has_no_tau_budget(capsys):
    argv = ("order", str(_P79), "--M", "2", "--method", "closed", "--format", "json")
    code, out, _ = _run(capsys, *argv)
    outputs = json.loads(out)["outputs"]
    assert code == 0
    assert outputs["closed"] == outputs["order"]


def test_the_tau_budgets_sit_above_every_pinned_classify_and_order_request():
    budgets = (("classify", cli._CLASSIFY_BUDGET), ("order", cli._WHOLE_LEVEL_BUDGET))
    for command, budget in budgets:
        levels = _pinned_levels(command)
        assert levels and max(len(divisors_of(n)) for n in levels) <= budget, command


def test_the_whole_level_budget_sits_above_every_pinned_residues_and_cdivisor_request():
    # The pool pins no `cdivisor` request; `residues` builds the same divisor.
    levels = _pinned_levels("residues") + _pinned_levels("cdivisor")
    assert levels and max(len(divisors_of(n)) for n in levels) <= cli._WHOLE_LEVEL_BUDGET


def test_classifying_every_level_to_3000_keeps_both_caches_within_their_bound(capsys):
    # One process asks `factor` for 4127 numbers here (each level and the
    # lcm of its class orders) and `divisors_of` for 1824.
    for fn in (arith.factor, arith.divisors_of):
        fn.cache_clear()
    for n in range(1, 3001):
        assert _run(capsys, "classify", str(n), "--format", "json")[0] == 0
    for fn in (arith.factor, arith.divisors_of):
        assert fn.cache_info().currsize <= 4096
    # 4097 numbers the walk never asked for fill each cache past its bound,
    # however few the walk itself missed.
    for fn in (arith.factor, arith.divisors_of):
        misses = fn.cache_info().misses
        for n in range(10**6, 10**6 + 4097):
            fn(n)
        info = fn.cache_info()
        assert (info.misses - misses, info.currsize) == (4097, 4096)


def test_classifying_every_level_to_1000_keeps_its_bytes(capsys):
    # Taken while `classify` factored every class order.
    digest = hashlib.sha256()
    for n in range(1, 1001):
        code, out, _ = _run(capsys, "classify", str(n), "--format", "json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "6c5a4d3d77e19e2b29fe9e9d7ff702060f58e3ceedc9fb1cf3a5f7f985c65eff"


def test_classify_factors_the_lcm_of_its_class_orders_once(capsys):
    # 3075 misses when each order was factored apart, most of them trial
    # division of an order with a prime above 2^16.
    level = "12345678901234567890123456789"  # tau = 4096, largest prime 2906161
    arith.factor.cache_clear()
    code, out, _ = _run(capsys, "classify", level, "--format", "json")
    assert code == 0 and arith.factor.cache_info().misses <= 40
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9215cae795fbbc3844e8fe9f81ebae8179555d983300603024060ad52a18e260"
    )


def test_cusps_exits_two_when_the_count_disagrees_with_the_formula(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cusp_count", lambda n: cusp_count(n) + 1)
    code, out, err = _run(capsys, "cusps", "9", "--format", "json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["consistency"] == {"count_matches_formula": False}
    assert report["outputs"]["count"] == 4


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_sweep_rejects_a_bound_below_one(capsys, bound):
    code, out, err = _run(capsys, "sweep", "--max-N", bound)
    assert code == 1
    assert out == ""
    assert err == f"cuspidal: error: sweep bound {bound} is not a positive integer\n"
    with pytest.raises(ValueError):
        cli.run_sweep(int(bound))


def test_only_a_malformed_request_builds_the_parser(capsys, monkeypatch):
    # A well-formed request is read from the option table and builds no
    # parser; each malformed one builds it once.
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    assert _run(capsys, "cusps", "4")[0] == 0
    assert built == []
    assert _run(capsys, "cusps")[0] == 1
    assert _run(capsys, "cusps", "4", "--format", "xml")[0] == 1
    assert built == [1, 1]


def test_timing_flag_optional(capsys):
    code, out, _ = _run(capsys, "cusps", "4", "--timing", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert "timing_ms" in parsed


# The golden requests and the SHA-256 of their JSON reports.
_GOLDEN = [
    (
        ("classify", "5040"),
        "b924349848e65b5e964846f648c59b33b7a9b774f2a4d17da9917d2c74f3ac30",
    ),
    (
        ("classify", "27720"),
        "20f421781a2b9e2a0392cec282084f637ae2e61cc80dfdf22a0933f06e061683",
    ),
    (
        ("classify", "46656"),  # 2^6 * 3^6
        "63cfab89ca9b24b8e806949919acd2ac0f6ff388270f5b55eb58f4860a75abb9",
    ),
    (
        ("order", "153125", "--M", "7", "--D", "7", "--method", "both"),  # 5^5 * 7^2
        "f4ed400e111eb2a8e1c10046fbb2fb95e05d9aab3266724da97584fc9117a315",
    ),
    (
        ("hecke", "765625", "--p", "5", "--divisor", "1:1"),  # 5^6 * 7^2
        "ae1aa071e806b2aecd8f0133ab987f01187bd674a316a0e1c24633eac5304bbd",
    ),
    (
        ("hecke", "19140625", "--p", "5", "--divisor", "1:1"),  # 5^8 * 7^2
        "8aadff1197ffaf056cbdb1199328f579018dfe9782daf8aa46acf0099ab3cf3e",
    ),
    (
        ("hecke", "27720", "--p", "13", "--divisor", "1:3,8:-1,45:2,27720:-5,12:4"),
        "1100a2af14cb0cb73374e43daca1aaef9737f4b79545a4e71c7008758723dccb",
    ),
    (
        ("hecke", "765625", "--p", "5", "--divisor", "125:1,625:-1,15625:2,245:-3,35:1"),
        "a51758c2753e15db384cd4865a72f46e17823944255c876429d30b5e4cc69ea4",
    ),
    (
        # 2^3 * 3^2 * 5 * 7 * 11^2: every local type of the series occurs
        ("qexp", "304920", "--M", "15", "--D", "33", "--prec", "300"),
        "d128c5d6a42eb668cc22a7d6c9d0e9523d6d7cf825d91d7e2373554f381ff67f",
    ),
    (
        ("qexp", "4725", "--M", "7", "--prec", "300"),  # 3^3 * 5^2 * 7, 5 in L
        "f7111a406bd93f9c7f16e8a3eba73e9a6e76f7191e95fea26ee07bc3d3fd10d2",
    ),
    (
        ("residues", "304920", "--M", "15", "--D", "33"),
        "6a5880516f8b47a98524ea1ee1e304c5374a687c5f82627d55c7d565cd045249",
    ),
    (
        ("residues", "4725", "--M", "7"),
        "2ba901b7a71feba4f4be29cb22fd1b488429d31ab6bc999d62e8bfac0cead3d3",
    ),
    (
        ("residues", "1990656", "--M", "2", "--D", "6"),  # 2^13 * 3^5
        "a7f684ed0d2091e9b5adc398fa948951ab6adfd878a76806dddf280d9464afdb",
    ),
    (
        ("lambda", "27720", "--inverse"),
        "59619cf76b3433c7b573f2edb62f20822eebba2b110056e0471fa3bb0eaf9e62",
    ),
    (
        ("lambda", "153125", "--inverse"),  # 5^5 * 7^2
        "5c258afd350039c7cc0df41bd14f834dc231a15d1d1373488991ab13c9ac54a4",
    ),
    (
        ("lambda", "1024", "--inverse"),
        "3d246c3c56b4a7cfe1251c7b5551074724d90069d69913ae6ad9da22a91f3595",
    ),
    (
        ("sweep", "--max-N", "60"),
        "97c02003e4631d92bdc1d2371e2839a48aa64d8f8356cce4fadd4e7fbbf9b175",
    ),
    (
        ("sweep", "--max-N", "125"),
        "7655e34bfeca559668d33b6833c7cf9d672121405869cdc9f8b54f12f400e879",
    ),
    (
        ("qexp", "2310", "--M", "1155", "--D", "1", "--prec", "9820"),
        "b2da04297e7e698e7f860ac28fa0056fabd35b77375b630f9d07b9fc7515a1ca",
    ),
    (
        ("sweep", "--max-N", "161"),
        "b167a16566a963fa386b559488262623e0c33e65483027a0a94536b39e87553d",
    ),
    (
        ("residues", "7420738134810", "--M", "2"),  # 2*3*...*37: tau = 4096, 438 KB
        "a7d2b6f98af6096edaf3cd3c1a3d5b9065f24d3dcf30c23b9cbcbab8f4605951",
    ),
    (
        # The first bound whose fiber family covers every (n, p) with p <= 7, n p <= 400.
        ("sweep", "--max-N", "200"),
        "4c55ecfe2f0044c80f94f02fa2a32c8b2f61b29d7b5e6114a00475b3c2cc750e",
    ),
    (
        # The sweep's budget; tau(N) peaks there, at 32 (840), and the dense
        # inverse check costs O(tau^3) a level.
        ("sweep", "--max-N", "1000"),
        "dbde5f1a2b34deedac5b61dad6d91e12d573775ea3d937a8b5abb50285ce2669",
    ),
]


@pytest.mark.parametrize("argv, sha256", _GOLDEN)
def test_golden_bytes(capsys, argv, sha256):
    # Taken from the dense-Fraction class-order engine, the cusp-enumerating
    # Hecke pushforward, the five-way per-prime case split of the series
    # and residues, and the Kronecker-built dense inverse with its O(tau^3)
    # sweep check, the Fraction Gauss-Jordan solve and the Fraction q-expansion
    # coefficients; the integer engine, the closed cusp maps, the local factors,
    # the fraction-free solve and the integer coefficients must reproduce their
    # bytes at high-tau and high prime-power levels.
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "n, sha256",
    [
        (720720, "d2526888f7348084a9ac3f59710078a199ee7cc2f68f43d2c43f598bfe854cba"),
        (9699690, "f4a7f03d674d9eb1cd68f1222e0e3594b109f13fc09e5fad2777705295b24a9c"),
        (15315300, "94398856ccc73aa1698840a0c082ae7c638c3bbaec094452623fa3720b68d0c5"),
        (223092870, "418b51a5f3e9d90ba1d5c810c10cee5d7d335f3e0157ae10faae335dd8989eaa"),
    ],
)
def test_classify_bytes_at_wide_levels(capsys, n, sha256):
    # tau(N) = 240, 256, 432 and 512.  Taken from the whole-level engine,
    # class_order on each datum's built divisor; the local orders must
    # reproduce its bytes.
    code, out, _ = _run(capsys, "classify", str(n), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


_SUBCOMMANDS = (
    "cusps", "lambda", "cdivisor", "order", "residues", "qexp", "hecke", "classify", "sweep"
)
_DIVISOR_TEXTS = ("", "1", "1:1:1", "1:x", "1:1,,2:1", "7:1", "0:1", "-2:1", "1:1,1:-1")


# Products of two of these are past Pollard-Brent's budget.
_P18S = (100000000000000003, 100000000000000013, 999999999999999877, 999999999999999989)


# The least primorial past each tau budget (2^k divisors, 2^k > budget for
# k = budget.bit_length()): 2*3*...*23, 2*3*...*43 and 2*3*...*59.
_PAST_BUDGETS = tuple(
    math.prod(primes_upto(100)[: b.bit_length()])
    for b in (cli._LAMBDA_BUDGET, cli._CLASSIFY_BUDGET, cli._WHOLE_LEVEL_BUDGET)
)


@st.composite
def _level(draw) -> int:
    """A level: of 64 shapes, 8 up to 10^30, 4 a semiprime of two 18-digit
    primes, 2 a primorial just past a tau budget and the rest -2 to 2000.
    Hypothesis draws the ends of the range most often, so they are the
    cheap shape."""
    shape = draw(st.integers(min_value=0, max_value=63))
    if 8 <= shape < 16:
        return draw(st.integers(min_value=2001, max_value=10**30))
    if 16 <= shape < 20:
        return math.prod(draw(st.sampled_from(list(itertools.combinations(_P18S, 2)))))
    if shape in (20, 21):
        return draw(st.sampled_from(_PAST_BUDGETS))
    return draw(st.integers(min_value=-2, max_value=2000))


@st.composite
def _argv(draw):
    """One command line from the subcommand grammar, valid or not."""
    n = draw(_level())
    level = str(n)
    divs = divisors_of(n) if 0 < n <= 2000 else (1, max(n, 1))
    some_divisor = st.sampled_from(divs).map(str)
    small = st.integers(min_value=-2, max_value=60).map(str)
    command = draw(st.sampled_from(_SUBCOMMANDS))
    if command == "cusps":
        argv = [command, level]
    elif command == "lambda":
        argv = [command, level] + draw(st.sampled_from(([], ["--inverse"])))
    elif command in ("cdivisor", "order", "residues", "qexp"):
        argv = [command, level, "--M", draw(st.one_of(some_divisor, small))]
        if draw(st.booleans()):
            argv += ["--D", draw(st.one_of(some_divisor, small))]
        if command == "order":
            argv += ["--method", draw(st.sampled_from(("closed", "lattice", "both")))]
        if command == "qexp":
            over_budget = st.sampled_from((100001, 3000000, 10**12))
            prec = draw(st.one_of(st.integers(min_value=-2, max_value=200), over_budget))
            argv += ["--prec", str(prec)]
    elif command == "hecke":
        term = st.tuples(some_divisor, st.integers(min_value=-5, max_value=5)).map(
            lambda t: f"{t[0]}:{t[1]}"
        )
        terms = st.lists(term, min_size=1, max_size=4).map(",".join)
        text = draw(st.one_of(st.sampled_from(_DIVISOR_TEXTS), terms))
        p = draw(st.integers(min_value=-1, max_value=13))
        argv = [command, level, "--p", str(p), "--divisor", text]
    elif command == "classify":
        argv = [command, level]
        if draw(st.booleans()):
            argv += ["--ell", str(draw(st.integers(min_value=-3, max_value=20)))]
    else:
        huge = st.sampled_from((1001, 10**9))
        bound = draw(st.one_of(st.integers(min_value=-2, max_value=10), huge))
        argv = [command, "--max-N", str(bound)]
    argv += ["--format", draw(st.sampled_from(("text", "json")))]
    # One in eight joins an option to the value "--": `--opt=--`.
    valued = [i for i, token in enumerate(argv) if token.startswith("--") and token != "--inverse"]
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        i = draw(st.sampled_from(valued))
        argv[i : i + 2] = [argv[i] + "=--"]
    return argv


def _run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # an escaped exception is a traceback, as in a process
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


# The most seconds one fuzzed request may take: a hostile level is refused
# before the work it would start.
_FUZZ_SECONDS = 2.0


@settings(max_examples=80, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_contract(argv):
    # Hypothesis varies an example it has drawn, so one semiprime level comes
    # back several times.  Pollard-Brent is held to 2^16 steps here (about
    # 0.05 s, against 0.5 s for its 2^20), so the test stays within seconds;
    # test_a_level_that_rho_cannot_split_is_refused_within_its_budget times
    # the full budget.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "_RHO_BUDGET", 1 << 16)
        started = time.perf_counter()
        code, out, err = _run_isolated(argv)
        assert time.perf_counter() - started < _FUZZ_SECONDS, argv
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert _run_isolated(argv) == (code, out, err)


# The options of each subcommand beside --format and --timing, as the
# command line documents them, for a grammar independent of cli's table.
_OPTIONS = {
    "cusps": (),
    "lambda": ("--inverse",),
    "cdivisor": ("--M", "--D"),
    "order": ("--M", "--D", "--method"),
    "residues": ("--M", "--D"),
    "qexp": ("--M", "--D", "--prec"),
    "hecke": ("--p", "--divisor"),
    "classify": ("--ell",),
    "sweep": ("--max-N",),
}
_REQUIRED = {"--M", "--p", "--divisor", "--max-N"}
_SWITCHES = {"--timing", "--inverse"}
_VALUES = {
    "--format": st.sampled_from(("text", "json")),
    "--method": st.sampled_from(("closed", "lattice", "both")),
    "--divisor": st.sampled_from(("1:1", "4:-1,1:2", "1:1,2:0")),
}
_NUMBER = st.integers(min_value=1, max_value=10**6).map(str)
_ODD = (
    "0", "-3", "-0", "x", "1.5", " 7", "+7", "1_0", "", "\u0663", "xml", "lat", "bogus", "-1:1"
)
_STRAY = ("-h", "--help", "--", "--bogus", "-3", "-", "extra", "7", "--M", "--max-N")


@st.composite
def _request_argv(draw):
    """A well-formed command line in canonical form; one in three gets one or
    two edits: an abbreviated flag, --opt=value, a repeat, a dropped, stray or
    odd token, or a negative value."""
    command = draw(st.sampled_from(tuple(_OPTIONS)))
    words = [] if command == "sweep" else [[draw(_NUMBER)]]
    for flag in ("--format", "--timing", *_OPTIONS[command]):
        if flag in _REQUIRED or draw(st.booleans()):
            words.append([flag] if flag in _SWITCHES else [flag, draw(_VALUES.get(flag, _NUMBER))])
    words = draw(st.permutations(words))
    argv = [command, *itertools.chain.from_iterable(words)]
    edits = ("abbreviate", "equals", "repeat", "drop", "stray", "odd", "negate")
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2)))):
        i = draw(st.integers(min_value=0, max_value=len(argv)))
        edit = draw(st.sampled_from(edits))
        if i == len(argv) or edit == "stray":
            argv.insert(i, draw(st.sampled_from(_STRAY)))
        elif edit == "drop":
            del argv[i]
        elif edit == "odd":
            argv[i] = draw(st.sampled_from(_ODD))
        elif edit == "negate":
            argv[i] = "-" + argv[i]
        elif argv[i].startswith("--") and edit == "abbreviate":
            argv[i] = argv[i][: draw(st.integers(min_value=2, max_value=len(argv[i])))]
        elif argv[i].startswith("--") and edit == "equals" and i + 1 < len(argv):
            argv[i : i + 2] = [argv[i] + "=" + argv[i + 1]]
        else:
            argv.insert(i, argv[i])
    return argv


_REFERENCE = cli._build_parser()


def _argparse(argv):
    """argparse's arguments for argv, or the (code, stdout, stderr) it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(_REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=3000, deadline=None)
@given(argv=_request_argv())
def test_reader_agrees_with_argparse(argv):
    read = cli._read(argv)
    expected = _argparse(argv)
    if read is not None:
        assert vars(read) == expected, argv
    elif isinstance(expected, tuple):
        # main leaves help and every error to argparse, bytes and exit code.
        assert _run_isolated(argv) == expected, argv


def test_reader_serves_every_pinned_request():
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
    pinned = [pool["setup"]["argv"]]
    for strata in pool["workloads"].values():
        pinned += [request["argv"] for stratum in strata for request in stratum]
    pinned += [[*argv, "--format", "json"] for argv, _ in _GOLDEN]
    for argv in pinned:
        read = cli._read(argv)
        assert read is not None and vars(read) == _argparse(argv), argv


def test_main_reads_sys_argv(capsys, monkeypatch):
    # The console script calls main() with no argv.
    expected = _run(capsys, "cusps", "4", "--format", "json")
    monkeypatch.setattr(sys, "argv", ["cuspidal", "cusps", "4", "--format", "json"])
    try:
        assert main() == 0
        assert (0, *capsys.readouterr()) == expected
        monkeypatch.setattr(sys, "argv", ["cuspidal", "cusps"])
        assert main() == 1
    finally:
        gc.unfreeze()  # main() froze the collector, as for a process


def _fresh(code, argv=(), timeout=60):
    """code, given argv, in a fresh interpreter without site."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _entry(argv, after="", timeout=60, before=""):
    """The console script's main in a fresh interpreter without site; `before`
    runs before cuspidal.cli is imported, `after` once main has returned."""
    lines = ["import sys", before, "from cuspidal.cli import main", "rc = main()", after]
    return _fresh("\n".join([*lines, "sys.exit(rc)"]), argv, timeout)


def test_a_well_formed_request_imports_neither_argparse_nor_json():
    loaded = "print(sorted({'argparse', 'json', 'locale'} & set(sys.modules)), file=sys.stderr)"
    run = _entry(["cusps", "1", "--format", "json"], loaded)
    assert (run.returncode, run.stderr) == (0, "[]\n")
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == (
        "58a5142501c82592f7b724119f9643852c381fb2aa80618091a0f759564700dd"
    )
    run = _entry(["cusps"])
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "cuspidal cusps: error: the following arguments are required: N\n"
    run = _entry(["--help"])
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: cuspidal [-h]")


@pytest.mark.parametrize(
    "argv, code",
    [(["cusps", "1", "--format", "json"], 0), (["cusps"], 1), (["--help"], 0)],
)
def test_the_process_entry_freezes_the_collector(argv, code):
    # Everything alive when main() returns lives until exit, so the shutdown
    # collections need not walk it; every return path is covered.
    run = _entry(argv, "import gc; print(gc.get_freeze_count() > 0, file=sys.stderr)")
    assert run.returncode == code
    assert run.stderr.endswith("True\n")
    if code == 0 and argv[0] == "cusps":
        assert hashlib.sha256(run.stdout.encode()).hexdigest() == (
            "58a5142501c82592f7b724119f9643852c381fb2aa80618091a0f759564700dd"
        )


def test_a_call_with_argv_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert _run(capsys, "cusps", "4", "--format", "json")[0] == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv",
    [
        ["cusps", "4", "--format", "json"],
        ["qexp", "2310", "--M", "1155", "--D", "1", "--prec", "9820", "--format", "json"],
    ],
)
def test_a_closed_stdout_exits_one_without_a_traceback(argv, unbuffered):
    # A buffered stdout fails in the report's flush, an unbuffered one in
    # its write; the interpreter's final flush must not fail again.
    run = _into_a_closed_pipe(argv, unbuffered)
    assert run.returncode == 1
    assert run.stderr.startswith("cuspidal: error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [["--help"], ["cusps", "--help"]])
def test_help_into_a_closed_stdout_ends_quietly(argv, unbuffered):
    # argparse drops a failed write of its help, so an unbuffered stdout
    # exits 0 in silence; a buffered one fails in main's flush, exit 1.
    run = _into_a_closed_pipe(argv, unbuffered)
    if unbuffered:
        assert (run.returncode, run.stderr) == (0, "")
    else:
        assert run.returncode == 1
        assert run.stderr.startswith("cuspidal: error: ") and run.stderr.count("\n") == 1


def _into_a_closed_pipe(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """The process entry on argv, its stdout a pipe whose reader has closed,
    with PYTHONUNBUFFERED set or unset whatever the caller's environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    code = "import sys\nfrom cuspidal.cli import main\nsys.exit(main())"
    try:
        return subprocess.run(
            [sys.executable, "-S", "-c", code, *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write)


# Prints which of the modules that rationals need are loaded.
_RATIONALS = "print(sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)"


def test_importing_the_command_line_loads_neither_fractions_nor_decimal():
    run = _fresh(f"import sys, cuspidal.cli\n{_RATIONALS}")
    assert (run.returncode, run.stderr) == (0, "[]\n")


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (("cusps", "1"), "58a5142501c82592f7b724119f9643852c381fb2aa80618091a0f759564700dd"),
        (("classify", "5040"), dict(_GOLDEN)["classify", "5040"]),
        (
            ("hecke", "765625", "--p", "5", "--divisor", "1:1"),
            dict(_GOLDEN)["hecke", "765625", "--p", "5", "--divisor", "1:1"],
        ),
        (
            ("order", "153125", "--M", "7", "--D", "7", "--method", "both"),
            dict(_GOLDEN)["order", "153125", "--M", "7", "--D", "7", "--method", "both"],
        ),
        (
            ("cdivisor", "304920", "--M", "15", "--D", "33"),
            "0bf2eeae3a7795f634ce629f31d84b632c89a79b3231ea6a1b201a3fe2149885",
        ),
        (("lambda", "1024", "--inverse"), dict(_GOLDEN)["lambda", "1024", "--inverse"]),
        (
            ("qexp", "4725", "--M", "7", "--prec", "300"),
            dict(_GOLDEN)["qexp", "4725", "--M", "7", "--prec", "300"],
        ),
        (("residues", "4725", "--M", "7"), dict(_GOLDEN)["residues", "4725", "--M", "7"]),
        # taken while eisq still held the series and residues as Fractions
        (("sweep", "--max-N", "12"), "8ec79aac3367a3373ea701946a68c30bac2f74fd3e571d8ff51a7b38a0ec8378"),
    ],
)
def test_no_request_loads_fractions(argv, sha256):
    # No request builds a Fraction or a Decimal: `lambda` writes its integer
    # rows over their denominators, the series is integers over 24 and the
    # residues over rad(N).
    run = _entry([*argv, "--format", "json"], _RATIONALS)
    assert (run.returncode, run.stderr) == (0, "[]\n")
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == sha256


def test_a_nonzero_degree_is_named_without_fractions():
    # `class_order` reduces the degree in its message with math.gcd.
    code = (
        "import sys\nfrom cuspidal.classlattice import class_order\n"
        "try:\n    class_order(11, (1, 0))\n"
        "except ValueError as exc:\n    print(exc, file=sys.stderr)\n"
    )
    run = _fresh(code + _RATIONALS)
    assert (run.returncode, run.stderr) == (0, "divisor has degree 1, expected 0\n[]\n")


def test_the_tracer_wraps_and_restores_the_series_names_at_the_package_root():
    # The tracer wraps the series names at the package root as in `eisq`, and
    # its uninstall leaves the originals in both.
    import cuspidal

    spec = importlib.util.spec_from_file_location(
        "bench_layers_root", Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = ("build_qexp", "residue_table")
    originals = {name: getattr(eisq, name) for name in names}

    def resolved():
        return {name: getattr(cuspidal, name) for name in names}

    assert resolved() == originals
    tracer = layers.Tracer(cuspidal)
    tracer.install()
    try:
        wrapped = {name: getattr(eisq, name) for name in names}
        assert all(wrapped[name] is not originals[name] for name in names)
        assert resolved() == wrapped
    finally:
        tracer.uninstall()
    assert resolved() == originals
    assert {name: getattr(eisq, name) for name in names} == originals


# Run before the entry's main: the process may use two CPUs, whatever the
# host gives it, os.fork counts its calls, and every DeprecationWarning is
# shown (Python 3.12+ warns on a fork while threads run).
_TWO_CPUS = """
import os
import warnings
warnings.simplefilter("always", DeprecationWarning)
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
"""
# Run after the entry's main: the forks, and whether any child is left.
_NO_CHILD = """
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child is left"
except ChildProcessError:
    left = "no child"
print(len(forks), left, file=sys.stderr)
"""


@pytest.mark.parametrize("bound", ["60", "125", "161"])
def test_the_entry_deals_a_sweep_to_a_child_and_keeps_its_bytes(bound):
    argv = ("sweep", "--max-N", bound)
    run = _entry([*argv, "--format", "json"], _NO_CHILD, before=_TWO_CPUS)
    assert (run.returncode, run.stderr) == (0, "1 no child\n")
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == dict(_GOLDEN)[argv]


def test_the_entry_sweeps_alone_on_one_cpu():
    one_cpu = _TWO_CPUS.replace("{0, 1}", "{0}")
    argv = ("sweep", "--max-N", "60")
    run = _entry([*argv, "--format", "json"], _NO_CHILD, before=one_cpu)
    assert (run.returncode, run.stderr) == (0, "0 no child\n")
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == dict(_GOLDEN)[argv]


# Breaks the dense inverse at the given levels; runs with `cli` and `levels` bound.
_BREAK_ENGINE = """
real = cli.lambda_inverse

def broken(n):
    (first, *rest), den = real(n)
    if n in levels:
        first = (first[0] + 1, *first[1:])
    return (first, *rest), den

cli.lambda_inverse = broken
"""


def test_a_dealt_sweep_reports_the_failures_of_both_shares_in_level_order(
    capsys, monkeypatch
):
    mine, theirs = cli._deal(range(1, 41))
    levels = {*mine[3:5], *theirs[2:4]}
    assert len(levels) == 4
    monkeypatch.setattr(cli, "lambda_inverse", cli.lambda_inverse)
    exec(_BREAK_ENGINE, {"cli": cli, "levels": levels})
    code, out, _ = _run(capsys, "sweep", "--max-N", "40", "--format", "json")
    failures = json.loads(out)["outputs"]["failures"]
    labels = ("Lambda inverse at {}", "solver agreement at {}")
    assert (code, failures) == (2, [label.format(n) for n in sorted(levels) for label in labels])
    patch = f"from cuspidal import cli\nlevels = {sorted(levels)}\n{_BREAK_ENGINE}"
    argv = ["sweep", "--max-N", "40", "--format", "json"]
    run = _entry(argv, _NO_CHILD, before=_TWO_CPUS + patch)
    assert (run.returncode, run.stdout, run.stderr) == (2, out, "1 no child\n")


def test_a_failed_child_leaves_its_share_to_the_process():
    # The child's solver raises; the process runs every level itself.
    patch = """
from cuspidal import cli
entry, real = os.getpid(), cli.solve_lambda

def solve(n, rhs):
    if os.getpid() != entry:
        os.write(2, b"child fails\\n")
        raise RuntimeError("in the child")
    return real(n, rhs)

cli.solve_lambda = solve
"""
    argv = ("sweep", "--max-N", "125")
    run = _entry([*argv, "--format", "json"], _NO_CHILD, before=_TWO_CPUS + patch)
    assert (run.returncode, run.stderr) == (0, "child fails\n1 no child\n")
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == dict(_GOLDEN)[argv]


# Replaces marshal.dumps in the forked child only with CHILD, a lambda of
# the value; runs before `cli` is imported.
_IN_THE_CHILD = """
import marshal
import signal
entry, dumps = os.getpid(), marshal.dumps
marshal.dumps = lambda value: dumps(value) if os.getpid() == entry else (CHILD)(value)
"""


@pytest.mark.parametrize(
    "child",
    [
        "lambda value: dumps(value)[:100]",  # bytes cut short, which do not load
        "lambda value: os.kill(os.getpid(), signal.SIGKILL)",  # killed before writing
    ],
    ids=["cut_short", "killed"],
)
def test_a_child_whose_bytes_do_not_load_leaves_every_level_to_the_process(child):
    patch = _IN_THE_CHILD.replace("CHILD", child)
    argv = ("sweep", "--max-N", "125")
    run = _entry([*argv, "--format", "json"], _NO_CHILD, before=_TWO_CPUS + patch)
    assert (run.returncode, run.stderr) == (0, "1 no child\n")
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == dict(_GOLDEN)[argv]


def _clear_caches() -> None:
    for module in (arith, classifier, classlattice, cusps, eisq, heckediv):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_each_level_of_a_sweep_runs_alone():
    # With the caches cleared before each run, the levels give the same
    # results in any order and in any share.
    levels = range(1, 61)
    _clear_caches()
    ascending = {n: cli._sweep_level(n) for n in levels}
    _clear_caches()
    assert {n: cli._sweep_level(n) for n in reversed(levels)} == ascending
    for share in cli._deal(levels):
        _clear_caches()
        assert {n: cli._sweep_level(n) for n in share} == {n: ascending[n] for n in share}
    report = cli.run_sweep(60)[0]
    assert report["data"] == sum(data for data, _, _ in ascending.values())
    assert report["checks"] == sum(checks for _, checks, _ in ascending.values())


@pytest.mark.parametrize(
    "error, code, prefix",
    [("ValueError", 1, "error"), ("ConsistencyError", 2, "consistency failure")],
)
def test_a_raising_share_ends_the_request_as_the_single_process_does(
    capsys, monkeypatch, error, code, prefix
):
    # Only the process's own share raises: the child is killed and reaped,
    # and every level runs again here, so the error is the first level's.
    patch = """
from cuspidal import cli
from cuspidal.cusps import ConsistencyError
entry, real = os.getpid(), cli.cusp_count

def count(n):
    if os.getpid() == entry and n > 2:
        raise ERROR(f"broken at {n}")
    return real(n)

cli.cusp_count = count
""".replace("ERROR", error)
    expected = f"cuspidal: {prefix}: broken at 3\n"
    monkeypatch.setattr(cli, "cusp_count", cli.cusp_count)
    exec(patch, {"os": os})
    assert _run(capsys, "sweep", "--max-N", "60") == (code, "", expected)
    run = _entry(["sweep", "--max-N", "60"], _NO_CHILD, before=_TWO_CPUS + patch)
    assert (run.returncode, run.stdout, run.stderr) == (code, "", expected + "1 no child\n")


def test_sweeps_in_process_never_fork(capsys, monkeypatch):
    report = cli.run_sweep(60)

    def refuse():
        raise AssertionError("forked in process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.run_sweep(60) == report
    code, out, _ = _run(capsys, "sweep", "--max-N", "60", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == dict(_GOLDEN)["sweep", "--max-N", "60"]


def test_a_fork_that_fails_leaves_every_level_to_the_process(monkeypatch):
    report = cli.run_sweep(30)

    def refuse():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.run_sweep(30, fork=True) == report


# The small bounds, every `sweep` workload bound (121-125, 145-149, 157-161)
# and the budget.
@pytest.mark.parametrize(
    "bound", [1, 2, 3, 60, *range(121, 126), *range(145, 150), *range(157, 162), 1000]
)
def test_the_deal_splits_the_levels_by_tau_load(bound):
    levels = range(1, bound + 1)
    shares = cli._deal(levels)
    assert sorted([*shares[0], *shares[1]]) == list(levels)
    assert all(share == sorted(share) for share in shares)
    tau = [sum(len(divisors_of(n)) for n in share) for share in shares]
    assert abs(tau[0] - tau[1]) <= max(len(divisors_of(n)) for n in levels)
