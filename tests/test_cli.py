import contextlib
import hashlib
import io
import json
import math
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import classlattice, cli, eisq
from cuspidal.arith import divisors_of, prime_divisors
from cuspidal.classifier import enumerate_data
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
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
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


def test_sweep_small(capsys):
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert parsed["consistency"]["all_invariants_hold"] is True
    assert parsed["outputs"]["failures"] == []


def test_sweep_reports_a_broken_engine(capsys, monkeypatch):
    real = cli.apply_lambda_inverse

    def one_entry_off(n, a, den=1):
        u, den = real(n, a, den)
        return (u[0] + 1, *u[1:]), den

    monkeypatch.setattr(cli, "apply_lambda_inverse", one_entry_off)
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


def test_sweep_reads_the_normalization_off_the_checked_series(capsys, monkeypatch):
    real = cli.build_qexp

    def shifted(datum, prec):
        f = real(datum, prec)
        return eisq.QExpansion(f.n, f.prec, (f.a(0) + 1, *f.coeffs[1:]))

    monkeypatch.setattr(cli, "build_qexp", shifted)
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    parsed = json.loads(out)
    failures = parsed["outputs"]["failures"]
    normalization = [f for f in failures if f.startswith("residue normalization of ")]
    assert len(normalization) == parsed["outputs"]["data"]


def _one_entry_off(real):
    def patched(*args):
        x = real(*args)
        return (x[0] + 1, *x[1:])

    return patched


def test_sweep_reports_a_broken_exponent_vector(capsys, monkeypatch):
    real = cli.r_vector

    def one_entry_off(datum):
        u, den = real(datum)
        return (u[0] + 1, *u[1:]), den

    monkeypatch.setattr(cli, "r_vector", one_entry_off)
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


def test_sweep_reports_broken_residues(capsys, monkeypatch):
    monkeypatch.setattr(eisq, "_local_residues", _one_entry_off(eisq._local_residues))
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
    monkeypatch.setattr(eisq, "_local_residues", _one_entry_off(eisq._local_residues))
    code, out, err = _run(capsys, "residues", "12", "--M", "3", "--format", "json")
    assert code == 2
    assert err == ""
    consistency = json.loads(out)["consistency"]
    assert consistency["weighted_sum_zero"] is False
    assert consistency["closed_matches_level_ml"] is True


def _sweep_with_broken_local_exponents(capsys, monkeypatch, broken) -> list[str]:
    real = classlattice._local_exponents

    def patched(*args):
        entries, scale = real(*args)
        return broken(entries), scale

    monkeypatch.setattr(classlattice, "_local_exponents", patched)
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
    # One unit moved from e_1 to e_0 keeps every local weight at 0, so the
    # local orders of `index_n` read the broken table instead of refusing it.
    failures = _sweep_with_broken_local_exponents(
        capsys, monkeypatch, lambda e: [e[0] + 1, e[1] - 1, *e[2:]]
    )
    wrong_orders = {
        (4, 1, 1), (6, 2, 1), (6, 3, 1), (8, 1, 1), (9, 1, 1),
        (10, 2, 1), (10, 5, 1), (12, 1, 1), (12, 3, 1), (12, 2, 2),
    }
    expected = []
    for n in range(1, 13):
        for datum in enumerate_data(n):
            if (datum.n, datum.m, datum.d_part) in wrong_orders:
                expected.append(f"order of {datum}")
            if math.gcd(datum.m, datum.d_part) == 1:
                expected.append(f"exponent vector of {datum}")
    assert len(expected) == 27
    assert failures == expected


def test_sweep_reports_a_broken_local_order(capsys, monkeypatch):
    # classify reads the local orders alone; `sweep` is where they meet the
    # closed form and the whole-level engine.  A local scale 5 times too
    # large at q = 3 moves every order and exponent vector there that
    # `sweep` checks.
    expected = []
    for n in range(3, 13, 3):
        for datum in enumerate_data(n):
            if classlattice.closed_form_order(datum) is not None:
                expected.append(f"order of {datum}")
            if math.gcd(datum.m, datum.d_part) == 1:
                expected.append(f"exponent vector of {datum}")
    real = classlattice._local_exponents

    def perturbed(q, r, eps):
        entries, scale = real(q, r, eps)
        return (entries, 5 * scale) if q == 3 else (entries, scale)

    monkeypatch.setattr(classlattice, "_local_exponents", perturbed)
    code, out, _ = _run(capsys, "sweep", "--max-N", "12", "--format", "json")
    assert code == 2
    failures = json.loads(out)["outputs"]["failures"]
    assert "order of EisensteinDatum(n=3, m=3, d_part=1)" in failures
    assert failures == expected


def test_sweep_reports_a_broken_solver(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_lambda", _one_entry_off(cli.solve_lambda))
    report, ok = cli.run_sweep(6)
    assert not ok
    assert report["failures"] == [f"solver agreement at {n}" for n in range(1, 7)]
    code, out, _ = _run(capsys, "sweep", "--max-N", "6", "--format", "json")
    assert code == 2
    assert json.loads(out)["consistency"]["all_invariants_hold"] is False


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
    ],
)
def test_hecke_invalid_input_names_the_input(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"cuspidal: error: {message}\n"


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_sweep_rejects_a_bound_below_one(capsys, bound):
    code, out, err = _run(capsys, "sweep", "--max-N", bound)
    assert code == 1
    assert out == ""
    assert err == f"cuspidal: error: sweep bound {bound} is not a positive integer\n"
    with pytest.raises(ValueError):
        cli.run_sweep(int(bound))


def test_parser_is_built_once(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    assert _run(capsys, "cusps", "4")[0] == 0
    assert _run(capsys, "cusps")[0] == 1


def test_timing_flag_optional(capsys):
    code, out, _ = _run(capsys, "cusps", "4", "--timing", "--format", "json")
    parsed = json.loads(out)
    assert code == 0
    assert "timing_ms" in parsed


@pytest.mark.parametrize(
    "argv, sha256",
    [
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
    ],
)
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


@st.composite
def _argv(draw):
    """One command line from the subcommand grammar, valid or not."""
    n = draw(st.integers(min_value=-2, max_value=2000))
    level = str(n)
    divs = divisors_of(n) if n > 0 else (1,)
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
        argv = [command, "--max-N", str(draw(st.integers(min_value=-2, max_value=10)))]
    return argv + ["--format", draw(st.sampled_from(("text", "json")))]


def _run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # an escaped exception is a traceback, as in a process
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_contract(argv):
    code, out, err = _run_isolated(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    assert _run_isolated(argv) == (code, out, err)
