"""Mutants of `src/cuspidal`, each with the tier-1 tests that must kill it.

Each entry of MUTANTS is (module, source text, replacement, test ids,
reason): the module of src/cuspidal, a text that occurs in it exactly once,
what replaces that text, the pytest node ids that must each fail on the
mutant, and what the mutant breaks.  `tests/test_mutants.py` checks in
tier-1 that every source text occurs exactly once and that every named test
is defined, so a refactor that moves the code must move its mutants too.

    python tests/mutants.py          # every entry
    python tests/mutants.py 0 7      # the entries at those indexes

Each mutant is applied to a copy of src/, tests/ and bench/ in a temporary
directory, and only the tests of its entry run there, so a test that spawns
an interpreter on the checkout's src/ sees the mutant too.  The run prints
one line per entry and exits 1 if any named test survives its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cuspidal"

CLI, BENCH = "tests/test_cli.py::", "tests/test_bench_contract.py::"

MUTANTS = [
    (
        "arith",
        "    if n >= _STRONG_BOUND:",
        "    if n > _STRONG_BOUND:",
        ["tests/test_arith.py::test_is_prime_refuses_a_pass_at_or_above_the_bound"],
        "is_prime claims a proof at its bound, where the strong test proves nothing",
    ),
    (
        "classifier",
        "        return n % (ell * ell) != 0",
        "        return n % (ell * ell) >= 0",
        [
            "tests/test_classifier.py::test_hypothesis_flags",
            BENCH + "test_classify_smooth_pool_bytes",
        ],
        "the hypothesis ell^2 does not divide 4N holds for every odd ell",
    ),
    (
        "classifier",
        "q % ell == ell - 1 for q in",
        "q % ell == 1 for q in",
        [
            "tests/test_classifier.py::test_normalize_and_newness_match_the_quotient_forms",
            BENCH + "test_classify_smooth_pool_bytes",
        ],
        "a newness candidate asks q = 1 instead of q = -1 mod ell",
    ),
    (
        "classifier",
        "found[key] = nd, max(idx, found.get(key, (nd, 0))[1])",
        "found[key] = nd, idx",
        [
            "tests/test_classifier.py::test_each_index_is_the_largest_over_the_ideals_presentations",
            CLI + "test_classifying_every_level_to_1000_keeps_its_bytes",
            BENCH + "test_classify_smooth_pool_bytes",
        ],
        "merged presentations of one ideal keep the last index, not the largest",
    ),
    (
        "cli",
        "    if tau > budget:",
        "    if tau >= budget:",
        [CLI + "test_a_level_at_its_tau_budget_is_served_and_one_prime_more_is_refused"],
        "a level with exactly the budgeted number of divisors is refused",
    ),
    (
        "cli",
        '        if "choices" in spec and value not in spec["choices"]:\n            return None\n',
        "",
        [CLI + "test_only_a_malformed_request_builds_the_parser"],
        "the direct reader serves a value outside an option's choices",
    ),
    (
        "cli",
        'code = 0 if outputs["degree"] == 0 else 2',
        'code = 0 if outputs["degree"] == 0 else 0',
        [CLI + "test_cdivisor_prints_a_nonzero_degree_and_exits_two"],
        "cdivisor prints a divisor of nonzero degree and exits 0",
    ),
    (
        "cli",
        "        if div.degree():\n"
        '            raise ConsistencyError(f"divisor built for {datum} has degree {div.degree()}")\n',
        "",
        [CLI + "test_order_refuses_a_nonzero_degree_before_the_engine"],
        "order hands a divisor of nonzero degree to the engine, which exits 1",
    ),
    (
        "cli",
        '"weighted_sum_zero": RationalCuspDivisor(table.n, table.res).degree() == 0,',
        '"weighted_sum_zero": True,',
        [
            CLI + "test_residues_reports_a_nonzero_weighted_sum",
            CLI + "test_sweep_reports_broken_residues",
            CLI + "test_sweep_lists_divisors_of_nonzero_degree_under_their_families",
        ],
        "the residue sum is never checked",
    ),
    (
        "cli",
        "check(not eigen_check(",
        "check(eigen_check(",
        [CLI + "test_sweep_small", BENCH + "test_sweep_pool_bytes"],
        "sweep counts a series that passes its eigenform checks as a failure",
    ),
    (
        "cli",
        "sorted(value.items()) if keyed",
        "value.items() if keyed",
        [CLI + "test_to_json_matches_json_dumps"],
        "the JSON writer keeps a dict's insertion order instead of sorting its keys",
    ),
    (
        "cli",
        "and '\"' not in s and",
        "and",
        [CLI + "test_to_json_matches_json_dumps"],
        "a string with a quote is written unescaped",
    ),
    (
        "classlattice",
        "    if weights.count(0) == 1 and den % 8 == 0:",
        "    if weights.count(0) == 1 and den % 4 == 0:",
        [
            "tests/test_classifier.py::test_index_n_matches_the_closed_form_wherever_it_applies",
            BENCH + "test_sweep_pool_bytes",
        ],
        "the order formula doubles where 8 does not divide the product of the scales",
    ),
    (
        "classlattice",
        "n // m ** valuation(n, m) in (1, 2)",
        "n // m ** valuation(n, m) in (1,)",
        [
            "tests/test_classlattice.py::test_closed_form_squarefree_h_factor",
            "tests/test_acceptance.py::test_criterion_03_closed_form_vs_engine",
        ],
        "the closed form's case (b) misses N = 2 q^b",
    ),
    (
        "cusps",
        "        out[d] = (p if 2 * j <= r else 1) * v",
        "        out[d] = (p if 2 * j < r else 1) * v",
        [
            "tests/test_acceptance.py::test_criterion_06_hecke_action",
            BENCH + "test_hecke_deep_pool_bytes",
        ],
        "the pullback drops the ramification at the middle of a p-chain",
    ),
    (
        "cusps",
        "p if n % p ** (2 * i - 1) else 1",
        "p if n % p ** (2 * i) else 1",
        [CLI + "test_sweep_small", BENCH + "test_sweep_pool_bytes"],
        "the ramification of z -> pz is read one step too far up the chain",
    ),
    (
        "cusps",
        "p ** (2 * valuation(c.d, p))",
        "p ** (2 * valuation(c.d, p) + 1)",
        [
            "tests/test_cusps.py::test_ramification_split_level",
            "tests/test_cusps.py::test_fiber_degree_sums",
            "tests/test_cusps.py::test_closed_cusp_maps_match_the_valuation_oracles",
            CLI + "test_sweep_small",
        ],
        "the ramification of z -> z is read one step too far up the chain",
    ),
    (
        "eisq",
        "            bad[q] = first",
        "            bad[q] = 0",
        ["tests/test_eisq.py::test_eigen_check_names_each_refuted_prime_with_its_first_bad_index"],
        "eigen_check names a refuted prime without its first bad index",
    ),
    (
        "eisq",
        "    for q, eigenvalue in off_level + on_level:",
        "    for q, eigenvalue in off_level:",
        ["tests/test_eisq.py::test_eigen_check_names_each_refuted_prime_with_its_first_bad_index"],
        "eigen_check skips the level's primes",
    ),
    (
        "eisq",
        "out[::q] = [a - b * k for",
        "out[::q] = [a + b * k for",
        [
            "tests/test_acceptance.py::test_criterion_08_eigenform_suite",
            BENCH + "test_series_pool_bytes",
        ],
        "the Euler factor adds k f(qz) instead of subtracting it",
    ),
    (
        "heckediv",
        "        return c, [1, -1] + zeros, q - 1",
        "        return c, [1, -1] + zeros, q ** (r - 1) * (q - 1)",
        [
            "tests/test_classlattice.py::test_closed_form_examples",
            BENCH + "test_classify_smooth_pool_bytes",
        ],
        "the local scale at eps = 1 grows with r, as it once wrongly did",
    ),
    (
        "heckediv",
        "    if datum.n % (p * p) or datum.d_part % p == 0:",
        "    if datum.n % (p * p):",
        [
            "tests/test_classifier.py::test_every_emission_divisible",
            BENCH + "test_classify_smooth_pool_bytes",
        ],
        "a square-support prime in D gets the eigenvalue 0 instead of p",
    ),
    (
        "__init__",
        "from .eisq import build_qexp, residue_table",
        "from .eisq import build_qexp",
        [
            BENCH + "test_every_name_at_the_package_root_resolves",
            CLI + "test_the_tracer_wraps_and_restores_the_series_names_at_the_package_root",
        ],
        "the package root lists a name it does not define",
    ),
    (
        "arith",
        "p ** (e - 1) * (p - 1) for p, e in",
        "p ** e * (p - 1) for p, e in",
        ["tests/test_arith.py::test_phi_sums_to_n"],
        "the totient of a prime power drops a factor p",
    ),
    (
        "cli",
        "_PREC_BUDGET = 100_000",
        "_PREC_BUDGET = 1_000_000",
        [CLI + "test_precision_above_the_budget_exits_one"],
        "qexp serves a precision ten times its budget",
    ),
    (
        "cli",
        "sorted(ranked[::4] + ranked[3::4])",
        "sorted(ranked[::4] + ranked[2::4])",
        [CLI + "test_the_deal_splits_the_levels_by_tau_load"],
        "the deal gives one level to both shares and another to neither",
    ),
    (
        "classlattice",
        "            order *= 2",
        "            order *= 1",
        [
            "tests/test_classifier.py::test_classify_thirty_two",
            "tests/test_classifier.py::test_index_n_matches_the_closed_form_wherever_it_applies",
        ],
        "the order formula never doubles",
    ),
    (
        "classlattice",
        "        if moment * math.prod(filter(None, weights)) % 2:",
        "        if moment % 2:",
        ["tests/test_classifier.py::test_index_examples"],
        "the parity term leaves out the weights of the other primes",
    ),
    (
        "classlattice",
        "    if (m == 1 and n & (n - 1) == 0 and x % 8 == 0) or (",
        "    if (",
        [
            "tests/test_classlattice.py::test_closed_form_examples",
            "tests/test_acceptance.py::test_criterion_03_closed_form_vs_engine",
        ],
        "the closed form loses its case (a), N a power of 2 with M = 1",
    ),
    (
        "cusps",
        "(p - 1 if i == 1 else p)",
        "(p - 1 if i == 1 else p + 1)",
        [
            "tests/test_acceptance.py::test_criterion_06_hecke_action",
            BENCH + "test_hecke_deep_pool_bytes",
        ],
        "the pushforward multiplicity is one too large at 2 <= i",
    ),
    (
        "heckediv",
        "    return [q - 1, -1] + zeros,",
        "    return [q, -1] + zeros,",
        ["tests/test_heckediv.py::test_build_c_divisor_pullback_chain", CLI + "test_cdivisor"],
        "the local divisor at eps = 0 has degree 1 instead of 0",
    ),
    (
        "eisq",
        "(p - 1 if m % p == 0 else p * p - 1)",
        "(p - 1 if m % p == 0 else p * p + 1)",
        [CLI + "test_residues", "tests/test_acceptance.py::test_criterion_07_residues"],
        "the closed residue at level ML takes p^2 + 1 at the primes outside M",
    ),
    (
        "classlattice",
        "    return tuple(zip(*columns)), dens[0]",
        "    return tuple(columns), dens[0]",
        [CLI + "test_sweep_small", "tests/test_classlattice.py::test_lambda_inverse_small"],
        "the dense inverse is transposed, which shows only at a non-squarefree level",
    ),
]


def _copy(target: Path) -> None:
    """src/, tests/, bench/ and the pytest settings of the checkout under
    target, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, target / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", target)


def _failed(output: str) -> set[str]:
    """The node ids that pytest's `-rfE` summary names as failed or erroring;
    a test id without parameters in the catalog stands for all its cases."""
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def run(index: int) -> bool:
    """Whether every named test of entry index fails on its mutant."""
    module, text, replacement, tests, reason = MUTANTS[index]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy(root)
        path = root / "src" / "cuspidal" / f"{module}.py"
        source = path.read_text()
        if source.count(text) != 1:
            print(f"{index}: {module}: the source text does not occur exactly once")
            return False
        path.write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="400")
        command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", *tests]
        result = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True, timeout=600
        )
    failed = _failed(result.stdout)
    survivors = [t for t in tests if not any(f == t or f.startswith(t + "[") for f in failed)]
    status = "survived by " + ", ".join(survivors) if survivors else "killed"
    print(f"{index}: {module}: {reason}: {status}", flush=True)
    return not survivors


def main(argv: list[str]) -> int:
    indexes = [int(a) for a in argv] or range(len(MUTANTS))
    return 0 if all([run(i) for i in indexes]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
