"""Command-line front end: exact reports as text or canonical JSON.

Exit codes: 0 success, 1 invalid input, 2 internal consistency failure.
Rationals serialize as {"num": "...", "den": "..."} decimal strings and
divisor-indexed vectors as [{"d": ..., "c": ...}] in ascending divisor
order, so identical inputs always produce byte-identical output.

The JSON report is exactly the bytes of json.dumps(report, sort_keys=True,
indent=2): keys sorted, two-space indent, "," and ": " separators, non-ASCII
and control characters as \\uXXXX escapes, tuples as arrays.  `to_json`
writes those bytes itself in one pass rather than calling json.dumps:
CPython 3.11's C encoder does not run with `indent`, and the pure-Python
encoder took most of the time of a large `qexp` report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _esc

from .arith import divisors_of, is_prime, prime_divisors, primes_upto
from .classifier import enumerate_data, index_n, rational_eisenstein_primes
from .classlattice import (
    _lambda_integer,
    apply_lambda_inverse,
    class_order,
    closed_form_order,
    is_principal,
    lambda_inverse,
    lambda_matrix,
    r_vector,
    solve_lambda,
)
from .cusps import (
    ConsistencyError,
    RationalCuspDivisor,
    alpha_ram,
    beta_ram,
    covering_degree,
    cusp_count,
    enumerate_cusps,
    alpha_image,
    beta_image,
)
from .eisq import build_qexp, eigen_check, residue_closed, residue_table
from .heckediv import (
    EisensteinDatum,
    build_c_divisor,
    epsilon,
    hecke_delta,
    hecke_delta_closed,
)

__all__ = ["main", "run_sweep", "to_json"]

# The largest `qexp --prec` served; the series costs O(prec log prec) time
# and its report O(prec) memory.
_PREC_BUDGET = 100_000
# The precision and the largest Hecke prime of `sweep`'s eigenform checks.
_SWEEP_PREC, _SWEEP_QMAX = 24, 5


def to_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), in one pass."""
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    chunks: list[str] = []
    _emit(obj, "\n", chunks)
    return "".join(chunks)


def _emit(value, nl: str, out: list[str]) -> None:
    """Append a dict, list or tuple to out; nl is the line break before its
    closing bracket, and its items sit one level deeper."""
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, x in sorted(value.items()):
            out.append(sep + _esc(key) + ": ")
            if isinstance(x, str):
                out.append(_esc(x))
            elif isinstance(x, (dict, list, tuple)):
                _emit(x, inner, out)
            else:
                out.append(json.dumps(x))
            sep = "," + inner
        out.append(nl + "}")
    else:
        sep = "[" + inner
        for x in value:
            out.append(sep)
            if isinstance(x, str):
                out.append(_esc(x))
            elif isinstance(x, (dict, list, tuple)):
                _emit(x, inner, out)
            else:
                out.append(json.dumps(x))
            sep = "," + inner
        out.append(nl + "]")


def _rat(x) -> dict:
    """An int or Fraction as its numerator and denominator strings."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _vec(pairs) -> list:
    return [{"d": d, "c": _rat(c)} for d, c in sorted(pairs)]


def _matrix_json(rows) -> list:
    return [[_rat(x) for x in row] for row in rows]


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        if set(value) == {"num", "den"}:
            return [f"{pad}{value['num']}/{value['den']}"]
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, dict) and set(sub) == {"num", "den"}:
                lines.append(f"{pad}{key}: {sub['num']}/{sub['den']}")
            elif isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict) and set(item) == {"d", "c"}:
                lines.append(f"{pad}{item['d']} -> {item['c']['num']}/{item['c']['den']}")
            elif isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent))
                lines.append(f"{pad}-")
            else:
                lines.append(f"{pad}{item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on bad input, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _datum(args) -> EisensteinDatum:
    return EisensteinDatum(args.N, args.M, args.D)


def _parse_divisor(n: int, text: str) -> RationalCuspDivisor:
    coeffs: dict[int, int] = {}
    for part in text.split(","):
        level, _, value = part.partition(":")
        try:
            d, c = int(level), int(value)
        except ValueError:
            raise ValueError(f"--divisor term {part!r} is not level:coefficient") from None
        coeffs[d] = coeffs.get(d, 0) + c
    return RationalCuspDivisor.from_dict(n, coeffs)


def cmd_cusps(args) -> tuple[dict, int]:
    cusps = enumerate_cusps(args.N)
    outputs = {
        "count": len(cusps),
        "cusps": [{"d": c.d, "x": c.x} for c in cusps],
    }
    consistency = {"count_matches_formula": len(cusps) == cusp_count(args.N)}
    return {"outputs": outputs, "consistency": consistency}, 0


def cmd_lambda(args) -> tuple[dict, int]:
    rows = lambda_inverse(args.N) if args.inverse else lambda_matrix(args.N)
    outputs = {
        "divisors": list(divisors_of(args.N)),
        "inverse": bool(args.inverse),
        "rows": _matrix_json(rows),
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_cdivisor(args) -> tuple[dict, int]:
    div = build_c_divisor(_datum(args))
    outputs = {
        "coefficients": _vec(div.coeffs),
        "degree": div.degree(),
    }
    return {"outputs": outputs, "consistency": {"degree_zero": div.degree() == 0}}, 0


def cmd_order(args) -> tuple[dict, int]:
    datum = _datum(args)
    outputs: dict = {}
    consistency: dict = {}
    engine = closed = None
    if args.method in ("lattice", "both"):
        engine = class_order(datum.n, build_c_divisor(datum))
        outputs["engine"] = engine
    if args.method in ("closed", "both"):
        closed = closed_form_order(datum)
        outputs["closed"] = closed
    outputs["order"] = engine if engine is not None else closed
    code = 0
    if args.method == "both":
        match = None if closed is None else (engine == closed)
        consistency["engine_closed_match"] = match
        if match is False:
            code = 2
    return {"outputs": outputs, "consistency": consistency}, code


def _residue_checks(datum: EisensteinDatum, table, at_inf, at_ml, f) -> dict[str, bool]:
    """The four residue invariants of a datum's table against its closed
    values at infinity and at level ML and against the constant term of its
    series f (at any precision), keyed as `residues` reports them."""
    n, ml = datum.n, datum.m * datum.l_part
    return {
        "weighted_sum_zero": table.weighted_sum() == 0,
        "closed_matches_infinity": table.at_level(n) == at_inf,
        "closed_matches_level_ml": table.at_level(ml) == at_ml,
        "normalization_link": table.at_level(n) == -24 * f.a(0),
    }


def cmd_residues(args) -> tuple[dict, int]:
    datum = _datum(args)
    table = residue_table(datum)
    at_inf, at_ml = residue_closed(datum)
    outputs = {
        "residues": _vec(table.res),
        "closed_at_infinity": _rat(at_inf),
        "closed_at_level_ml": _rat(at_ml),
        "level_ml": datum.m * datum.l_part,
    }
    consistency = _residue_checks(datum, table, at_inf, at_ml, build_qexp(datum, 4))
    code = 0 if all(consistency.values()) else 2
    return {"outputs": outputs, "consistency": consistency}, code


def cmd_qexp(args) -> tuple[dict, int]:
    if args.prec > _PREC_BUDGET:
        raise ValueError(f"--prec {args.prec} exceeds the budget {_PREC_BUDGET}")
    f = build_qexp(_datum(args), args.prec)
    outputs = {
        "level": f.n,
        "precision": f.prec,
        "coefficients": [_rat(a) for a in f.coeffs],
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_hecke(args) -> tuple[dict, int]:
    if not is_prime(args.p):
        raise ValueError(f"{args.p} is not prime")
    div = _parse_divisor(args.N, args.divisor)
    image = hecke_delta(div, args.p)
    outputs = {
        "image": _vec(image.coeffs),
        "input": _vec(div.coeffs),
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_classify(args) -> tuple[dict, int]:
    primes = rational_eisenstein_primes(args.N, args.ell)
    outputs = {
        "primes": [
            {
                "ell": e.ell,
                "M": e.datum.m,
                "D": e.datum.d_part,
                "index": e.index_n,
                "hypothesis_ok": e.hypothesis_ok,
                "new_candidate": e.new_candidate,
            }
            for e in primes
        ]
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_sweep(args) -> tuple[dict, int]:
    report, ok = run_sweep(args.max_N)
    return {"outputs": report, "consistency": {"all_invariants_hold": ok}}, 0 if ok else 2


def _inverts_columns(n: int, rows, scale) -> bool:
    """Whether the engine sends every column of Lambda(n) = diag(scale)^{-1}
    rows to its unit vector; column j is read over lcm(scale)."""
    den = math.lcm(*scale)
    lifts = [den // s for s in scale]
    for j in range(len(rows)):
        u, out = apply_lambda_inverse(n, [row[j] * t for row, t in zip(rows, lifts)], den)
        if u != tuple(out if i == j else 0 for i in range(len(u))):
            return False
    return True


def _maps_to(rows, scale, u, den: int, c) -> bool:
    """Whether Lambda(n) (u / den) == c for Lambda(n) = diag(scale)^{-1} rows,
    in integers: whether rows . u == den * scale * c."""
    return all(
        sum(a * v for a, v in zip(row, u)) == den * s * w for row, s, w in zip(rows, scale, c)
    )


# The sweep's failure label of each residue check, in the order it runs them.
_RESIDUE_LABELS = {
    "weighted_sum_zero": "residue sum of {}",
    "closed_matches_infinity": "residue at infinity of {}",
    "closed_matches_level_ml": "residue at level ML of {}",
    "normalization_link": "residue normalization of {}",
}


def run_sweep(max_n: int) -> tuple[dict, bool]:
    """Run the cross-module invariant suite for every level up to max_n."""
    if max_n < 1:
        raise ValueError(f"sweep bound {max_n} is not a positive integer")
    failures: list[str] = []
    counts = {"levels": 0, "data": 0, "checks": 0}

    def check(flag: bool, label: str, *args) -> None:
        """Count one check; only a failing one formats its label with args."""
        counts["checks"] += 1
        if not flag:
            failures.append(label.format(*args))

    for n in range(1, max_n + 1):
        counts["levels"] += 1
        check(len(enumerate_cusps(n)) == cusp_count(n), "cusp count at {}", n)
        for p in primes_upto(7):
            if n * p > 400:
                continue
            deg = covering_degree(n, p)
            afibers: dict = {}
            bfibers: dict = {}
            for c in enumerate_cusps(n * p):
                a, b = alpha_image(c, p), beta_image(c, p)
                afibers[a] = afibers.get(a, 0) + alpha_ram(c, p)
                bfibers[b] = bfibers.get(b, 0) + beta_ram(c, p)
            for c in enumerate_cusps(n):
                check(afibers.get(c) == deg, "alpha fiber degree at N={}, p={}", n, p)
                check(bfibers.get(c) == deg, "beta fiber degree at N={}, p={}", n, p)
        rows, scale = _lambda_integer(n)
        check(_inverts_columns(n, rows, scale), "Lambda inverse at {}", n)
        divs = divisors_of(n)
        rhs = tuple((-1) ** i * (i + 1) for i in range(len(divs)))
        u, den = apply_lambda_inverse(n, rhs)
        check(
            solve_lambda(n, rhs) == tuple(Fraction(x, den) for x in u),
            "solver agreement at {}", n,
        )
        for p in prime_divisors(n):
            for d in divs:
                expected = hecke_delta_closed(d, p, n)
                if expected is None:
                    continue
                check(
                    hecke_delta(RationalCuspDivisor.from_dict(n, {d: 1}), p) == expected,
                    "case table at N={}, p={}, d={}", n, p, d,
                )
        for datum in enumerate_data(n):
            counts["data"] += 1
            div = build_c_divisor(datum)
            order = class_order(n, div)
            closed = closed_form_order(datum)
            if closed is not None:
                try:
                    local = index_n(datum)
                except ConsistencyError:
                    local = None
                check(closed == order == local, "order of {}", datum)
            squarefree_m = math.gcd(datum.m, datum.d_part) == 1
            if squarefree_m:
                check(
                    _maps_to(rows, scale, *r_vector(datum), div.as_vector()),
                    "exponent vector of {}", datum,
                )
            for p in prime_divisors(n):
                image = hecke_delta(div, p)
                eps = epsilon(datum, p)
                if squarefree_m:
                    check(image == eps * div, "divisor eigenvalue of {} at {}", datum, p)
                else:
                    check(
                        is_principal(n, image - eps * div),
                        "class eigenvalue of {} at {}", datum, p,
                    )
            f = build_qexp(datum, _SWEEP_PREC)
            residues = _residue_checks(datum, residue_table(datum), *residue_closed(datum), f)
            for key, label in _RESIDUE_LABELS.items():
                check(residues[key], label, datum)
            eigen = eigen_check(datum, f, _SWEEP_QMAX)
            check(eigen.passed, "eigenform checks of {}", datum)
    report = {
        "max_n": max_n,
        "levels": counts["levels"],
        "data": counts["data"],
        "checks": counts["checks"],
        "failures": failures,
    }
    return report, not failures


_COMMANDS = {
    "cusps": cmd_cusps,
    "lambda": cmd_lambda,
    "cdivisor": cmd_cdivisor,
    "order": cmd_order,
    "residues": cmd_residues,
    "qexp": cmd_qexp,
    "hecke": cmd_hecke,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cuspidal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_level: bool = True):
        p = sub.add_parser(name)
        if needs_level:
            p.add_argument("N", type=int)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timing", action="store_true")
        return p

    add("cusps")
    p = add("lambda")
    p.add_argument("--inverse", action="store_true")
    for name in ("cdivisor", "order", "residues", "qexp"):
        p = add(name)
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--D", type=int, default=1)
        if name == "order":
            p.add_argument("--method", choices=("closed", "lattice", "both"), default="both")
        if name == "qexp":
            p.add_argument("--prec", type=int, default=60)
    p = add("hecke")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--divisor", type=str, required=True)
    p = add("classify")
    p.add_argument("--ell", type=int, default=None)
    p = add("sweep", needs_level=False)
    p.add_argument("--max-N", dest="max_N", type=int, required=True)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if "N" in args and args.N < 1:
            raise ValueError(f"level {args.N} is not a positive integer")
        body, code = _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"cuspidal: error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"cuspidal: consistency failure: {exc}", file=sys.stderr)
        return 2
    inputs = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command", "format", "timing")
    }
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": body["outputs"],
        "consistency": body["consistency"],
    }
    if args.timing:
        report["timing_ms"] = int((time.perf_counter() - started) * 1000)
    if args.format == "json":
        print(to_json(report))
    else:
        print("\n".join(_render_text(report)))
    return code


if __name__ == "__main__":
    sys.exit(main())
