"""Command-line front end: exact reports as text or canonical JSON.

Exit codes: 0 success, 1 invalid input, 2 a failed consistency check, with
the report if it holds the check.  Rationals as {"num": "...", "den": "..."}
decimal strings and divisor-indexed vectors as [{"d": ..., "c": ...}] in
ascending divisor order make identical inputs give identical bytes.

The JSON report is exactly the bytes of json.dumps(report, sort_keys=True,
indent=2): keys sorted, two-space indent, "," and ": " separators, non-ASCII
and control characters as \\uXXXX escapes, tuples as arrays.  `to_json`
writes those bytes itself in one pass: CPython 3.11's C encoder does not run
with `indent`.  The package's own rational lists (`_Ratios`: the series and
the rows of Lambda(N)) and divisor vectors (`_Vector`) are written from one
string template each; everything else takes a generic walk, which imports
`json` only for a string that needs escaping or a float.

One table, `_ARGUMENTS`, names every subcommand's handler and arguments.
A well-formed request in canonical form (the subcommand, then its level and
options spelled out in full, each option at most once with a value that does
not start with "-") is read straight from it by `_read`.  Everything else,
`--help`, abbreviations, `--opt=value`, negative values, `--` and every
malformed command line, goes to the argparse parser built from the same
table, with argparse's messages and exit codes.  That parser reads
`--opt=--` as the value "--" on every Python version, as 3.13 does.

`argparse` is imported only for a command line that `_read` does not
accept.  No request loads `fractions`: `_ratio` writes each rational in
lowest terms from an integer over its denominator (the series over 24, the
residues over rad(N), Lambda(N)'s rows over their scales).

Exit costs only what a request allocates.  Serving the process's own argv,
`main` freezes the garbage collector on entry: everything alive then lives
until the process exits, so the collections the interpreter runs while
shutting down skip it.  A caller that passes argv keeps its heap as it was.
A report or help text that cannot be written, say to a pipe whose reader
has gone, ends in one `cuspidal: error:` line and exit 1, never a traceback.

Only the process entry uses a second CPU, for `sweep`, whose levels each
run alone (`_sweep_level`) and share nothing.  Serving its argv on a host
that lets it run on two CPUs, `run_sweep` deals the levels to two shares of
about equal tau-load (`_deal`) and forks one child for the second share;
the child sends its results back through a pipe, and the report merges them
in level order, byte for byte as one process writes it.  A fork refused, a
share that raises and a child's bytes that do not load take one fallback:
the child is reaped and the process runs every level itself, so the exit
code and error line are the one-process run's.  No child outlives the
request.  The tests, the benchmark's in-process replay and library callers,
which pass argv or call `run_sweep` directly, stay in one process.
"""

from __future__ import annotations

import gc
import marshal
import math
import os
import sys
import time
from collections import defaultdict
from itertools import repeat
from operator import mul
from types import SimpleNamespace

from .arith import divisors_of, factor, prime_divisors, primes_upto
from .classifier import enumerate_data, index_n, rational_eisenstein_primes
from .classlattice import (
    apply_lambda_inverse,
    class_order,
    closed_form_order,
    lambda_inverse,
    lambda_rows,
    mat_vec,
    r_vector,
    solve_lambda,
)
from .cusps import (
    ConsistencyError,
    RationalCuspDivisor,
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
# The largest cusp count that `cusps` lists; X0(2^34)'s 196608 cusps take
# about 0.7 s.
_CUSP_BUDGET = 100_000
# The largest tau(N) that `lambda` serves: on a 2-vCPU host its matrix took
# 0.38 s at tau = 384 and, inverted, 1.26 s at tau = 512.
_LAMBDA_BUDGET = 384
# The largest tau(N) that `classify` serves: 0.60 s at 8192, 1.22 s at 16384.
_CLASSIFY_BUDGET = 8192
# The largest tau(N) at which a request builds a vector over every divisor of
# N: `order`'s engine took 0.80 s at 65536 and 1.76 s at 131072, `residues`
# 0.84 s and 1.91 s, `cdivisor` 0.87 s and 2.09 s.  `order --method closed`
# costs O(omega(N)) and has none.
_WHOLE_LEVEL_BUDGET = 65536
# The largest `sweep --max-N` served; the sweep's time grows about linearly
# with its bound.
_SWEEP_BUDGET = 1000
# The precision and the largest Hecke prime of `sweep`'s eigenform checks.
_SWEEP_PREC, _SWEEP_QMAX = 24, 5


def to_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), in one pass."""
    if not isinstance(obj, (dict, list, tuple)):
        return _scalar(obj)
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
    deep = inner + "  "
    if type(value) is _Ratios:  # keys sorted: "den" before "num", "c" before "d"
        den, num, end = "{" + deep + '"den": "', '",' + deep + '"num": "', '"' + inner + "}"
        items = [f'{den}{r["den"]}{num}{r["num"]}{end}' for r in value]
        out.append("[" + inner + ("," + inner).join(items) + nl + "]")
    elif type(value) is _Vector:
        den, num = "{" + deep + '"c": {' + deep + '  "den": "', '",' + deep + '  "num": "'
        d, end = '"' + deep + "}," + deep + '"d": ', inner + "}"
        items = [
            f'{den}{v["c"]["den"]}{num}{v["c"]["num"]}{d}{int.__repr__(v["d"])}{end}'
            for v in value
        ]
        out.append("[" + inner + ("," + inner).join(items) + nl + "]")
    else:
        keyed = isinstance(value, dict)
        sep, close = ("{" if keyed else "[") + inner, nl + ("}" if keyed else "]")
        for key, x in sorted(value.items()) if keyed else zip(repeat(None), value):
            out.append(sep if key is None else sep + _quote(key) + ": ")
            if isinstance(x, (dict, list, tuple)):
                _emit(x, inner, out)
            else:
                out.append(_scalar(x))
            sep = "," + inner
        out.append(close)


def _quote(s: str) -> str:
    """s as json.dumps writes a string: printable ASCII without a quote or
    backslash stands as it is, anything else goes to json's escaper."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _scalar(x) -> str:
    """A leaf as json.dumps writes it; only a float or another foreign leaf
    imports json."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    import json

    return json.dumps(x)


class _Ratios(list):
    """Only {"num": str, "den": str} dicts, which `_emit` writes from one template."""


class _Vector(list):
    """Only {"d": int, "c": `_ratio` dict}s, which `_emit` writes from one template."""


def _ratio(num: int, den: int) -> dict:
    """num / den for den > 0 in lowest terms, as numerator and denominator strings."""
    g = math.gcd(num, den)
    return {"num": str(num // g), "den": str(den // g)}


def _vec(pairs, den: int = 1) -> _Vector:
    """The (d, num) pairs as a divisor vector of num / den, ascending in d."""
    return _Vector([{"d": d, "c": _ratio(c, den)} for d, c in sorted(pairs)])


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if type(value) is _Ratios:
        return [line for r in value for line in (f"{pad}{r['num']}/{r['den']}", f"{pad}-")]
    if type(value) is _Vector:
        return [f"{pad}{v['d']} -> {v['c']['num']}/{v['c']['den']}" for v in value]
    lines: list[str] = []
    if isinstance(value, dict):
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
            if isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent))
                lines.append(f"{pad}-")
            else:
                lines.append(f"{pad}{item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _datum(args) -> EisensteinDatum:
    return EisensteinDatum(args.N, args.M, args.D)


def _check_tau(n: int, budget: int) -> None:
    """Refuse a level with more than budget divisors, counted from `factor`."""
    tau = math.prod(e + 1 for _, e in factor(n))
    if tau > budget:
        raise ValueError(f"level {n} has {tau} divisors, above the budget {budget}")


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
    count = cusp_count(args.N)
    if count > _CUSP_BUDGET:
        raise ValueError(f"level {args.N} has {count} cusps, above the budget {_CUSP_BUDGET}")
    cusps = enumerate_cusps(args.N)
    outputs = {
        "count": len(cusps),
        "cusps": [{"d": c.d, "x": c.x} for c in cusps],
    }
    consistency = {"count_matches_formula": len(cusps) == count}
    return {"outputs": outputs, "consistency": consistency}, 0 if len(cusps) == count else 2


def cmd_lambda(args) -> tuple[dict, int]:
    _check_tau(args.N, _LAMBDA_BUDGET)
    if args.inverse:
        rows, den = lambda_inverse(args.N)
        scale = [den] * len(rows)
    else:
        rows, scale = lambda_rows(args.N)
    outputs = {
        "divisors": list(divisors_of(args.N)),
        "inverse": bool(args.inverse),
        "rows": [_Ratios([_ratio(x, s) for x in row]) for row, s in zip(rows, scale)],
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_cdivisor(args) -> tuple[dict, int]:
    _check_tau(args.N, _WHOLE_LEVEL_BUDGET)
    div = build_c_divisor(_datum(args))
    outputs = {"coefficients": _vec(div.coeffs), "degree": div.degree()}
    code = 0 if outputs["degree"] == 0 else 2
    return {"outputs": outputs, "consistency": {"degree_zero": code == 0}}, code


def cmd_order(args) -> tuple[dict, int]:
    datum = _datum(args)
    outputs: dict = {}
    consistency: dict = {}
    engine = closed = None
    if args.method in ("lattice", "both"):
        _check_tau(datum.n, _WHOLE_LEVEL_BUDGET)
        div = build_c_divisor(datum)
        if div.degree():
            raise ConsistencyError(f"divisor built for {datum} has degree {div.degree()}")
        engine = outputs["engine"] = class_order(datum.n, div)
    if args.method in ("closed", "both"):
        closed = outputs["closed"] = closed_form_order(datum)
    order = outputs["order"] = index_n(datum)
    if args.method == "both":
        consistency["engine_closed_match"] = None if closed is None else engine == closed
    code = 0 if engine in (None, order) and closed in (None, order) else 2
    return {"outputs": outputs, "consistency": consistency}, code


def _residue_checks(datum: EisensteinDatum, table, at_inf, at_ml, f) -> dict[str, bool]:
    """The four residue invariants of a datum's table, keyed as `residues`
    reports them: the sum over the cusps, the degree of sum_d res_d (P_d),
    is 0; the closed values at infinity and at level ML match; and against
    f, 24 times the series at any precision, residue at infinity = -24 a_0
    reads res[n] == -coeffs[0] den (the residues are over table.den)."""
    res = dict(table.res)
    return {
        "weighted_sum_zero": RationalCuspDivisor(table.n, table.res).degree() == 0,
        "closed_matches_infinity": res[datum.n] == at_inf,
        "closed_matches_level_ml": res[datum.m * datum.l_part] == at_ml,
        "normalization_link": res[datum.n] == -f.coeffs[0] * table.den,
    }


def cmd_residues(args) -> tuple[dict, int]:
    _check_tau(args.N, _WHOLE_LEVEL_BUDGET)
    datum = _datum(args)
    table = residue_table(datum)
    at_inf, at_ml = residue_closed(datum)
    outputs = {
        "residues": _vec(table.res, table.den),
        "closed_at_infinity": _ratio(at_inf, table.den),
        "closed_at_level_ml": _ratio(at_ml, table.den),
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
        "coefficients": _Ratios([_ratio(x, 24) for x in f.coeffs]),
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_hecke(args) -> tuple[dict, int]:
    div = _parse_divisor(args.N, args.divisor)
    image = hecke_delta(div, args.p)
    outputs = {
        "image": _vec(image.coeffs),
        "input": _vec(div.coeffs),
    }
    return {"outputs": outputs, "consistency": {}}, 0


def cmd_classify(args) -> tuple[dict, int]:
    _check_tau(args.N, _CLASSIFY_BUDGET)
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


def cmd_sweep(args, fork: bool = False) -> tuple[dict, int]:
    if args.max_N > _SWEEP_BUDGET:
        raise ValueError(f"--max-N {args.max_N} exceeds the budget {_SWEEP_BUDGET}")
    report, ok = run_sweep(args.max_N, fork)
    return {"outputs": report, "consistency": {"all_invariants_hold": ok}}, 0 if ok else 2


def _inverts_columns(n: int, rows, scale) -> bool:
    """Whether the engine sends every column of Lambda(n) = diag(scale)^{-1}
    rows to its unit vector; column j is read over lcm(scale)."""
    den = math.lcm(*scale)
    lifts = [den // s for s in scale]
    for j, column in enumerate(zip(*rows)):
        u, out = apply_lambda_inverse(n, list(map(mul, column, lifts)), den)
        if u[j] != out or any(u[:j]) or any(u[j + 1 :]):
            return False
    return True


# The sweep's failure label of each residue check, in the order it runs them.
_RESIDUE_LABELS = {
    "weighted_sum_zero": "residue sum of {}",
    "closed_matches_infinity": "residue at infinity of {}",
    "closed_matches_level_ml": "residue at level ML of {}",
    "normalization_link": "residue normalization of {}",
}


def run_sweep(max_n: int, fork: bool = False) -> tuple[dict, bool]:
    """Run the cross-module invariant suite for every level up to max_n.

    Each level runs alone (`_sweep_level`), and the report merges them in
    level order.  With fork true (`cmd_sweep` at the process entry) and a
    process that can fork and may run on two CPUs, a forked child runs one
    of `_deal`'s two shares of the levels (`_sweep_forked`); otherwise, and
    for every other caller, one process runs them all.  The report and any
    error are those of the single-process run.
    """
    if max_n < 1:
        raise ValueError(f"sweep bound {max_n} is not a positive integer")
    levels = range(1, max_n + 1)
    cpus = os.sched_getaffinity(0) if fork and hasattr(os, "sched_getaffinity") else ()
    forked = hasattr(os, "fork") and len(cpus) >= 2
    results = _sweep_forked(levels) if forked else {n: _sweep_level(n) for n in levels}
    data, checks, failed = zip(*(results[n] for n in levels))
    failures = [label for labels in failed for label in labels]
    counts = {"levels": max_n, "data": sum(data), "checks": sum(checks)}
    return {"max_n": max_n, **counts, "failures": failures}, not failures


def _sweep_level(n: int) -> tuple[int, int, list[str]]:
    """(data, checks, failures) of the invariant suite at level n, which
    lists the cusps of X0(n) and of its coverings X0(np) itself."""
    data = checks = 0
    failures: list[str] = []

    def check(flag: bool, label: str, *args) -> None:
        """Count one check; only a failing one formats its label with args."""
        nonlocal checks
        checks += 1
        if not flag:
            failures.append(label.format(*args))

    cusps = enumerate_cusps(n)
    check(len(cusps) == cusp_count(n), "cusp count at {}", n)
    for p in (p for p in primes_upto(7) if n * p <= 400):
        deg = covering_degree(n, p)
        afibers, bfibers = defaultdict(int), defaultdict(int)
        for c in enumerate_cusps(n * p):
            (a, ea), (b, eb) = alpha_image(c, p), beta_image(c, p)
            afibers[a.d, a.x] += ea
            bfibers[b.d, b.x] += eb
        for c in cusps:
            check(afibers.get((c.d, c.x)) == deg, "alpha fiber degree at N={}, p={}", n, p)
            check(bfibers.get((c.d, c.x)) == deg, "beta fiber degree at N={}, p={}", n, p)
    rows, scale = lambda_rows(n)
    check(_inverts_columns(n, rows, scale), "Lambda inverse at {}", n)
    divs = divisors_of(n)
    rhs = tuple((-1) ** i * (i + 1) for i in range(len(divs)))
    u, den = apply_lambda_inverse(n, rhs)
    y, den_y = solve_lambda(n, rhs)
    check(all(a * den == b * den_y for a, b in zip(y, u)), "solver agreement at {}", n)
    for p in prime_divisors(n):
        for d in divs:
            expected = hecke_delta_closed(d, p, n)
            if expected is None:
                continue
            check(
                hecke_delta(RationalCuspDivisor(n, ((d, 1),)), p) == expected,
                "case table at N={}, p={}, d={}", n, p, d,
            )
    for datum in enumerate_data(n):
        data += 1
        div = build_c_divisor(datum)
        closed = closed_form_order(datum)
        if closed is not None:
            try:
                agree = closed == class_order(n, div) == index_n(datum)
            except (ValueError, ConsistencyError):
                agree = False
            check(agree, "order of {}", datum)
        if math.gcd(datum.m, datum.d_part) == 1:
            # Lambda(n) (r / den) == c, that is rows . r == den * scale * c
            r, den = r_vector(datum)
            c = tuple([den * s * x for s, x in zip(scale, div.as_vector())])
            check(mat_vec(rows, r) == c, "exponent vector of {}", datum)
        for p in prime_divisors(n):
            check(
                hecke_delta(div, p) == epsilon(datum, p) * div,
                "divisor eigenvalue of {} at {}", datum, p,
            )
        f = build_qexp(datum, _SWEEP_PREC)
        residues = _residue_checks(datum, residue_table(datum), *residue_closed(datum), f)
        for key, label in _RESIDUE_LABELS.items():
            check(residues[key], label, datum)
        check(not eigen_check(datum, f, _SWEEP_QMAX), "eigenform checks of {}", datum)
    return data, checks, failures


def _deal(levels) -> tuple[list[int], list[int]]:
    """Two shares of the levels, each ascending: ranked by descending tau(n),
    the levels go to the shares in snake order (first, second, second,
    first), so the tau-loads differ by at most the largest tau."""
    ranked = sorted(levels, key=lambda n: -len(divisors_of(n)))
    return sorted(ranked[::4] + ranked[3::4]), sorted(ranked[1::4] + ranked[2::4])


def _sweep_forked(levels) -> dict[int, tuple]:
    """{n: `_sweep_level(n)`} over the levels, the second share of `_deal`
    run by a forked child at the same time as the first.

    The child sends its results down a pipe as `marshal` bytes and leaves
    with os._exit, 1 on any exception, so it writes nothing else and runs
    no clean-up of the parent's.  The process reads the pipe to its end
    before it reaps the child, and kills the child first if its own share
    raises.  One fallback covers a fork refused, an Exception in this
    share and bytes that do not load: the child is reaped and the process
    runs every level itself, so an error is the single-process run's.
    """
    mine, theirs = _deal(levels)
    read, write = os.pipe()
    try:
        pid = os.fork() if theirs else None
    except OSError:
        pid = None
    if pid == 0:  # the child
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps({n: _sweep_level(n) for n in theirs}))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    payload = None
    try:
        with open(read, "rb") as pipe:
            if pid is not None:
                results = {n: _sweep_level(n) for n in mine}
                payload = pipe.read()
                results.update(marshal.loads(payload))
                return results
    except Exception:
        pass
    finally:
        if pid is not None:
            if payload is None:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {n: _sweep_level(n) for n in levels}


_FORMAT = ("--format", {"dest": "format", "choices": ("text", "json"), "default": "text"})
_TIMING = ("--timing", {"dest": "timing", "action": "store_true", "default": False})
_INVERSE = ("--inverse", {"dest": "inverse", "action": "store_true", "default": False})
_METHOD = (
    "--method",
    {"dest": "method", "choices": ("closed", "lattice", "both"), "default": "both"},
)
_DATUM = (
    ("--M", {"dest": "M", "type": int, "required": True}),
    ("--D", {"dest": "D", "type": int, "default": 1}),
)
_HECKE = (
    ("--p", {"dest": "p", "type": int, "required": True}),
    ("--divisor", {"dest": "divisor", "type": str, "required": True}),
)

# Each subcommand as (handler, whether it takes the level N, its options as
# (flag, add_argument keywords) in help order).  `_build_parser` passes the
# keywords to argparse; `_read` understands exactly these: dest, type (int or
# str), choices, default, required and the store_true action.
_ARGUMENTS = {
    "cusps": (cmd_cusps, True, ()),
    "lambda": (cmd_lambda, True, (_INVERSE,)),
    "cdivisor": (cmd_cdivisor, True, _DATUM),
    "order": (cmd_order, True, (*_DATUM, _METHOD)),
    "residues": (cmd_residues, True, _DATUM),
    "qexp": (cmd_qexp, True, (*_DATUM, ("--prec", {"dest": "prec", "type": int, "default": 60}))),
    "hecke": (cmd_hecke, True, _HECKE),
    "classify": (cmd_classify, True, (("--ell", {"dest": "ell", "type": int, "default": None}),)),
    "sweep": (cmd_sweep, False, (("--max-N", {"dest": "max_N", "type": int, "required": True}),)),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The arguments argparse would give for a well-formed argv in canonical
    form, or None for any other argv, which argparse then reads."""
    if not argv or argv[0] not in _ARGUMENTS:
        return None
    _, takes_level, options = _ARGUMENTS[argv[0]]
    unseen = dict((_FORMAT, _TIMING, *options))
    if takes_level:  # the positional, keyed None
        unseen[None] = {"dest": "N", "type": int, "required": True}
    values = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token if token.startswith("-") else None
        spec = unseen.pop(flag, None)
        if spec is None:
            return None
        if "action" in spec:
            values[spec["dest"]] = True
            continue
        if flag is not None:
            token = next(tokens, "-")  # a missing value reads as a dash
            if token.startswith("-"):
                return None
        try:
            value = spec.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[spec["dest"]] = value
    for spec in unseen.values():
        if spec.get("required"):
            return None
        values[spec["dest"]] = spec.get("default")
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of `_ARGUMENTS`; it exits 1 on bad input, not 2."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:
            self.exit(1, f"{self.prog}: error: {message}\n")

    class Store(argparse.Action):
        """argparse's store, except that `--opt=--` is the value "--" as on
        Python 3.13: 3.10 to 3.12 hand the action an empty list instead."""

        def __call__(self, parser, namespace, values, option_string=None) -> None:
            if values == []:
                values = "--"
                if self.type is int:
                    raise argparse.ArgumentError(self, "invalid int value: '--'")
                if self.choices is not None and values not in self.choices:
                    choices = ", ".join(map(repr, self.choices))
                    raise argparse.ArgumentError(
                        self, f"invalid choice: '--' (choose from {choices})"
                    )
            setattr(namespace, self.dest, values)

    parser = Parser(prog="cuspidal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_level, options) in _ARGUMENTS.items():
        p = sub.add_parser(name)
        if takes_level:
            p.add_argument("N", type=int)
        for flag, spec in (_FORMAT, _TIMING, *options):
            p.add_argument(flag, **{"action": Store, **spec})
    return parser


def main(argv: list[str] | None = None) -> int:
    """Serve one command line and return its exit code.

    With argv None, main serves the process's own argv, and the process
    exits when main returns.  It then freezes the garbage collector first,
    so the interpreter's shutdown collections walk only what the request
    allocated, lets `sweep` fork a child for half its levels, and on a
    closed stdout it points file descriptor 1 at os.devnull before
    returning 1, so the interpreter's final flush stays quiet.  A caller
    that passes argv keeps its collector and its stdout, and its process
    runs every level of a sweep.
    """
    entry = argv is None
    if entry:
        argv = sys.argv[1:]
        gc.freeze()
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # `--help` may still sit in stdout's buffer
            return _written(None, int(exc.code or 0), entry)
    started = time.perf_counter()
    try:
        if getattr(args, "N", 1) < 1:
            raise ValueError(f"level {args.N} is not a positive integer")
        handler = _ARGUMENTS[args.command][0]
        # Only the process entry may fork: its process ends when main returns.
        body, code = handler(args, fork=entry) if handler is cmd_sweep else handler(args)
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
    text = to_json(report) if args.format == "json" else "\n".join(_render_text(report))
    return _written(text, code, entry)


def _written(text: str | None, code: int, entry: bool) -> int:
    """code once text (if any) and stdout's buffer are written, else 1 with
    one error line: the Python docs' "Note on SIGPIPE" recipe at the entry."""
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except OSError as exc:
        if entry:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cuspidal: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
