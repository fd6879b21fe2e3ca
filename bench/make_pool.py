"""Build bench/pool.json: every candidate request, its reference output hash
and its cost, cut into strata of similar cost.

    python3 bench/make_pool.py

Each candidate runs once through run.spawn; it must exit 0 without a
traceback, and its stdout SHA-256 becomes the reference that every later run
is checked against.  Each function in WORKLOADS returns groups of candidates
with a stratum count: a group with count 1 is one stratum, holding inputs of
equal cost; a larger count sorts the group by measured cost and cuts it into
that many contiguous strata.  run.requests draws one request per stratum, so
every seed gets a list of about the same cost.  Rebuild only when the set of
candidates changes: a rebuild on changed program code would bless its outputs.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys

import run

sys.path.insert(0, str(run.SRC))

from cuspidal.arith import divisors_of, euler_phi  # noqa: E402
from cuspidal.classifier import enumerate_data  # noqa: E402
from cuspidal.cusps import cusp_count  # noqa: E402

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)
SERIES_LEVELS = (60, 90, 126, 180, 210, 252, 300, 360, 420, 630, 1260, 2310)
COST_ROUNDS = 3


def _smooth_levels(limit: int) -> list[int]:
    levels = [1]
    for p in SMOOTH_PRIMES:
        levels = [n * p**k for n in levels for k in range(20) if n * p**k <= limit]
    return sorted(levels)


def classify_smooth() -> list[tuple[list[list[str]], int]]:
    """13-smooth N <= 200000 with 48 <= tau(N) <= 80; every fourth of them."""
    levels = [n for n in _smooth_levels(200_000) if 48 <= len(divisors_of(n)) <= 80]
    return [([["classify", str(n), "--format", "json"] for n in levels[::4]], 32)]


def _degree_zero_divisor(n: int, rng: random.Random) -> str:
    """Two or three levels of X0(n) with coefficients summing to degree 0."""
    levels = rng.sample(divisors_of(n), rng.choice((2, 3)))
    weight = {d: euler_phi(math.gcd(d, n // d)) for d in levels}
    coeffs: dict[int, int] = {}
    for a, b in zip(levels, levels[1:]):
        g = math.gcd(weight[a], weight[b])
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        coeffs[a] = coeffs.get(a, 0) + k * weight[b] // g
        coeffs[b] = coeffs.get(b, 0) - k * weight[a] // g
    return ",".join(f"{d}:{c}" for d, c in sorted(coeffs.items()))


def hecke_deep() -> list[tuple[list[list[str]], int]]:
    """Every N = p^a q^b with 1500-4000 cusps on X0(Np), one stratum each:
    the seed picks one of three degree-0 divisors, which leave the cost alone."""
    rng = random.Random("hecke_deep pool")
    out = []
    for p in (2, 3, 5, 7):
        for q in SMOOTH_PRIMES:
            for a in range(1, 16):
                for b in range(1, 4):
                    n = p**a * q**b
                    if q == p or not 1500 <= cusp_count(n * p) <= 4000:
                        continue
                    divisors = [_degree_zero_divisor(n, rng) for _ in range(3)]
                    out.append(
                        ([["hecke", str(n), "--p", str(p), "--divisor", d, "--format", "json"] for d in divisors], 1)
                    )
    return out


def sweep() -> list[tuple[list[list[str]], int]]:
    """Three bands of M, each free of the costly highly composite levels,
    so that a band's sweeps cost about the same."""
    bands = (range(121, 126), range(145, 150), range(157, 162))
    return [([["sweep", "--max-N", str(m), "--format", "json"] for m in band], 1) for band in bands]


def series() -> list[tuple[list[list[str]], int]]:
    """q-expansions at 24 precisions from 2000 to 9820, one stratum each, the
    seed picking one of the first and last data of 12 composite levels; and
    the residues of every datum at those levels."""
    data = [d for n in SERIES_LEVELS for d in enumerate_data(n)]
    ends = [d for n in SERIES_LEVELS for d in (enumerate_data(n)[0], enumerate_data(n)[-1])]

    def args(d):
        return [str(d.n), "--M", str(d.m), "--D", str(d.d_part)]

    qexp = [
        ([["qexp", *args(d), "--prec", str(prec), "--format", "json"] for d in ends], 1)
        for prec in range(2000, 10000, 340)
    ]
    residues = [["residues", *args(d), "--format", "json"] for d in data]
    return [*qexp, (residues, 16)]


WORKLOADS = {
    "classify_smooth": classify_smooth,
    "hecke_deep": hecke_deep,
    "sweep": sweep,
    "series": series,
}


def reference(argv: list[str]) -> dict:
    r = run.spawn(argv)
    if r["code"] != 0 or "Traceback" in r["stderr"] or not r["stdout"]:
        raise SystemExit(f"candidate {argv} failed: exit {r['code']}\n{r['stderr']}")
    return {"argv": argv, "cost_s": r["latency_s"], "sha256": run.digest(r["stdout"])}


def strata(candidates: list[dict], count: int) -> list[list[dict]]:
    """Cut the candidates into `count` strata of similar cost.

    The cost that orders them is the median of COST_ROUNDS runs made in
    separate rounds, so that one slow moment of the machine does not misplace
    a candidate.
    """
    if count > 1:
        costs = [[c["cost_s"]] for c in candidates]
        for _ in range(COST_ROUNDS - 1):
            for c, cost in zip(candidates, costs):
                cost.append(run.spawn(c["argv"])["latency_s"])
        for c, cost in zip(candidates, costs):
            c["cost_s"] = statistics.median(cost)
    for c in candidates:
        c["cost_s"] = round(c["cost_s"], 3)
    ordered = sorted(candidates, key=lambda c: c["cost_s"])
    bounds = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def main() -> None:
    pool = {"setup": reference(run.SETUP_ARGV), "workloads": {}}
    for name, build in WORKLOADS.items():
        pool["workloads"][name] = []
        for argvs, count in build():
            refs = [reference(a) for a in argvs]
            pool["workloads"][name] += strata(refs, count)
        print(f"{name}: {len(pool['workloads'][name])} strata", file=sys.stderr)
    lines = ["{", f' "setup": {json.dumps(pool["setup"], sort_keys=True)},', ' "workloads": {']
    for i, (name, groups) in enumerate(pool["workloads"].items()):
        lines.append(f"  {json.dumps(name)}: [")
        for j, stratum in enumerate(groups):
            body = ",\n".join(f"    {json.dumps(c, sort_keys=True)}" for c in stratum)
            lines.append(f"   [\n{body}\n   ]" + ("," if j < len(groups) - 1 else ""))
        lines.append("  ]" + ("," if i < len(pool["workloads"]) - 1 else ""))
    lines += [" }", "}"]
    run.POOL.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
