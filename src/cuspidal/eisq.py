"""Weight-2 Eisenstein q-expansions and their residues at the cusps of X0(N).

A datum fixes the eigenvalue eps = epsilon(datum, q) in {1, q, 0} of the
level-q operator at every prime q | N, and both the series and its residues
are products of one local factor per prime power q^r || N chosen by eps:
the Euler factor (1 - X)^[eps != 1] (1 - qX)^[eps != q] on the series, and
on the residues the datum's local divisor over q^0, ..., q^r times a scalar.
Truncations carry their precision, and operators shrink it explicitly.
Nothing here checks itself: the weighted residue sum and the closed values
are checks of `cuspidal residues` and `sweep`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    Record,
    divisors_of,
    euler_phi,
    factor,
    is_prime,
    omega,
    parts,
    prime_divisors,
)
from .heckediv import EisensteinDatum, epsilon, over_primes

__all__ = [
    "QExpansion",
    "ResidueTable",
    "base_epp",
    "build_qexp",
    "hecke_on_qexp",
    "eigen_check",
    "EigenReport",
    "residue_table",
    "residue_closed",
]


class QExpansion(Record):
    """Exact q-expansion a_0 + a_1 q + ... + a_prec q^prec at one level.

    The series built here have a rational a_0 (a Fraction) and integer
    coefficients a_k for k >= 1 (ints), so the operators on them run in
    integer arithmetic beyond the constant term.
    """

    __slots__ = ("n", "prec", "coeffs")

    def __init__(self, n: int, prec: int, coeffs: tuple[Fraction | int, ...]) -> None:
        if prec < 0 or len(coeffs) != prec + 1:  # spelled out, as in Cusp
            raise ValueError("coefficient count must equal prec + 1")
        set_n, set_prec, set_coeffs = self._setters
        set_n(self, n)
        set_prec(self, prec)
        set_coeffs(self, coeffs)

    def a(self, k: int) -> Fraction | int:
        return self.coeffs[k]


def _euler_step(
    coeffs: tuple[Fraction | int, ...], q: int, k: int
) -> tuple[Fraction | int, ...]:
    """Coefficients of f(z) - k f(qz) to the same precision: a_j - k a_{j/q}
    at the multiples j of q, a_j elsewhere."""
    out = list(coeffs)
    out[::q] = [a - b * k for a, b in zip(coeffs[::q], coeffs)]
    return tuple(out)


def base_epp(p: int, prec: int) -> QExpansion:
    """The weight-2 Eisenstein series at prime level p normalized to
    (p-1)/24 + sum_{n>=1} (sum of divisors of n coprime to p) q^n."""
    if prec < 0:
        raise ValueError("precision must be non-negative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    sigma = [0] * (prec + 1)
    for d in range(1, prec + 1):
        if d % p:
            for k in range(d, prec + 1, d):
                sigma[k] += d
    return QExpansion(p, prec, (Fraction(p - 1, 24), *sigma[1:]))


def build_qexp(datum: EisensteinDatum, prec: int) -> QExpansion:
    """q-expansion of the Eisenstein series attached to a datum.

    The series is the level-one series times the Euler factor
    (1 - X)^[eps != 1] (1 - qX)^[eps != q] at every prime q | n, with
    eps = epsilon(datum, q) and X acting as f(z) -> f(qz).  The base is the
    level-p series of the smallest prime p with eps != p, which already
    carries the factor (1 - pX); the other factors follow in ascending order.
    """
    eps = {q: epsilon(datum, q) for q in prime_divisors(datum.n)}
    steps = [(q, k) for q, e in eps.items() for k in (1, q) if e != k]
    base = min(q for q, k in steps if k == q)
    coeffs = base_epp(base, prec).coeffs
    for q, k in steps:
        if (q, k) != (base, base):
            coeffs = _euler_step(coeffs, q, k)
    return QExpansion(datum.n, prec, coeffs)


def hecke_on_qexp(f: QExpansion, q: int) -> QExpansion:
    """Level-q Hecke operator on a q-expansion: b_k = a_{qk} + q a_{k/q} off
    the level, b_k = a_{qk} on it.  Output precision is floor(prec / q)."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    prec = f.prec // q
    coeffs = list(f.coeffs[: q * prec + 1 : q])
    if f.n % q:
        coeffs[::q] = [b + a * q for b, a in zip(coeffs[::q], f.coeffs)]
    return QExpansion(f.n, prec, tuple(coeffs))


class EigenFact(Record):
    """One Hecke eigenvalue test: the first coefficient index that fails, or None."""

    __slots__ = ("prime", "on_level", "eigenvalue", "checked_prec", "first_bad")

    @property
    def ok(self) -> bool:
        return self.first_bad is None


class EigenReport(Record):
    """The eigenvalue tests of one datum's series at one precision."""

    __slots__ = ("datum", "prec", "checks")

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def eigen_check(datum: EisensteinDatum, f: QExpansion, qmax: int) -> EigenReport:
    """Verify the eigenvalue pattern on the datum's series f: q+1 for primes
    q off the level (q <= qmax), and the datum's eigenvalue at every prime of
    the level, each to the precision that f.prec leaves after the operator.
    f must have the datum's level, which picks T_q or U_q at each prime."""
    if f.n != datum.n:
        raise ValueError(f"series of level {f.n} cannot check a datum of level {datum.n}")
    if f.prec < 2 * qmax:
        raise ValueError("need a series of precision >= 2 * qmax for a meaningful check")
    off_level = [q for q in range(2, qmax + 1) if is_prime(q) and datum.n % q]
    checks = [_eigen_fact(f, q, q + 1, on_level=False) for q in off_level]
    for p in prime_divisors(datum.n):
        checks.append(_eigen_fact(f, p, epsilon(datum, p), on_level=True))
    return EigenReport(datum, f.prec, tuple(checks))


def _eigen_fact(f: QExpansion, q: int, eigenvalue: int, on_level: bool) -> EigenFact:
    g = hecke_on_qexp(f, q)
    pairs = enumerate(zip(g.coeffs, f.coeffs))
    bad = next((k for k, (b, a) in pairs if b != a * eigenvalue), None)
    return EigenFact(q, on_level, eigenvalue, g.prec, bad)


class ResidueTable(Record):
    """Residue of a series at the cusps of X0(n), one (level, value) pair per level."""

    __slots__ = ("n", "res")

    def at_level(self, d: int) -> Fraction:
        for dd, v in self.res:
            if dd == d:
                return v
        raise KeyError(f"{d} is not a level of X0({self.n})")

    def weighted_sum(self) -> Fraction:
        n, ratios = self.n, [(d, *v.as_integer_ratio()) for d, v in self.res]
        den = math.lcm(*(b for _, _, b in ratios))
        total = sum(euler_phi(math.gcd(d, n // d)) * a * (den // b) for d, a, b in ratios if a)
        return Fraction(total, den)


def residue_table(datum: EisensteinDatum) -> ResidueTable:
    """Residues of the datum's series at every cusp level: its divisor times
    m s / rad(n), s the product of the local scales, as the local residue
    factor is the local divisor times the scale at the primes of m (eps = 1)
    and the scale over q elsewhere.  `residues` and `sweep` check its sum."""
    table, scale = over_primes(datum, 0)
    num, rad, divs = datum.m * scale, parts(datum.n)[2], divisors_of(datum.n)
    return ResidueTable(datum.n, tuple((d, Fraction(num * table[d], rad)) for d in divs))


def residue_closed(datum: EisensteinDatum) -> tuple[Fraction, Fraction]:
    """Closed residues at the cusp at infinity (level n) and at level m*L.

    At infinity the residue vanishes unless m is the full radical, where it
    is the product of (1 - p) over the primes of n.
    """
    n, m = datum.n, datum.m
    sf, _, rad = parts(n)
    at_inf = Fraction(math.prod(1 - p for p in prime_divisors(n)) if m == rad else 0)
    num = 1
    for p, r in factor(n):
        num *= (p - 1 if m % p == 0 else p * p - 1) * p ** max(r - 2, 0)
    den = math.prod(prime_divisors((sf // math.gcd(m, sf)) * datum.l_part))
    at_ml = Fraction((-1) ** omega(m * datum.l_part) * num, den)
    return at_inf, at_ml
