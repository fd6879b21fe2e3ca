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
    euler_phi,
    is_prime,
    omega,
    parts,
    prime_divisors,
    primes_upto,
    valuation,
)
from .heckediv import EisensteinDatum, _local_divisor, epsilon, over_primes

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
        super().__init__(n, prec, coeffs)
        if self.prec < 0 or len(self.coeffs) != self.prec + 1:
            raise ValueError("coefficient count must equal prec + 1")

    def a(self, k: int) -> Fraction | int:
        return self.coeffs[k]


def _euler_step(
    coeffs: tuple[Fraction | int, ...], q: int, k: int
) -> tuple[Fraction | int, ...]:
    """Coefficients of f(z) - k f(qz) to the same precision: a_j - k a_{j/q}
    at the multiples j of q, a_j elsewhere."""
    out = list(coeffs)
    out[::q] = [a - k * b for a, b in zip(coeffs[::q], coeffs)]
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
    steps = [
        (q, k) for q in prime_divisors(datum.n) for k in (1, q) if epsilon(datum, q) != k
    ]
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
    if f.n % q == 0:
        coeffs = tuple(f.coeffs[q * k] for k in range(prec + 1))
    else:
        coeffs = tuple(
            f.coeffs[q * k] + q * (f.coeffs[k // q] if k % q == 0 else 0)
            for k in range(prec + 1)
        )
    return QExpansion(f.n, prec, coeffs)


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
    the level, each to the precision that f.prec leaves after the operator."""
    if f.prec < 2 * qmax:
        raise ValueError("need a series of precision >= 2 * qmax for a meaningful check")
    checks = []
    for q in primes_upto(qmax):
        if datum.n % q == 0:
            continue
        checks.append(_eigen_fact(f, q, q + 1, on_level=False))
    for p in prime_divisors(datum.n):
        checks.append(_eigen_fact(f, p, epsilon(datum, p), on_level=True))
    return EigenReport(datum, f.prec, tuple(checks))


def _eigen_fact(f: QExpansion, q: int, eigenvalue: int, on_level: bool) -> EigenFact:
    g = hecke_on_qexp(f, q)
    bad = None
    for k in range(g.prec + 1):
        if g.coeffs[k] != eigenvalue * f.coeffs[k]:
            bad = k
            break
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
        den = math.lcm(*(v.denominator for _, v in self.res))
        total = sum(
            euler_phi(math.gcd(d, self.n // d)) * v.numerator * (den // v.denominator)
            for d, v in self.res
        )
        return Fraction(total, den)


def _local_residues(q: int, r: int, eps: int) -> list[Fraction | int]:
    """Residue factors at the levels q^0, ..., q^r for q^r || n: the local
    divisor times q - 1 where eps = 1, q^(r-2) (q^2 - 1) where eps = q, and
    q^(r-3) (q^2 - 1) where eps = 0."""
    scalar = q - 1 if eps == 1 else Fraction(q) ** (r - 2 if eps == q else r - 3) * (q * q - 1)
    # zeros stay ints, so that over_primes multiplies them in integers
    return [scalar * x if x else 0 for x in _local_divisor(q, r, eps)]


def residue_table(datum: EisensteinDatum) -> ResidueTable:
    """Residues of the datum's series at every cusp level: the residue at
    level d is the product over q^r || n of the local factor at val_q(d),
    chosen by epsilon(datum, q).  The weighted residue sum over all cusps
    vanishes; `residues` and `sweep` check it."""
    table = over_primes(datum, _local_residues)
    return ResidueTable(datum.n, tuple(sorted((d, Fraction(x)) for d, x in table.items())))


def residue_closed(datum: EisensteinDatum) -> tuple[Fraction, Fraction]:
    """Closed residues at the cusp at infinity (level n) and at level m*L.

    At infinity the residue vanishes unless m is the full radical, where it
    is the product of (1 - p) over the primes of n.
    """
    n, m = datum.n, datum.m
    sf, sq, rad = parts(n)
    if m == rad:
        at_inf = Fraction(math.prod(1 - p for p in prime_divisors(n)))
    else:
        at_inf = Fraction(0)
    num = 1
    for p in prime_divisors(m):
        num *= p - 1
    for p in prime_divisors(rad // m):
        num *= p * p - 1
    for p in prime_divisors(sq):
        num *= p ** (valuation(n, p) - 2)
    den = math.prod(prime_divisors((sf // math.gcd(m, sf)) * datum.l_part))
    at_ml = (-1) ** omega(m * datum.l_part) * Fraction(num, den)
    return at_inf, at_ml
