"""Weight-2 Eisenstein q-expansions and their residues at the cusps of X0(N).

A datum fixes the eigenvalue eps = epsilon(datum, q) in {1, q, 0} of the
level-q operator at every prime q | N, and both the series and its residues
are products of one local factor per prime power q^r || N chosen by eps:
the Euler factor (1 - X)^[eps != 1] (1 - qX)^[eps != q] on the series, and
on the residues the datum's local divisor over q^0, ..., q^r times a scalar.
Every rational is integers over one denominator: a series is held as 24
times itself, integers at every index, and a residue table over rad(n).  The
operators on a series are linear, so none of them sees the factor 24.
A truncation's precision is its coefficient count less one, so an
operator that shortens the coefficients shrinks it.
Nothing here checks itself: the residues' sum over the cusps, the degree of
their divisor, and the closed values are checks of `residues` and `sweep`.
"""

from __future__ import annotations

import math

from .arith import (
    Record,
    divisors_of,
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
    "residue_table",
    "residue_closed",
]


class QExpansion(Record):
    """Exact q-expansion a_0 + a_1 q + ... + a_prec q^prec at one level,
    held as coeffs[k] = 24 a_k: the series built here are integers that way,
    so the operators on them run in integer arithmetic."""

    __slots__ = ("n", "coeffs")

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1


def _euler_step(coeffs: tuple[int, ...], q: int, k: int) -> tuple[int, ...]:
    """Coefficients of f(z) - k f(qz) to the same precision: a_j - k a_{j/q}
    at the multiples j of q, a_j elsewhere."""
    out = list(coeffs)
    out[::q] = [a - b * k for a, b in zip(coeffs[::q], coeffs)]
    return tuple(out)


def base_epp(p: int, prec: int) -> QExpansion:
    """24 times the weight-2 Eisenstein series at prime level p normalized to
    (p-1)/24 + sum_{n>=1} (sum of divisors of n coprime to p) q^n, which is
    p E_2(pz) - E_2(z) with E_2 = 1 - 24 sum sigma(n) q^n."""
    if prec < 0:
        raise ValueError("precision must be non-negative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    sigma = [0] * (prec + 1)
    for d in range(1, prec + 1):
        if d % p:
            for k in range(d, prec + 1, d):
                sigma[k] += d
    return QExpansion(p, (p - 1, *[24 * x for x in sigma[1:]]))


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
    return QExpansion(datum.n, coeffs)


def hecke_on_qexp(f: QExpansion, q: int) -> QExpansion:
    """Level-q Hecke operator on a q-expansion: b_k = a_{qk} + q a_{k/q} off
    the level, b_k = a_{qk} on it.  Output precision is floor(prec / q)."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    coeffs = list(f.coeffs[::q])
    if f.n % q:
        coeffs[::q] = [b + a * q for b, a in zip(coeffs[::q], f.coeffs)]
    return QExpansion(f.n, tuple(coeffs))


def eigen_check(datum: EisensteinDatum, f: QExpansion, qmax: int) -> dict[int, int]:
    """The primes q at which the datum's series f fails its eigenvalue, each
    with the first index k where (T_q f)_k or (U_q f)_k differs from the
    eigenvalue times a_k; empty when f passes.  The eigenvalue is q+1 at the
    primes q <= qmax off the level and the datum's at every prime of the
    level, each checked to the precision that f.prec leaves after the
    operator.  f must have the datum's level, which picks T_q or U_q."""
    if f.n != datum.n:
        raise ValueError(f"series of level {f.n} cannot check a datum of level {datum.n}")
    if f.prec < 2 * qmax:
        raise ValueError("need a series of precision >= 2 * qmax for a meaningful check")
    off_level = [(q, q + 1) for q in range(2, qmax + 1) if is_prime(q) and datum.n % q]
    on_level = [(p, epsilon(datum, p)) for p in prime_divisors(datum.n)]
    bad = {}
    for q, eigenvalue in off_level + on_level:
        pairs = enumerate(zip(hecke_on_qexp(f, q).coeffs, f.coeffs))
        first = next((k for k, (b, a) in pairs if b != a * eigenvalue), None)
        if first is not None:
            bad[q] = first
    return bad


class ResidueTable(Record):
    """Residue of a series at the cusps of X0(n), one (level, numerator) pair
    per level, each residue the numerator over den = rad(n)."""

    __slots__ = ("n", "den", "res")


def residue_table(datum: EisensteinDatum) -> ResidueTable:
    """Residues of the datum's series at every cusp level: its divisor times
    m s / rad(n), s the product of the local scales, as the local residue
    factor is the local divisor times the scale at the primes of m (eps = 1)
    and the scale over q elsewhere.  `residues` and `sweep` check its sum."""
    table, scale = over_primes(datum, 0)
    num, rad, divs = datum.m * scale, parts(datum.n)[2], divisors_of(datum.n)
    return ResidueTable(datum.n, rad, tuple((d, num * table[d]) for d in divs))


def residue_closed(datum: EisensteinDatum) -> tuple[int, int]:
    """Closed residues at the cusp at infinity (level n) and at level m*L,
    as numerators over rad(n), the den of `residue_table`.

    At infinity the residue vanishes unless m is the full radical, where it
    is the product of (1 - p) over the primes of n.
    """
    n, m = datum.n, datum.m
    sf, _, rad = parts(n)
    at_inf = rad * math.prod(1 - p for p in prime_divisors(n)) if m == rad else 0
    num = 1
    for p, r in factor(n):
        num *= (p - 1 if m % p == 0 else p * p - 1) * p ** max(r - 2, 0)
    den = math.prod(prime_divisors((sf // math.gcd(m, sf)) * datum.l_part))
    return at_inf, (-1) ** omega(m * datum.l_part) * num * (rad // den)
