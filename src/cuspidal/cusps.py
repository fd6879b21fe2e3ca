"""Cusps of X0(N) and the two degeneracy coverings X0(Np) -> X0(N).

A cusp is a pair (x : d) with d | N and gcd(x, d) = 1, where x is read
modulo y = gcd(d, N/d).  The canonical representative is the smallest
positive integer in its class coprime to d.  A reduced fraction a/c is the
cusp (a*c/d : d) with d = gcd(c, N), so both coverings act on the pair in
closed form: z -> z by the level gcd(d, N), z -> p*z through the fraction p*x/d.

Cuspidal divisors are the Galois-stable level-indexed sums a_d * (P_d)
(RationalCuspDivisor), where (P_d) collects every cusp of level d.  On them
the coverings move each level along its p-chain in closed form, by the
valuations at p of the level and of N alone, and no cusp is ever listed.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .arith import Record, divisors_of, euler_phi, factor, is_prime, valuation

__all__ = [
    "ConsistencyError",
    "Cusp",
    "RationalCuspDivisor",
    "make_cusp",
    "enumerate_cusps",
    "cusp_count",
    "normalize_fraction",
    "alpha_image",
    "beta_image",
    "alpha_ram",
    "beta_ram",
    "covering_degree",
    "alpha_pullback",
    "beta_pushforward",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; downstream results cannot be trusted."""


class Cusp(Record):
    """The cusp (x : d) of X0(n), with x canonical in its class mod gcd(d, n/d)."""

    __slots__ = ("n", "d", "x")

    def __init__(self, n: int, d: int, x: int) -> None:  # spelled out: the most-built record
        set_n, set_d, set_x = self._setters
        set_n(self, n)
        set_d(self, d)
        set_x(self, x)

    def __repr__(self) -> str:
        return f"Cusp({self.x}:{self.d} @ {self.n})"


def make_cusp(n: int, d: int, x: int) -> Cusp:
    """Canonical cusp (x : d) of X0(n); x may be any member of its residue class."""
    if n < 1 or d < 1 or n % d:
        raise ValueError(f"cusp level {d} does not divide {n}")
    y = math.gcd(d, n // d)
    if y == 1:
        return Cusp(n, d, 1)
    t = x % y or y
    if math.gcd(t, y) != 1:
        raise ValueError(f"class {x} mod {y} has no representative coprime to {d}")
    while math.gcd(t, d) != 1:
        t += y
    return Cusp(n, d, t)


def enumerate_cusps(n: int) -> tuple[Cusp, ...]:
    """All cusps of X0(n): phi(gcd(d, n/d)) of level d for each d | n."""
    out = []
    for d in divisors_of(n):
        y = math.gcd(d, n // d)
        for a in range(1, y + 1):
            if math.gcd(a, y) == 1:
                out.append(make_cusp(n, d, a))
    return tuple(out)


def cusp_count(n: int) -> int:
    """Number of cusps of X0(n), the sum of phi(gcd(d, n/d)) over d | n, prime by prime."""
    local = (sum(euler_phi(p ** min(i, e - i)) for i in range(e + 1)) for p, e in factor(n))
    return math.prod(local)


def normalize_fraction(a: int, c: int, n: int) -> Cusp:
    """Canonical cusp of X0(n) equivalent to the fraction a/c, gcd(a, c) = 1.

    The cusp has level d = gcd(c, n) and class a*(c/d) modulo gcd(d, n/d):
    two fractions a1/c1, a2/c2 name the same cusp iff s1*c2 = s2*c1 modulo
    gcd(c1*c2, n), where si inverts ai modulo ci, and (a*c/d)/d satisfies
    that against a/c.  The class is always a unit: a prime q dividing both
    c/d and gcd(d, n/d) would make d*q a common divisor of c and n.
    """
    if c < 1:
        raise ValueError("denominator must be positive")
    if math.gcd(a, c) != 1:
        raise ValueError(f"{a}/{c} is not in lowest terms")
    d = math.gcd(c, n)
    return make_cusp(n, d, a * (c // d))


class RationalCuspDivisor(Record):
    """Integer combination sum_d a_d * (P_d) of the Galois-stable level sums,
    as (level, coefficient) pairs."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[tuple[int, int], ...]) -> None:  # as in Cusp
        set_n, set_coeffs = self._setters
        set_n(self, n)
        set_coeffs(self, coeffs)

    @staticmethod
    def from_dict(n: int, mapping: dict[int, int]) -> "RationalCuspDivisor":
        if n < 1:
            raise ValueError(f"level {n} must be positive")
        for d in mapping:
            if d < 1 or n % d:
                raise ValueError(f"level {d} does not divide {n}")
        return _on_levels(n, mapping)

    def degree(self) -> int:
        return sum(v * euler_phi(math.gcd(d, self.n // d)) for d, v in self.coeffs)

    def as_vector(self) -> tuple[int, ...]:
        """Coefficients over the ascending divisors of n."""
        coeffs = dict(self.coeffs)
        return tuple([coeffs.get(d, 0) for d in divisors_of(self.n)])

    def _merge(self, other: "RationalCuspDivisor", sign: int) -> "RationalCuspDivisor":
        if self.n != other.n:
            raise ValueError("divisors live on different curves")
        out = dict(self.coeffs)
        for d, v in other.coeffs:
            out[d] = out.get(d, 0) + sign * v
        return _on_levels(self.n, out)

    def __add__(self, other: "RationalCuspDivisor") -> "RationalCuspDivisor":
        return self._merge(other, 1)

    def __sub__(self, other: "RationalCuspDivisor") -> "RationalCuspDivisor":
        return self._merge(other, -1)

    def __rmul__(self, k: int) -> "RationalCuspDivisor":
        return RationalCuspDivisor(self.n, tuple((d, k * v) for d, v in self.coeffs if k * v))

    def __neg__(self) -> "RationalCuspDivisor":
        return (-1) * self


def _on_levels(n: int, mapping: dict[int, int]) -> RationalCuspDivisor:
    """The divisor of a mapping whose levels all divide n, zeros dropped."""
    return RationalCuspDivisor(n, tuple(sorted(filter(itemgetter(1), mapping.items()))))


# ---------------------------------------------------------------------------
# Degeneracy maps on cusps


def _require_covering(c: Cusp, p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if c.n % p:
        raise ValueError(f"cusp of X0({c.n}) cannot descend along p={p}")
    return c.n // p


def alpha_image(c: Cusp, p: int) -> Cusp:
    """Image of a cusp (x : d) of X0(Np) on X0(N) under z -> z: (x : gcd(d, N))."""
    n = _require_covering(c, p)
    return make_cusp(n, math.gcd(c.d, n), c.x)


def beta_image(c: Cusp, p: int) -> Cusp:
    """Image under z -> p*z: the fraction p*x/d in lowest terms, normalized."""
    n = _require_covering(c, p)
    if c.d % p:
        return normalize_fraction(p * c.x, c.d, n)
    return normalize_fraction(c.x, c.d // p, n)


def alpha_ram(c: Cusp, p: int) -> int:
    """Ramification index of z -> z at a cusp of level p^i d: p iff p^(2i) | N."""
    n = _require_covering(c, p)
    return p if n % p ** (2 * valuation(c.d, p)) == 0 else 1


def beta_ram(c: Cusp, p: int) -> int:
    """Ramification of z -> p*z at level p^i d: p iff i >= 1 and p^(2i-1) does not divide N."""
    n = _require_covering(c, p)
    i = valuation(c.d, p)
    return p if i and n % p ** (2 * i - 1) else 1


def covering_degree(n: int, p: int) -> int:
    """Degree of either covering X0(np) -> X0(n): p + 1 off the level, p on it."""
    return p + 1 if n % p else p


# ---------------------------------------------------------------------------
# The same maps on the (P_d) basis.  Image level and ramification depend only
# on the p-part p^i of a level, so both maps act along the chain p^0, ...,
# p^(r+1) of X0(Np) over p^0, ..., p^r of X0(N), r = val_p(N), and leave the
# prime-to-p part d0 alone.  The image z -> p*z maps the cusps of level p^i d0
# (i >= 1) onto those of level p^(i-1) d0, each hit equally often by Galois
# equivariance, so the beta multiplicity m is the ratio of the two cusp
# counts, phi(p^min(i, r+1-i)) / phi(p^min(i-1, r+1-i)): 1 once 2i > r + 1,
# else p - 1 at i = 1 and p above it.


def alpha_pullback(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """Pullback through z -> z with ramification multiplicities, on (P_d) sums:
    (P_(p^j d0)) lifts to level p^j d0 with multiplicity p if 2j <= r, else 1,
    and to p^(r+1) d0 with multiplicity 1 as well when j = r."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = valuation(div.n, p)
    out = {}
    for d, v in div.coeffs:
        j = valuation(d, p) if d % p == 0 else 0
        out[d] = (p if 2 * j <= r else 1) * v
        if j == r:
            out[d * p] = v
    return _on_levels(div.n * p, out)


def beta_pushforward(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """Pushforward along z -> p*z on (P_d) sums, X0(Np) down to X0(N):
    (P_e) with i = val_p(e) >= 1 goes to m * (P_(e/p)), and a level prime to
    p goes to itself."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if div.n % p:
        raise ValueError(f"divisor of X0({div.n}) cannot descend along p={p}")
    n = div.n // p
    r = valuation(n, p)
    out: dict[int, int] = {}
    for e, v in div.coeffs:
        if e % p == 0:
            i = valuation(e, p)
            e //= p
            v *= 1 if 2 * i > r + 1 else (p - 1 if i == 1 else p)
        out[e] = out.get(e, 0) + v
    return _on_levels(n, out)
