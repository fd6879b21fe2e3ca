"""Cusps of X0(N) and the two degeneracy coverings X0(Np) -> X0(N).

A cusp is a pair (x : d) with d | N and gcd(x, d) = 1, where x is read
modulo y = gcd(d, N/d).  The canonical representative is the smallest
positive integer in its class coprime to d.  A reduced fraction a/c is the
cusp (a*c/d : d) with d = gcd(c, N), so both coverings act on the pair in
closed form: z -> z directly, z -> p*z through the fraction p*x/(p^i d).

Cuspidal divisors come in two flavours: honest formal sums of cusps
(CuspDivisor) and the Galois-stable level-indexed sums a_d * (P_d)
(RationalCuspDivisor), where (P_d) collects every cusp of level d.  On the
latter the coverings act level by level and no cusp is ever listed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import Record, divisors_of, euler_phi, is_prime, valuation

__all__ = [
    "ConsistencyError",
    "Cusp",
    "CuspDivisor",
    "RationalCuspDivisor",
    "make_cusp",
    "enumerate_cusps",
    "cusp_count",
    "normalize_fraction",
    "p_divisor",
    "alpha_image",
    "beta_image",
    "alpha_ram",
    "beta_ram",
    "covering_degree",
    "pullback",
    "pushforward",
    "alpha_pullback",
    "beta_pullback",
    "beta_pushforward",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; downstream results cannot be trusted."""


class Cusp(Record):
    """The cusp (x : d) of X0(n), with x canonical in its class mod gcd(d, n/d)."""

    __slots__ = ("n", "d", "x")

    def __init__(self, n: int, d: int, x: int) -> None:  # spelled out: the most-built record
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)

    def __repr__(self) -> str:
        return f"Cusp({self.x}:{self.d} @ {self.n})"


def make_cusp(n: int, d: int, x: int) -> Cusp:
    """Canonical cusp (x : d) of X0(n); x may be any member of its residue class."""
    if n < 1 or d < 1 or n % d:
        raise ValueError(f"cusp level {d} does not divide {n}")
    y = math.gcd(d, n // d)
    t = x % y
    if t == 0:
        t = y
    if math.gcd(t, y) != 1:
        raise ValueError(f"class {x} mod {y} has no representative coprime to {d}")
    while math.gcd(t, d) != 1:
        t += y
    return Cusp(n, d, t)


@lru_cache(maxsize=None)
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
    return sum(euler_phi(math.gcd(d, n // d)) for d in divisors_of(n))


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


class CuspDivisor(Record):
    """Formal integer combination of cusps of one X0(n): (cusp, coefficient) pairs."""

    __slots__ = ("n", "coeffs")

    @staticmethod
    def from_dict(n: int, mapping: dict[Cusp, int]) -> "CuspDivisor":
        items = []
        for c, v in mapping.items():
            if c.n != n:
                raise ValueError(f"cusp of X0({c.n}) in a divisor of X0({n})")
            if v:
                items.append((c, v))
        items.sort(key=lambda t: (t[0].d, t[0].x))
        return CuspDivisor(n, tuple(items))

    def degree(self) -> int:
        return sum(v for _, v in self.coeffs)

    def _merge(self, other: "CuspDivisor", sign: int) -> "CuspDivisor":
        if self.n != other.n:
            raise ValueError("divisors live on different curves")
        out = {c: v for c, v in self.coeffs}
        for c, v in other.coeffs:
            out[c] = out.get(c, 0) + sign * v
        return CuspDivisor.from_dict(self.n, out)

    def __add__(self, other: "CuspDivisor") -> "CuspDivisor":
        return self._merge(other, 1)

    def __sub__(self, other: "CuspDivisor") -> "CuspDivisor":
        return self._merge(other, -1)

    def __rmul__(self, k: int) -> "CuspDivisor":
        return CuspDivisor.from_dict(self.n, {c: k * v for c, v in self.coeffs})

    def __neg__(self) -> "CuspDivisor":
        return (-1) * self

    def aggregate(self) -> "RationalCuspDivisor":
        """Rewrite in the (P_d) basis; fails loudly if some level is not uniform."""
        values: dict[int, int] = {}
        per_level: dict[int, dict[Cusp, int]] = {}
        for c, v in self.coeffs:
            per_level.setdefault(c.d, {})[c] = v
        for d, bucket in per_level.items():
            level_cusps = [c for c in enumerate_cusps(self.n) if c.d == d]
            seen = {bucket.get(c, 0) for c in level_cusps}
            if len(seen) != 1:
                raise ConsistencyError(
                    f"divisor is not Galois-rational: level {d} of X0({self.n}) "
                    f"carries coefficients {sorted(seen)}"
                )
            values[d] = seen.pop()
        return RationalCuspDivisor.from_dict(self.n, values)


class RationalCuspDivisor(Record):
    """Integer combination sum_d a_d * (P_d) of the Galois-stable level sums,
    as (level, coefficient) pairs."""

    __slots__ = ("n", "coeffs")

    @staticmethod
    def from_dict(n: int, mapping: dict[int, int]) -> "RationalCuspDivisor":
        items = []
        for d, v in mapping.items():
            if d < 1 or n % d:
                raise ValueError(f"level {d} does not divide {n}")
            if v:
                items.append((d, v))
        return RationalCuspDivisor(n, tuple(sorted(items)))

    def degree(self) -> int:
        return sum(v * euler_phi(math.gcd(d, self.n // d)) for d, v in self.coeffs)

    def as_vector(self) -> tuple[int, ...]:
        """Coefficients over the ascending divisors of n."""
        coeffs = dict(self.coeffs)
        return tuple(coeffs.get(d, 0) for d in divisors_of(self.n))

    def expand(self) -> CuspDivisor:
        """The underlying cusp divisor: every cusp of level d gets a_d."""
        coeffs = dict(self.coeffs)
        out = {c: coeffs[c.d] for c in enumerate_cusps(self.n) if c.d in coeffs}
        return CuspDivisor.from_dict(self.n, out)

    def _merge(self, other: "RationalCuspDivisor", sign: int) -> "RationalCuspDivisor":
        if self.n != other.n:
            raise ValueError("divisors live on different curves")
        out = dict(self.coeffs)
        for d, v in other.coeffs:
            out[d] = out.get(d, 0) + sign * v
        return RationalCuspDivisor.from_dict(self.n, out)

    def __add__(self, other: "RationalCuspDivisor") -> "RationalCuspDivisor":
        return self._merge(other, 1)

    def __sub__(self, other: "RationalCuspDivisor") -> "RationalCuspDivisor":
        return self._merge(other, -1)

    def __rmul__(self, k: int) -> "RationalCuspDivisor":
        return RationalCuspDivisor.from_dict(self.n, {d: k * v for d, v in self.coeffs})

    def __neg__(self) -> "RationalCuspDivisor":
        return (-1) * self


def p_divisor(d: int, n: int) -> RationalCuspDivisor:
    """The divisor (P_d): the sum of all cusps of level d, of degree phi(gcd(d, n/d))."""
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    return RationalCuspDivisor.from_dict(n, {d: 1})


# ---------------------------------------------------------------------------
# Degeneracy maps on cusps


def _require_covering(c: Cusp, p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if c.n % p:
        raise ValueError(f"cusp of X0({c.n}) cannot descend along p={p}")
    return c.n // p


def alpha_image(c: Cusp, p: int) -> Cusp:
    """Image of a cusp of X0(Np) on X0(N) under the covering z -> z."""
    n = _require_covering(c, p)
    r = valuation(n, p)
    i = valuation(c.d, p)
    d0 = c.d // p**i
    return make_cusp(n, p ** min(i, r) * d0, c.x)


def beta_image(c: Cusp, p: int) -> Cusp:
    """Image under z -> p*z: the fraction p*x/(p^i d) reduced, then normalized."""
    n = _require_covering(c, p)
    i = valuation(c.d, p)
    d0 = c.d // p**i
    if i >= 1:
        return normalize_fraction(c.x, p ** (i - 1) * d0, n)
    return normalize_fraction(p * c.x, d0, n)


def alpha_ram(c: Cusp, p: int) -> int:
    """Ramification index of z -> z at a cusp of level p^i d: p iff 2i <= val_p(N)."""
    n = _require_covering(c, p)
    return p if 2 * valuation(c.d, p) <= valuation(n, p) else 1


def beta_ram(c: Cusp, p: int) -> int:
    """Ramification index of z -> p*z: p iff 2i >= val_p(N) + 2."""
    n = _require_covering(c, p)
    return p if 2 * valuation(c.d, p) >= valuation(n, p) + 2 else 1


def covering_degree(n: int, p: int) -> int:
    """Degree of either covering X0(np) -> X0(n): p + 1 off the level, p on it."""
    return p + 1 if n % p else p


_MAPS = {"alpha": (alpha_image, alpha_ram), "beta": (beta_image, beta_ram)}


def pullback(kind: str, c: Cusp, p: int) -> CuspDivisor:
    """Fiber of a cusp under the chosen covering, weighted by ramification."""
    image, ram = _MAPS[kind]
    entries = {}
    for cc in enumerate_cusps(c.n * p):
        if image(cc, p) == c:
            entries[cc] = ram(cc, p)
    return CuspDivisor.from_dict(c.n * p, entries)


def pushforward(kind: str, div: CuspDivisor, p: int) -> CuspDivisor:
    """Apply the image map coefficient-wise, X0(Np) down to X0(N)."""
    image, _ = _MAPS[kind]
    if div.n % p:
        raise ValueError(f"divisor of X0({div.n}) cannot descend along p={p}")
    out: dict[Cusp, int] = {}
    for c, v in div.coeffs:
        img = image(c, p)
        out[img] = out.get(img, 0) + v
    return CuspDivisor.from_dict(div.n // p, out)


# ---------------------------------------------------------------------------
# The same maps on the (P_d) basis.  Image level and ramification depend only
# on the level of a cusp, so pullbacks are purely combinatorial.  The image
# z -> p*z maps the cusps of level e onto those of its beta level f, each hit
# equally often by Galois equivariance, so beta_*(P_e) = m * (P_f) with m the
# ratio of the two cusp counts; an inexact ratio fails loudly.


@lru_cache(maxsize=None)
def _level_tables(n: int, p: int) -> dict[int, tuple[int, int, int, int, int]]:
    """Per level e | n*p: (alpha level, alpha ram, beta level, beta ram,
    beta pushforward multiplicity m with beta_*(P_e) = m * (P_f))."""
    r = valuation(n, p)
    top = n * p
    out = {}
    for e in divisors_of(top):
        i = valuation(e, p)
        d0 = e // p**i
        al = p ** min(i, r) * d0
        bl = p ** (i - 1) * d0 if i >= 1 else d0
        m, rem = divmod(euler_phi(math.gcd(e, top // e)), euler_phi(math.gcd(bl, n // bl)))
        if rem:
            raise ConsistencyError(
                f"pushforward of (P_{e}) from X0({top}) is not a multiple of (P_{bl})"
            )
        out[e] = (al, p if 2 * i <= r else 1, bl, p if 2 * i >= r + 2 else 1, m)
    return out


def alpha_pullback(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """Pullback through z -> z with ramification multiplicities, on (P_d) sums."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    coeffs = dict(div.coeffs)
    out = {}
    for e, (al, ar, _, _, _) in _level_tables(div.n, p).items():
        v = ar * coeffs.get(al, 0)
        if v:
            out[e] = v
    return RationalCuspDivisor.from_dict(div.n * p, out)


def beta_pullback(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """Pullback through z -> p*z on (P_d) sums."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    coeffs = dict(div.coeffs)
    out = {}
    for e, (_, _, bl, br, _) in _level_tables(div.n, p).items():
        v = br * coeffs.get(bl, 0)
        if v:
            out[e] = v
    return RationalCuspDivisor.from_dict(div.n * p, out)


def beta_pushforward(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """Pushforward along z -> p*z on (P_d) sums, X0(Np) down to X0(N)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if div.n % p:
        raise ValueError(f"divisor of X0({div.n}) cannot descend along p={p}")
    n = div.n // p
    tab = _level_tables(n, p)
    out: dict[int, int] = {}
    for e, v in div.coeffs:
        _, _, f, _, m = tab[e]
        out[f] = out.get(f, 0) + m * v
    return RationalCuspDivisor.from_dict(n, out)
