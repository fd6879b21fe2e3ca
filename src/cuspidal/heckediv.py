"""Eisenstein data, their cuspidal divisors, and the Hecke action on them.

A datum (N, M, D) fixes the eigenvalue of the level-p Hecke operator at
every prime p | N: 1 on the primes of M, p on the primes of sf(N)*D / M,
and 0 on the primes of the square support outside D.  Each datum carries a
degree-0 rational cuspidal divisor whose class these operators annihilate.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import Record, divisors_of, euler_phi, is_prime, omega, parts, prime_divisors, valuation
from .cusps import (
    ConsistencyError,
    RationalCuspDivisor,
    alpha_pullback,
    beta_pullback,
    beta_pushforward,
)

__all__ = [
    "NotCovered",
    "EisensteinDatum",
    "epsilon",
    "build_c_divisor",
    "hecke_delta",
    "hecke_delta_closed",
    "deg_map",
]


class NotCovered(Exception):
    """The requested closed form does not cover this configuration."""


class EisensteinDatum(Record):
    """A level n with divisors (m, d_part) pinning the bad-prime eigenvalues.

    d_part divides the square support of n, m divides sf(n) * d_part, and the
    degenerate configuration m * (square/d_part) = 1 is rejected.
    """

    __slots__ = ("n", "m", "d_part")

    def __init__(self, n: int, m: int, d_part: int = 1) -> None:
        super().__init__(n, m, d_part)
        if self.n < 1:
            raise ValueError("level must be positive")
        sf, sq, _ = parts(self.n)
        if self.d_part < 1 or sq % self.d_part:
            raise ValueError(f"D={self.d_part} must divide the square support {sq} of {self.n}")
        if self.m < 1 or (sf * self.d_part) % self.m:
            raise ValueError(f"M={self.m} must divide {sf * self.d_part}")
        if self.m * (sq // self.d_part) == 1:
            raise ValueError("degenerate datum: M = 1 and D is the whole square support")

    @property
    def l_part(self) -> int:
        """Product of the square-support primes outside d_part (eigenvalue 0)."""
        return parts(self.n)[1] // self.d_part


def epsilon(datum: EisensteinDatum, p: int) -> int:
    """Eigenvalue in {1, p, 0} of the level-p operator attached to the datum.

    This is the one per-prime classification of the package: the series, its
    residues, the exponent vector and its scale take their local factor at
    p^r || n from this value and r alone.
    """
    if datum.n % p:
        raise ValueError(f"{p} does not divide {datum.n}")
    sf, sq, _ = parts(datum.n)
    if datum.m % p == 0:
        return 1
    if (sf * datum.d_part // datum.m) % p == 0:
        return p
    assert (sq // datum.d_part) % p == 0
    return 0


@lru_cache(maxsize=None)
def build_c_divisor(datum: EisensteinDatum) -> RationalCuspDivisor:
    """The degree-0 divisor attached to a datum.

    For m coprime to the square support it is the explicit combination
    sum over e | m*L of (-1)^omega(e) * phi(L/(e, L)) * (P_e); when a prime
    p divides both m and the square support, the divisor is pulled back from
    level n/p^(r-1) through a chain of z -> z coverings.
    """
    n, m, dp = datum.n, datum.m, datum.d_part
    _, sq, _ = parts(n)
    a = math.gcd(m, sq)
    if a == 1:
        big_l = sq // dp
        coeffs = {
            e: (-1) ** omega(e) * euler_phi(big_l // math.gcd(e, big_l))
            for e in divisors_of(m * big_l)
        }
        div = RationalCuspDivisor.from_dict(n, coeffs)
    else:
        p = prime_divisors(a)[0]
        r = valuation(n, p)
        child = EisensteinDatum(n // p ** (r - 1), m, dp // p)
        div = build_c_divisor(child)
        for _ in range(r - 1):
            div = alpha_pullback(div, p)
    if div.degree() != 0:
        raise ConsistencyError(f"divisor built for {datum} has degree {div.degree()}")
    return div


def hecke_delta(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """The level-p Hecke correspondence on divisors: pull back along z -> z
    with ramification multiplicities, then push forward along z -> p*z, which
    sends each (P_e) to m * (P_f).  Both steps work on levels and list no
    cusp; the pushforward table raises ConsistencyError if the cusp count of
    level e is not a multiple of that of f."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return beta_pushforward(alpha_pullback(div, p), p)


def hecke_delta_closed(d: int, p: int, n: int) -> RationalCuspDivisor:
    """Case-table value of the correspondence on (P_d), for levels d with
    val_p(d) <= 1.  Serves as an independent oracle against hecke_delta."""
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = valuation(n, p)
    i = valuation(d, p)
    d0 = d // p**i
    if i == 0:
        if r == 0:
            return RationalCuspDivisor.from_dict(n, {d: p + 1})
        return RationalCuspDivisor.from_dict(n, {d: p})
    if i == 1:
        if r == 1:
            return RationalCuspDivisor.from_dict(n, {d0: p - 1, d: 1})
        return RationalCuspDivisor.from_dict(n, {d0: p * (p - 1)})
    raise NotCovered(f"level {d} with val_{p} = {i}: use hecke_delta")


def deg_map(kind: str, div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """The three pullback combinations raising level from N to Np on divisors:
    plus = alpha* - beta*, minus = p*alpha* - beta*, plain = alpha*."""
    a = alpha_pullback(div, p)
    if kind == "plain":
        return a
    b = beta_pullback(div, p)
    if kind == "plus":
        return a - b
    if kind == "minus":
        return p * a - b
    raise ValueError(f"unknown map kind {kind!r}")
