"""Eisenstein data, their cuspidal divisors, and the Hecke action on them.

A datum (N, M, D) fixes the eigenvalue of the level-p Hecke operator at
every prime p | N: 1 on the primes of M, p on the primes of sf(N)*D / M,
and 0 on the primes of the square support outside D.  Each datum carries a
degree-0 rational cuspidal divisor whose class these operators annihilate:
one closed local vector per prime power, tensored by `over_primes`, which
also builds its Lambda(N)^{-1} image and the residues.
"""

from __future__ import annotations

from .arith import Record, factor, is_prime, parts, valuation
from .cusps import ConsistencyError, RationalCuspDivisor, alpha_pullback, beta_pushforward

__all__ = [
    "EisensteinDatum",
    "epsilon",
    "over_primes",
    "build_c_divisor",
    "hecke_delta",
    "hecke_delta_closed",
]


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
    if datum.m % p == 0:
        return 1
    if datum.n % (p * p) or datum.d_part % p == 0:  # p divides sf(n) * D / m
        return p
    return 0


def over_primes(datum: EisensteinDatum, local) -> dict:
    """The tensor product over q^r || n of the local vectors local(q, r, eps)
    over q^0, ..., q^r, eps = epsilon(datum, q): {d: prod_q local[val_q(d)]}."""
    out = {1: 1}
    for q, r in factor(datum.n):
        vec = local(q, r, epsilon(datum, q))
        out = {d * q**a: x * v for d, x in out.items() for a, v in enumerate(vec)}
    return out


def _local_divisor(q: int, r: int, eps: int) -> list[int]:
    """The datum's divisor at q^r || n over the levels q^0, ..., q^r: (P_1)
    where eps = q, (q - 1)(P_1) - (P_q) where eps = 0, and where eps = 1 the
    pullback of (P_1) - (P_q) along z -> z from X0(q), q^(r-1)(P_1) minus
    q^max(r - 2a, 0)(P_q^a) for a >= 1."""
    if eps == q:
        return [1] + [0] * r
    if eps == 0:
        return [q - 1, -1] + [0] * (r - 1)
    return [q ** (r - 1)] + [-(q ** max(r - 2 * a, 0)) for a in range(1, r + 1)]


def build_c_divisor(datum: EisensteinDatum) -> RationalCuspDivisor:
    """The degree-0 divisor attached to a datum: the tensor product of the
    local divisors at each q^r || n, chosen by epsilon(datum, q)."""
    div = RationalCuspDivisor.from_dict(datum.n, over_primes(datum, _local_divisor))
    if div.degree() != 0:
        raise ConsistencyError(f"divisor built for {datum} has degree {div.degree()}")
    return div


def hecke_delta(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """The level-p Hecke correspondence on divisors: pull back along z -> z
    with ramification multiplicities, then push forward along z -> p*z, which
    sends each (P_e) to m * (P_f).  Both steps walk the divisor's levels along
    their p-chains and list no cusp; the chain table raises ConsistencyError
    if the cusp count of level e is not a multiple of that of f, and
    alpha_pullback raises ValueError if p is not prime."""
    return beta_pushforward(alpha_pullback(div, p), p)


def hecke_delta_closed(d: int, p: int, n: int) -> RationalCuspDivisor | None:
    """Case-table value of the correspondence on (P_d) for levels d with
    val_p(d) <= 1, and None for the levels the table does not cover.  An
    independent oracle against hecke_delta, which `sweep` runs."""
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
    return None
