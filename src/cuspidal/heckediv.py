"""Eisenstein data, their cuspidal divisors, and the Hecke action on them.

A datum (N, M, D) fixes the eigenvalue of the level-p Hecke operator at
every prime p | N: 1 on the primes of M, p on the primes of sf(N)*D / M,
and 0 on the primes of the square support outside D.  Each datum carries a
degree-0 rational cuspidal divisor that these operators annihilate.  One
table, `_local(q, r, eps)`, holds its local divisor at q^r || N, the entries
of the local Lambda(q^r)^{-1} image and their scale.  Its one reader is
`local_tables`: `over_primes` tensors the rows into the divisor, its
Lambda(N)^{-1} image and the residues, and `classlattice` sums them into
class orders.
"""

from __future__ import annotations

from operator import itemgetter

from .arith import Record, factor, is_prime, parts, valuation
from .cusps import RationalCuspDivisor, alpha_pullback, beta_pushforward

__all__ = [
    "EisensteinDatum",
    "epsilon",
    "local_tables",
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

    def __init__(self, n: int, m: int, d_part: int = 1) -> None:  # spelled out, as in Cusp
        if n < 1:
            raise ValueError("level must be positive")
        sf, sq, _ = parts(n)
        if d_part < 1 or sq % d_part:
            raise ValueError(f"D={d_part} must divide the square support {sq} of {n}")
        if m < 1 or (sf * d_part) % m:
            raise ValueError(f"M={m} must divide {sf * d_part}")
        if m * (sq // d_part) == 1:
            raise ValueError("degenerate datum: M = 1 and D is the whole square support")
        set_n, set_m, set_d_part = self._setters
        set_n(self, n)
        set_m(self, m)
        set_d_part(self, d_part)

    @property
    def l_part(self) -> int:
        """Product of the square-support primes outside d_part (eigenvalue 0)."""
        return parts(self.n)[1] // self.d_part


def epsilon(datum: EisensteinDatum, p: int) -> int:
    """Eigenvalue in {1, p, 0} of the level-p operator attached to the datum.

    The one per-prime classification of the package: every local factor at
    p^r || n is a function of this value and r, and `classifier` reads its
    normal forms and flags from it.  The oracles `eisq.residue_closed` and
    `classlattice.closed_form_order` (its None line and h) read (m, d_part).
    """
    if datum.n % p:
        raise ValueError(f"{p} does not divide {datum.n}")
    if datum.m % p == 0:
        return 1
    if datum.n % (p * p) or datum.d_part % p == 0:  # p divides sf(n) * D / m
        return p
    return 0


def local_tables(datum: EisensteinDatum) -> list[tuple[int, int, list[int], list[int], int]]:
    """The datum's local table at each q^r || n as (q, r, c, e, s): the row
    `_local(q, r, epsilon(datum, q))`, the only call of the table."""
    return [(q, r, *_local(q, r, epsilon(datum, q))) for q, r in factor(datum.n)]


def over_primes(datum: EisensteinDatum, column: int) -> tuple[dict[int, int], int]:
    """Column 0 (the divisor c) or 1 (the eta entries e) of `local_tables`,
    tensored over q^r || n as {d: prod_q local[val_q(d)]}, with the product
    of the local scales s."""
    out, scale = {1: 1}, 1
    for q, _, c, e, s in local_tables(datum):
        vec = [(q**a, v) for a, v in enumerate(e if column else c)]
        out = {d * t: x * v for d, x in out.items() for t, v in vec}
        scale *= s
    return out, scale


def _local(q: int, r: int, eps: int) -> tuple[list[int], list[int], int]:
    """The datum's local table at q^r || n by the eigenvalue eps of the
    level-q operator: divisor c and eta-exponent entries e over q^0, ..., q^r
    and scale s, with Lambda(q^r)^{-1} c = 24 e / s.  c is (P_1) where eps = q,
    (q - 1)(P_1) - (P_q) where eps = 0, and where eps = 1 the pullback of
    (P_1) - (P_q) along z -> z from X0(q): q^(r-1)(P_1) minus
    q^max(r - 2a, 0)(P_q^a) for a >= 1."""
    zeros = [0] * (r - 1)
    if eps == 1:
        c = [q ** (r - 1)] + [-(q ** max(r - 2 * a, 0)) for a in range(1, r + 1)]
        return c, [1, -1] + zeros, q - 1
    if eps == q:
        return [1, 0] + zeros, [q, -1] + zeros, q ** (r - 1) * (q * q - 1)
    return [q - 1, -1] + zeros, [q, -(q + 1), 1] + zeros[1:], q ** (r - 2) * (q * q - 1)


def build_c_divisor(datum: EisensteinDatum) -> RationalCuspDivisor:
    """The datum's divisor, the tensor product of the local divisors at each
    q^r || n chosen by epsilon(datum, q); its readers check its degree 0."""
    table, _ = over_primes(datum, 0)
    return RationalCuspDivisor(datum.n, tuple(sorted(filter(itemgetter(1), table.items()))))


def hecke_delta(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """The level-p Hecke correspondence on divisors: pull back along z -> z
    with ramification multiplicities, then push forward along z -> p*z, which
    sends each (P_e) to m * (P_f).  Both steps move the divisor's levels along
    their p-chains in closed form and list no cusp; alpha_pullback raises
    ValueError if p is not prime."""
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
    if i == 0:
        return RationalCuspDivisor(n, ((d, p + 1 if r == 0 else p),))
    if i == 1:
        d0 = d // p
        return RationalCuspDivisor(n, ((d0, p - 1), (d, 1)) if r == 1 else ((d0, p * (p - 1)),))
    return None
