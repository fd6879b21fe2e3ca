"""Enumeration of eigenvalue data at a level and the rational Eisenstein primes.

A prime ell is attached to a datum exactly when it divides the order of the
datum's divisor class (the Eisenstein index).  Data are normalized per ell
by absorbing into m every quotient prime congruent to 1 mod ell, so distinct
emitted pairs (ell, datum) name distinct ideals.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import Record, divisors_of, is_prime, parts, prime_divisors
from .classlattice import class_order, closed_form_order
from .cusps import ConsistencyError
from .heckediv import EisensteinDatum, NotCovered, build_c_divisor

__all__ = [
    "EisensteinPrime",
    "enumerate_data",
    "normalize_datum",
    "index_n",
    "rational_eisenstein_primes",
]


class EisensteinPrime(Record):
    """A classified maximal-ideal descriptor (ell, datum) with hypothesis flags."""

    __slots__ = ("ell", "datum", "index_n", "hypothesis_ok", "new_candidate")


def enumerate_data(n: int) -> tuple[EisensteinDatum, ...]:
    """All valid data (m, d_part) at level n, ascending by (d_part, m)."""
    sf, sq, _ = parts(n)
    out = []
    for d in divisors_of(sq):
        for m in divisors_of(sf * d):
            if m * (sq // d) == 1:
                continue
            out.append(EisensteinDatum(n, m, d))
    return tuple(out)


def normalize_datum(datum: EisensteinDatum, ell: int) -> EisensteinDatum:
    """Absorb into m every prime q of (sf*D)/m with q = 1 mod ell; the ideal
    named by the datum is unchanged.  Idempotent, and only ever enlarges m."""
    sf, _, _ = parts(datum.n)
    m = datum.m
    quotient = sf * datum.d_part // m
    for q in prime_divisors(quotient):
        if q % ell == 1:
            m *= q
    return EisensteinDatum(datum.n, m, datum.d_part)


@lru_cache(maxsize=None)
def index_n(datum: EisensteinDatum) -> int:
    """Order of the datum's divisor class; the closed form, when covered,
    must agree with the engine."""
    order = class_order(datum.n, build_c_divisor(datum))
    try:
        closed = closed_form_order(datum)
    except NotCovered:
        closed = None
    if closed is not None and closed != order:
        raise ConsistencyError(
            f"closed-form order {closed} != engine order {order} for {datum}"
        )
    return order


def _hypothesis_ok(ell: int, datum: EisensteinDatum) -> bool:
    """Whether the classification theorem's hypotheses cover this candidate.

    Odd ell: ell^2 must not divide 4n.  ell = 2: 4 must not divide n and some
    presentation (m', d_part) of the same ideal must have (sf*D)/m' odd > 1.
    """
    n = datum.n
    if ell != 2:
        return n % (ell * ell) != 0
    if n % 4 == 0:
        return False
    sf, sq, _ = parts(n)
    sfd = sf * datum.d_part
    for m2 in divisors_of(datum.m):
        if (datum.m // m2) % 2 == 0:
            continue
        if m2 * (sq // datum.d_part) == 1:
            continue
        t = sfd // m2
        if t > 1 and t % 2 == 1:
            return True
    return False


def _new_candidate(ell: int, datum: EisensteinDatum) -> bool:
    """Necessary conditions for newness: d_part = 1 and every prime of
    sf(n)/m congruent to -1 mod ell.  Never asserts newness."""
    if datum.d_part != 1:
        return False
    sf, _, _ = parts(datum.n)
    return all(q % ell == ell - 1 for q in prime_divisors(sf // math.gcd(datum.m, sf)))


def rational_eisenstein_primes(n: int, ell: int | None = None) -> tuple[EisensteinPrime, ...]:
    """All candidates (ell, normalized datum) at level n, deduplicated.

    The recorded index is the normalized datum's class order when ell still
    divides it, else the largest generating order (the ell = 2 merges can
    change the 2-part).  Candidates outside the theorem's hypotheses are
    emitted with hypothesis_ok = False rather than suppressed.
    """
    if ell is not None and not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    found: dict[tuple[int, int, int], EisensteinPrime] = {}
    for datum in enumerate_data(n):
        order = index_n(datum)
        for p in prime_divisors(order):
            if ell is not None and p != ell:
                continue
            nd = normalize_datum(datum, p)
            key = (p, nd.m, nd.d_part)
            norm_order = index_n(nd)
            idx = norm_order if norm_order % p == 0 else order
            prev = found.get(key)
            if prev is not None:
                idx = max(idx, prev.index_n)
            found[key] = EisensteinPrime(
                p, nd, idx, _hypothesis_ok(p, nd), _new_candidate(p, nd)
            )
    return tuple(found[k] for k in sorted(found))
