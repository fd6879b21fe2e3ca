"""Enumeration of eigenvalue data at a level and the rational Eisenstein primes.

A prime ell is attached to a datum exactly when it divides the order of the
datum's divisor class (the Eisenstein index), read off the local factors at
each prime power of the level.  No closed form runs here: `sweep` checks
these orders against the closed form and the whole-level engine.  Data are
normalized per ell by absorbing into m every quotient prime congruent to
1 mod ell, so distinct emitted pairs (ell, datum) name distinct ideals.
"""

from __future__ import annotations

import math

from .arith import Record, divisors_of, is_prime, parts, prime_divisors
from .classlattice import _datum_sums, _eta_order
from .heckediv import EisensteinDatum

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


def index_n(datum: EisensteinDatum) -> int:
    """Order of the datum's divisor class, from the local factors at each
    q^r || n in O(omega(n)) operations: class_order of build_c_divisor(datum)
    without building the divisor."""
    return _eta_order(*_datum_sums(datum))


def _hypothesis_ok(ell: int, datum: EisensteinDatum) -> bool:
    """Whether the classification theorem's hypotheses cover this candidate.

    Odd ell: ell^2 must not divide 4n.  ell = 2: 4 must not divide n and some
    presentation (m', d_part) of the same ideal must have (sf*D)/m' odd > 1.
    The presentations are m' = 2^v e with 2^v the 2-part of M and e | M odd,
    and (sf*D)/m' is odd exactly when M and sf*D have the same 2-part.  Of
    the 2^omega(M odd) choices of e, (sf*D)/m' = 1 rules out e = M odd when
    M = sf*D, and m' * (sq/D) = 1 rules out e = 1 when M is odd and D = sq.
    """
    n, m = datum.n, datum.m
    if ell != 2:
        return n % (ell * ell) != 0
    if n % 4 == 0:
        return False
    sf, sq, _ = parts(n)
    sfd = sf * datum.d_part
    if (sfd // m) % 2 == 0:
        return False
    odd_m = m // math.gcd(m, 2)
    ruled_out = {odd_m} if m == sfd else set()
    if m == odd_m and sq == datum.d_part:
        ruled_out.add(1)
    return 2 ** sum(odd_m % p == 0 for p in prime_divisors(n)) > len(ruled_out)


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
    # normalize_datum keeps D and enlarges m only within sf*D, so every
    # normalized datum is again one of the level's data.
    orders = {datum: index_n(datum) for datum in enumerate_data(n)}
    found: dict[tuple[int, int, int], EisensteinPrime] = {}
    for datum, order in orders.items():
        for p in prime_divisors(order):
            if ell is not None and p != ell:
                continue
            nd = normalize_datum(datum, p)
            key = (p, nd.m, nd.d_part)
            norm_order = orders[nd]
            idx = norm_order if norm_order % p == 0 else order
            prev = found.get(key)
            if prev is not None:
                idx = max(idx, prev.index_n)
            found[key] = EisensteinPrime(
                p, nd, idx, _hypothesis_ok(p, nd), _new_candidate(p, nd)
            )
    return tuple(found[k] for k in sorted(found))
