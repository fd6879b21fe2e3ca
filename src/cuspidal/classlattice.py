"""Exact class-order engine for rational cuspidal divisors.

The divisor-indexed matrix Lambda(N) translates eta-quotient exponent
vectors into cuspidal divisor coefficients.  A degree-0 divisor class has
order k, the least positive integer such that k * Lambda(N)^{-1} * C
satisfies the eta-quotient conditions: integrality, two congruences mod 24,
weight zero, and even valuation of the associated product of levels.

Lambda(N)^{-1} = 24 * (tensor over q^r || N of T_q / (q^r (q^2 - 1))), with
T_q an integer tridiagonal (r+1) x (r+1) block.  The engine applies it one
prime at a time, in integers over one common denominator, and reads every
eta-quotient condition as a gcd against that denominator.  Both read one
bounded table per level, the blocks T_q with the positions of the divisor
chains d, d q, ..., d q^r, where the place j in a chain is val_q, which the
parity condition reads.  A divisor's degree is psi(N)/24 times the weight
of its exponent vector, so degree 0 is checked once, on the engine's image.
The dense inverse of `cuspidal lambda --inverse` is the engine's columns.

Every matrix and vector here is integers over a denominator: Lambda(N) is
`lambda_rows`'s rows over their scales, Lambda(N)^{-1} is `lambda_inverse`'s
rows over one den, and `solve_lambda` and the engine return (vector, den).
Even `class_order`'s degree message reduces its rational with `math.gcd`.

A datum's divisor is a tensor product of local vectors, so its Lambda(N)^{-1}
image is 24 times the tensor product of the closed local entries over their
scales, both read off `heckediv.local_tables`, and the eta-quotient
conditions reduce to the scales, the local weights and one moment:
`index_n` is the closed formula h * num(prod s / 24), h = 1 or 2, in
O(omega(N)) per datum for `classify`.  The engine stays the definition for
arbitrary divisors; `sweep` checks both against `closed_form_order`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import lru_cache
from operator import mul

from .arith import (
    divisors_of,
    factor,
    is_prime,
    parts,
    valuation,
)
from .cusps import ConsistencyError, RationalCuspDivisor
from .heckediv import EisensteinDatum, local_tables, over_primes

__all__ = [
    "lambda_rows",
    "lambda_inverse",
    "apply_lambda_inverse",
    "solve_lambda",
    "mat_vec",
    "r_vector",
    "class_order",
    "closed_form_order",
]

def lambda_rows(n: int) -> tuple[list[list[int]], list[int]]:
    """Lambda(n) = diag(s)^{-1} A in integers over the ascending divisors of
    n: A_ij = (n/d_j) gcd(d_i, d_j)^2 and s_i = 24 gcd(d_i, n/d_i) d_i."""
    divs = divisors_of(n)
    rows = [[(n // dj) * math.gcd(di, dj) ** 2 for dj in divs] for di in divs]
    return rows, [24 * math.gcd(di, n // di) * di for di in divs]


def _block(q: int, r: int, at: Mapping[int, int]) -> tuple:
    """T_q at q^r || n as (den, diag, below, above, chains), where Lambda(q^r)^{-1}
    = 24 * T_q / den, den = q^r (q^2 - 1).  Column j of T_q carries q^min(j, r - j);
    its diagonal entry is q^2 at both ends and q^2 + 1 inside, its off-diagonal
    entries -q: below[j] = T_q[j+1][j], above[j] = T_q[j][j+1].  The chains are
    the positions in `at` of d, d q, ..., d q^r for each d of `at` prime to q."""
    g = [q ** min(j, r - j) for j in range(r + 1)]
    return (
        q**r * (q * q - 1),
        tuple(x * (q * q if j in (0, r) else q * q + 1) for j, x in enumerate(g)),
        tuple(-q * x for x in g[:-1]),
        tuple(-q * x for x in g[1:]),
        tuple(tuple(at[d * q**j] for j in range(r + 1)) for d in at if d % q),
    )


@lru_cache(maxsize=64)
def _level_table(n: int) -> tuple:
    """The blocks `_block(q, r, at)` of T_q, one for each q^r || n, with the
    chains as positions in the ascending divisors of n."""
    at = {d: i for i, d in enumerate(divisors_of(n))}
    return tuple(_block(q, r, at) for q, r in factor(n))


def apply_lambda_inverse(
    n: int, a: Sequence[int], den: int = 1
) -> tuple[tuple[int, ...], int]:
    """Lambda(n)^{-1} (a / den) for an integer vector a over the ascending
    divisors of n, as (u, den') with Lambda(n)^{-1} (a / den) = u / den'.

    One pass per block T_q of the level's table (`_level_table`, at most 64
    levels held) runs along its chains d, d q, ..., d q^r, in integers.
    """
    size = len(divisors_of(n))
    if len(a) != size:
        raise ValueError(f"vector length {len(a)} != number of divisors {size}")
    x = list(a)
    for block_den, diag, below, above, chains in _level_table(n):
        den *= block_den
        r = len(above)
        for chain in chains:
            old = [x[i] for i in chain]
            for j, i in enumerate(chain):
                v = diag[j] * old[j]
                if j:
                    v += below[j - 1] * old[j - 1]
                if j < r:
                    v += above[j] * old[j + 1]
                x[i] = v
    return tuple([24 * v for v in x]), den


def lambda_inverse(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Lambda(n)^{-1} = rows / den as a dense matrix: the engine's columns on
    the unit vectors, which share den, the product of the block denominators."""
    size = len(divisors_of(n))
    units = ([int(i == j) for i in range(size)] for j in range(size))
    columns, dens = zip(*(apply_lambda_inverse(n, e) for e in units))
    return tuple(zip(*columns)), dens[0]


def solve_lambda(n: int, a) -> tuple[tuple[int, ...], int]:
    """Solve Lambda(n) x = a by fraction-free (Bareiss) Gaussian elimination,
    as (y, den) with x = y / den.

    With a = v / den, A x = s v / den for the integer rows of Lambda(n); the
    elimination keeps every entry an integer, and back substitution yields
    det * x.  Kept as an independent oracle against apply_lambda_inverse.
    """
    v, den = _integer_vector(n, a)
    rows, scale = lambda_rows(n)
    m = [row + [s * x] for row, s, x in zip(rows, scale, v)]
    size = len(m)
    prev = 1
    for col in range(size):
        piv = next(r for r in range(col, size) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        top = m[col][col:]
        p = top[0]
        for r in range(col + 1, size):
            f = m[r][col]
            m[r][col:] = [(p * x - f * y) // prev for x, y in zip(m[r][col:], top)]
        prev = p
    y = [0] * size
    for i in reversed(range(size)):
        row = m[i]
        tail = sum(row[j] * y[j] for j in range(i + 1, size))
        y[i] = (prev * row[size] - tail) // row[i]
    return tuple(y), prev * den


def mat_vec(rows, v: Sequence[int]) -> tuple[int, ...]:
    """The integer products of each row with v."""
    return tuple([sum(map(mul, row, v)) for row in rows])


def _integer_vector(n: int, a) -> tuple[list[int], int]:
    """Coefficients of a over the ascending divisors of n, as integer
    numerators over their one common denominator."""
    divs = divisors_of(n)
    if isinstance(a, RationalCuspDivisor):
        if a.n != n:
            raise ValueError(f"divisor lives on X0({a.n}), not X0({n})")
        return list(a.as_vector()), 1
    if isinstance(a, Mapping):
        divset = set(divs)
        if any(d not in divset for d in a):
            raise ValueError("coefficient keys must divide the level")
        vec = [a.get(d, 0) for d in divs]
    else:
        vec = list(a)
        if len(vec) != len(divs):
            raise ValueError(f"vector length {len(vec)} != number of divisors {len(divs)}")
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def r_vector(datum: EisensteinDatum) -> tuple[tuple[int, ...], int]:
    """Lambda(N)^{-1} applied to the datum's divisor as (u, den) with
    r = u / den = 24 e / s: e the tensor of the closed local entries and s the
    product of the local scales, reduced by g = gcd(24, s).  `sweep` checks
    Lambda(N) r = C against the datum's divisor."""
    closed, scale = over_primes(datum, 1)
    g = math.gcd(24, scale)
    return tuple([closed[d] * (24 // g) for d in divisors_of(datum.n)]), scale // g


def _eta_order(den: int, g: int, s1: int, s2: int, parities) -> int:
    """Least k with k u / den an eta quotient, for a weight-0 integer vector u
    over den: integral entries (gcd g), Sum d u_d = s1 and Sum (N/d) u_d = s2
    both 0 mod 24, and Sum val_p(d) u_d even for each parity sum at p | N."""
    k = den // math.gcd(den, g)
    k = math.lcm(k, 24 * den // math.gcd(24 * den, s1))
    k = math.lcm(k, 24 * den // math.gcd(24 * den, s2))
    for v in parities:
        k = math.lcm(k, 2 * den // math.gcd(2 * den, v))
    return k


def class_order(n: int, a) -> int:
    """Order of the class of a degree-0 divisor sum a_d (P_d) on X0(n).

    Every eta-quotient condition admits the multiples of one modulus, so the
    order is the lcm of the per-condition minimal moduli for Lambda^{-1} a
    = u / den; each modulus is den (or 24 den, 2 den) over its gcd with the
    condition's integer sum.  The divisor's degree is psi(n)/24 times the
    weight Sum u_d / den (Ligozat), so a nonzero weight is the one degree
    check.  The parity sum at q reads val_q(d) as d's position in its chain.
    """
    nums, den = _integer_vector(n, a)
    u, den = apply_lambda_inverse(n, nums, den)
    if sum(u) != 0:
        num = math.prod(q ** (e - 1) * (q + 1) for q, e in factor(n)) * sum(u)
        g = math.gcd(num, 24 * den)
        degree = f"{num // g}" if g == 24 * den else f"{num // g}/{24 * den // g}"
        raise ValueError(f"divisor has degree {degree}, expected 0")
    divs = divisors_of(n)
    s1 = sum(map(mul, u, divs))
    s2 = sum(n // d * x for d, x in zip(divs, u))
    parities = [
        sum(j * u[i] for chain in chains for j, i in enumerate(chain))
        for *_, chains in _level_table(n)
    ]
    return _eta_order(den, math.gcd(*u), s1, s2, parities)


def index_n(datum: EisensteinDatum) -> int:
    """Order of the datum's divisor class, class_order of build_c_divisor(datum),
    as h * num(den / 24), den the product of the local scales s_q.

    The eta-quotient conditions on 24 (tensor of the local entries e) / den
    reduce term by term (README, "The order of C^D_{M,N}"): gcd(e) = 1, so
    integrality asks den / gcd(den, 24); Sum d r_d and Sum (N/d) r_d are 0 mod
    24 (prod_q A_q is 0 or +-den, each B_q a multiple of s_q); the parity sum
    at p, 24 D_p prod_{q != p} W_q, is nonzero only at the one prime whose
    entries have weight W = 0, and h = 2 exactly when that product is odd and
    8 | den.  A nonzero weight at every prime (degree 0 rules it out) raises
    ConsistencyError.
    """
    tables = local_tables(datum)
    den = math.prod(s for *_, s in tables)
    weights = [sum(e) for _, _, _, e, _ in tables]
    if all(weights):
        raise ConsistencyError(f"local exponents of {datum} have nonzero weight at every prime")
    order = den // math.gcd(den, 24)
    if weights.count(0) == 1 and den % 8 == 0:
        moment = sum(map(mul, tables[weights.index(0)][3], range(3)))
        if moment * math.prod(filter(None, weights)) % 2:
            order *= 2
    return order


def closed_form_order(datum: EisensteinDatum) -> int | None:
    """Closed-form order of the datum's divisor class, or None where no prime
    has eps = 0 (L = 1) and some q with q^2 | N has eps_q = q: the numerator
    of h * prod s / 24 over the scales of `local_tables`, with h = 2 in case
    (a), M = 1 and N a power of 2 with 8 | prod s, and in case (b), M a prime
    = 1 mod 8 with N / M^v_M(N) in {1, 2}.  An oracle that `sweep` runs
    against `index_n` and the engine's class_order.
    """
    n, m = datum.n, datum.m
    _, sq, _ = parts(n)
    if datum.l_part == 1 and sq != math.gcd(m, sq):
        return None
    x = math.prod(s for *_, s in local_tables(datum))
    if (m == 1 and n & (n - 1) == 0 and x % 8 == 0) or (
        is_prime(m) and m % 8 == 1 and n // m ** valuation(n, m) in (1, 2)
    ):
        x *= 2
    return x // math.gcd(x, 24)
