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
bounded table per level: each block T_q with the positions of the divisor
chains along q, the degree weights, the codivisors and the valuation rows.
The dense inverse of `cuspidal lambda --inverse` is the engine's columns.

A datum's divisor is a tensor product of local vectors, so its Lambda(N)^{-1}
image is 24 times the tensor product of the closed local entries over their
scales (`_local_exponents`): every sum the eta-quotient conditions read is a
product of local sums over at most three nonzero entries per q^r || N, which
`_datum_sums` combines for `classifier.index_n` in O(omega(N)) per datum.
The engine stays the definition for arbitrary divisors.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .arith import (
    Record,
    divisors_of,
    euler_phi,
    factor,
    is_prime,
    numerator_of,
    parts,
    prime_divisors,
    valuation,
)
from .cusps import ConsistencyError, RationalCuspDivisor
from .heckediv import EisensteinDatum, epsilon, over_primes

__all__ = [
    "lambda_matrix",
    "lambda_inverse",
    "apply_lambda_inverse",
    "solve_lambda",
    "mat_vec",
    "r_vector",
    "class_order",
    "is_principal",
    "closed_form_order",
]

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _lambda_integer(n: int) -> tuple[list[list[int]], list[int]]:
    """Lambda(n) = diag(s)^{-1} A in integers over the ascending divisors of
    n: A_ij = (n/d_j) gcd(d_i, d_j)^2 and s_i = 24 gcd(d_i, n/d_i) d_i."""
    divs = divisors_of(n)
    rows = [[(n // dj) * math.gcd(di, dj) ** 2 for dj in divs] for di in divs]
    return rows, [24 * math.gcd(di, n // di) * di for di in divs]


def lambda_matrix(n: int) -> Matrix:
    """Lambda(n)_{ij} = (1/24) * n/gcd(d_i, n/d_i) * gcd(d_i, d_j)^2/(d_i d_j),
    indexed by the ascending divisors of n: row i of _lambda_integer's A over s_i."""
    rows, scale = _lambda_integer(n)
    return tuple(tuple(Fraction(x, s) for x in row) for row, s in zip(rows, scale))


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


class _LevelTable(Record):
    """What the engine and class_order read at level n, over the ascending
    divisors d of n: for each q^r || n the tridiagonal block of T_q with its
    position chains (`_block`), the degree weights phi(gcd(d, n/d)), the
    codivisors n/d, and the rows val_p(d) for each p | n."""

    __slots__ = ("divs", "blocks", "weights", "codivs", "valuations")


@lru_cache(maxsize=64)
def _level_table(n: int) -> _LevelTable:
    divs = divisors_of(n)
    at = {d: i for i, d in enumerate(divs)}
    factors = factor(n)
    return _LevelTable(
        divs,
        tuple(_block(q, r, at) for q, r in factors),
        tuple(euler_phi(math.gcd(d, n // d)) for d in divs),
        tuple(n // d for d in divs),
        tuple(tuple(valuation(d, q) for d in divs) for q, _ in factors),
    )


def apply_lambda_inverse(
    n: int, a: Sequence[int], den: int = 1
) -> tuple[tuple[int, ...], int]:
    """Lambda(n)^{-1} (a / den) for an integer vector a over the ascending
    divisors of n, as (u, den') with Lambda(n)^{-1} (a / den) = u / den'.

    One pass per block T_q of the level's table (`_level_table`, at most 64
    levels held) runs along its chains d, d q, ..., d q^r, in integers.
    """
    table = _level_table(n)
    if len(a) != len(table.divs):
        raise ValueError(f"vector length {len(a)} != number of divisors {len(table.divs)}")
    x = list(a)
    for block_den, diag, below, above, chains in table.blocks:
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
    return tuple(24 * v for v in x), den


def lambda_inverse(n: int) -> Matrix:
    """Lambda(n)^{-1} as a dense matrix: the engine on each unit vector."""
    size = len(divisors_of(n))
    columns = []
    for j in range(size):
        u, den = apply_lambda_inverse(n, [int(i == j) for i in range(size)])
        columns.append([Fraction(x, den) for x in u])
    return tuple(zip(*columns))


def solve_lambda(n: int, a: Sequence[Fraction | int]) -> Vector:
    """Solve Lambda(n) x = a by fraction-free (Bareiss) Gaussian elimination.

    With a = v / den, A x = s v / den for the integer rows of Lambda(n); the
    elimination keeps every entry an integer, and back substitution yields
    det * x, so the solve runs without rationals until the final division.
    Kept as an independent oracle against apply_lambda_inverse.
    """
    v, den = _integer_vector(n, a)
    rows, scale = _lambda_integer(n)
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
    return tuple(Fraction(x, prev * den) for x in y)


def mat_vec(m: Matrix, v: Sequence[Fraction | int]) -> Vector:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m)


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
        vec = [Fraction(a.get(d, 0)) for d in divs]
    else:
        vec = [Fraction(x) for x in a]
        if len(vec) != len(divs):
            raise ValueError(f"vector length {len(vec)} != number of divisors {len(divs)}")
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def _local_exponents(q: int, r: int, eps: int) -> tuple[list[int], int]:
    """Local eta-exponent entries e over q^0, ..., q^r and local scale s at
    q^r || N, by the eigenvalue eps of the level-q operator: Lambda(q^r)^{-1}
    of the local divisor is 24 e / s.  Only e_0, e_1 and e_2 can be nonzero."""
    if eps == 1:
        entries, scale = [1, -1], q - 1
    elif eps == q:
        entries, scale = [q, -1], q ** (r - 1) * (q * q - 1)
    else:
        entries, scale = [q, -(q + 1), 1], q ** (r - 2) * (q * q - 1)
    return entries + [0] * (r + 1 - len(entries)), scale


def _exponent_data(datum: EisensteinDatum) -> Fraction:
    """The rational 1/24 * prod(p-1, p|M) * prod(p^(r-1) (p^2-1), p^r || N, p
    not in M) / prod(p|L), the product of the local scales over 24."""
    scales = (_local_exponents(q, r, epsilon(datum, q))[1] for q, r in factor(datum.n))
    return Fraction(math.prod(scales), 24)


def r_vector(datum: EisensteinDatum) -> tuple[tuple[int, ...], int]:
    """Lambda(N)^{-1} applied to the datum's divisor as (u, den) with
    r = u / den: the closed entries, whose value at delta is the product over
    q^r || N of the local entry at val_q(delta), over _exponent_data.  `sweep`
    checks Lambda(N) r = C against the datum's divisor."""
    closed = over_primes(datum, lambda q, r, eps: _local_exponents(q, r, eps)[0])
    scale = _exponent_data(datum)
    return tuple(closed[d] * scale.denominator for d in divisors_of(datum.n)), scale.numerator


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
    condition's integer sum.
    """
    nums, den = _integer_vector(n, a)
    table = _level_table(n)
    degree = sum(map(mul, nums, table.weights))
    if degree != 0:
        raise ValueError(f"divisor has degree {Fraction(degree, den)}, expected 0")
    u, den = apply_lambda_inverse(n, nums, den)
    if sum(u) != 0:
        raise ValueError("exponent vector has nonzero weight; no multiple is principal")
    s1 = sum(map(mul, u, table.divs))
    s2 = sum(map(mul, u, table.codivs))
    parities = [sum(map(mul, u, row)) for row in table.valuations]
    return _eta_order(den, math.gcd(*u), s1, s2, parities)


def _datum_sums(datum: EisensteinDatum) -> tuple[int, int, int, int, list[int]]:
    """The arguments of _eta_order for the datum's divisor, from the closed
    local entries alone.  Lambda(N)^{-1} of the divisor is 24 (tensor of the
    local entries e) over the product of the local scales, so each sum
    class_order reads is 24 times a product of local sums over e_0, e_1 and
    e_2: gcd(e), Sum q^a e_a, Sum q^(r-a) e_a, and for the parity sum at p,
    Sum a e_a at p and Sum e_a at every other prime.  A nonzero weight at
    every prime contradicts the datum's degree 0: ConsistencyError."""
    den, g, s1, s2, weights, moments = 1, 24, 24, 24, [], []
    for q, r in factor(datum.n):
        entries, scale = _local_exponents(q, r, epsilon(datum, q))
        e = entries[:3]
        den *= scale
        g *= math.gcd(*e)
        s1 *= sum(q**a * x for a, x in enumerate(e))
        s2 *= sum(q ** (r - a) * x for a, x in enumerate(e))
        weights.append(sum(e))
        moments.append(sum(a * x for a, x in enumerate(e)))
    if all(weights):
        raise ConsistencyError(f"local exponents of {datum} have nonzero weight at every prime")
    parities = [
        24 * moment * math.prod(weights[:i] + weights[i + 1 :]) for i, moment in enumerate(moments)
    ]
    return den, g, s1, s2, parities


def is_principal(n: int, a) -> bool:
    return class_order(n, a) == 1


def closed_form_order(datum: EisensteinDatum) -> int | None:
    """Closed-form order of the datum's divisor class, or None in the one
    regime it does not cover: after reducing the primes shared by m and the
    square support, L = 1 while the reduced level is still not squarefree.
    An independent oracle against the local orders of `index_n` and the
    engine's class_order, which `sweep` runs.
    """
    n, m, dp = datum.n, datum.m, datum.d_part
    _, sq, _ = parts(n)
    a = math.gcd(m, sq)
    b = math.prod(p ** (valuation(n, p) - 1) for p in prime_divisors(a))
    n2, d2 = n // b, dp // a
    k2 = valuation(n2, 2)
    if n2 == 2**k2 and k2 >= 2:
        return numerator_of(Fraction(2) ** (k2 - 4))
    reduced = EisensteinDatum(n2, m, d2)
    _, sq2, _ = parts(n2)
    if reduced.l_part == 1 and sq2 != 1:
        return None
    h = 2 if (is_prime(m) and m % 8 == 1 and n2 in (m, 2 * m)) else 1
    return numerator_of(_exponent_data(reduced) * h)
