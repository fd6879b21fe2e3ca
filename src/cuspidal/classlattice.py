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

Orders, the engine and the datum sums are integers, so the module imports
`fractions` only inside the functions that build a Fraction: the dense
matrices, `solve_lambda`, `mat_vec` and `class_order`'s degree message.
`classify`, `order`, `hecke`, `cusps` and `cdivisor` never load it.

A datum's divisor is a tensor product of local vectors, so its Lambda(N)^{-1}
image is 24 times the tensor product of the closed local entries over their
scales, both read off `heckediv.local_tables`: every sum the eta-quotient
conditions read is a product of local sums over at most three nonzero
entries per q^r || N, which `index_n` combines in O(omega(N)) per datum for
`classify`.  The engine stays the definition for arbitrary divisors; `sweep`
checks both orders against the third, `closed_form_order`.
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
    prime_divisors,
    valuation,
)
from .cusps import ConsistencyError, RationalCuspDivisor
from .heckediv import EisensteinDatum, local_tables, over_primes

__all__ = [
    "lambda_rows",
    "lambda_matrix",
    "lambda_inverse",
    "apply_lambda_inverse",
    "solve_lambda",
    "mat_vec",
    "r_vector",
    "class_order",
    "closed_form_order",
]

Matrix = tuple[tuple["Fraction", ...], ...]
Vector = tuple["Fraction", ...]


def lambda_rows(n: int) -> tuple[list[list[int]], list[int]]:
    """Lambda(n) = diag(s)^{-1} A in integers over the ascending divisors of
    n: A_ij = (n/d_j) gcd(d_i, d_j)^2 and s_i = 24 gcd(d_i, n/d_i) d_i."""
    divs = divisors_of(n)
    rows = [[(n // dj) * math.gcd(di, dj) ** 2 for dj in divs] for di in divs]
    return rows, [24 * math.gcd(di, n // di) * di for di in divs]


def lambda_matrix(n: int) -> Matrix:
    """Lambda(n)_{ij} = (1/24) * n/gcd(d_i, n/d_i) * gcd(d_i, d_j)^2/(d_i d_j),
    indexed by the ascending divisors of n: row i of lambda_rows's A over s_i."""
    from fractions import Fraction

    rows, scale = lambda_rows(n)
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


def lambda_inverse(n: int) -> Matrix:
    """Lambda(n)^{-1} as a dense matrix: the engine on each unit vector."""
    from fractions import Fraction

    size = len(divisors_of(n))
    columns = []
    for j in range(size):
        u, den = apply_lambda_inverse(n, [int(i == j) for i in range(size)])
        columns.append([Fraction(x, den) for x in u])
    return tuple(zip(*columns))


def solve_lambda(n: int, a: Sequence["Fraction | int"]) -> Vector:
    """Solve Lambda(n) x = a by fraction-free (Bareiss) Gaussian elimination.

    With a = v / den, A x = s v / den for the integer rows of Lambda(n); the
    elimination keeps every entry an integer, and back substitution yields
    det * x, so the solve runs without rationals until the final division.
    Kept as an independent oracle against apply_lambda_inverse.
    """
    from fractions import Fraction

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
    return tuple(Fraction(x, prev * den) for x in y)


def mat_vec(m: Matrix, v: Sequence["Fraction | int"]) -> Vector:
    from fractions import Fraction

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
        from fractions import Fraction

        psi = math.prod(q ** (e - 1) * (q + 1) for q, e in factor(n))
        raise ValueError(f"divisor has degree {Fraction(psi * sum(u), 24 * den)}, expected 0")
    divs = divisors_of(n)
    s1 = sum(map(mul, u, divs))
    s2 = sum(n // d * x for d, x in zip(divs, u))
    parities = [
        sum(j * u[i] for chain in chains for j, i in enumerate(chain))
        for *_, chains in _level_table(n)
    ]
    return _eta_order(den, math.gcd(*u), s1, s2, parities)


def _datum_sums(datum: EisensteinDatum) -> tuple[int, int, int, int, list[int]]:
    """The arguments of _eta_order for the datum's divisor, from the closed
    local entries alone.  Lambda(N)^{-1} of the divisor is 24 (tensor of the
    local entries e) over the product of the local scales, so each sum
    class_order reads is 24 times a product of local sums over e_0, e_1 and
    e_2: gcd(e), Sum q^a e_a, Sum q^(r-a) e_a, and for the parity sum at p,
    Sum a e_a at p and Sum e_a at every other prime.  A nonzero weight at
    every prime contradicts the datum's degree 0: ConsistencyError."""
    den, g, s1, s2, totals, moments = 1, 24, 24, 24, [], []
    for q, r, _, entries, scale in local_tables(datum):
        e = entries[:3]
        den *= scale
        g *= math.gcd(*e)
        powers = (1, q, q * q)
        s1 *= sum(map(mul, e, powers))
        # Sum q^(r-a) e_a, with len(e) = min(r + 1, 3)
        s2 *= q ** (r + 1 - len(e)) * sum(map(mul, reversed(e), powers))
        totals.append(sum(e))
        moments.append(sum(map(mul, e, range(3))))
    if all(totals):
        raise ConsistencyError(f"local exponents of {datum} have nonzero weight at every prime")
    parities = [
        24 * moment * math.prod(totals[:i] + totals[i + 1 :]) for i, moment in enumerate(moments)
    ]
    return den, g, s1, s2, parities


def index_n(datum: EisensteinDatum) -> int:
    """Order of the datum's divisor class, from the local factors at each
    q^r || n in O(omega(n)) operations: class_order of build_c_divisor(datum)
    without building the divisor."""
    return _eta_order(*_datum_sums(datum))


def closed_form_order(datum: EisensteinDatum) -> int | None:
    """Closed-form order of the datum's divisor class, or None in the one
    regime it does not cover: after reducing the primes shared by m and the
    square support, L = 1 while the reduced level is still not squarefree.
    An independent oracle against the local orders of `index_n` and the
    engine's class_order, which `sweep` runs.  The order is the numerator of
    h * Pi s / 24, with Pi s the product of the reduced datum's local scales
    read off `local_tables`, and a power of 2 on the 2-power levels.
    """
    n, m, dp = datum.n, datum.m, datum.d_part
    _, sq, _ = parts(n)
    a = math.gcd(m, sq)
    b = math.prod(p ** (valuation(n, p) - 1) for p in prime_divisors(a))
    n2, d2 = n // b, dp // a
    k2 = valuation(n2, 2)
    if n2 == 2**k2 and k2 >= 2:
        return 2 ** max(k2 - 4, 0)
    reduced = datum if a == 1 else EisensteinDatum(n2, m, d2)
    _, sq2, _ = parts(n2)
    if reduced.l_part == 1 and sq2 != 1:
        return None
    h = 2 if (is_prime(m) and m % 8 == 1 and n2 in (m, 2 * m)) else 1
    x = h * math.prod(s for *_, s in local_tables(reduced))
    return x // math.gcd(x, 24)
