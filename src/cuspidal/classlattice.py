"""Exact class-order engine for rational cuspidal divisors.

The divisor-indexed matrix Lambda(N) translates eta-quotient exponent
vectors into cuspidal divisor coefficients.  A degree-0 divisor class has
order k, the least positive integer such that k * Lambda(N)^{-1} * C
satisfies the eta-quotient conditions: integrality, two congruences mod 24,
weight zero, and even valuation of the associated product of levels.

Lambda(N)^{-1} = 24 * (tensor over q^r || N of T_q / (q^r (q^2 - 1))), with
T_q an integer tridiagonal (r+1) x (r+1) block.  The engine applies it one
prime at a time, in integers over one common denominator, and reads every
eta-quotient condition as a gcd against that denominator.  The dense inverse
of `cuspidal lambda --inverse` is the engine's columns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .arith import (
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
from .heckediv import EisensteinDatum, NotCovered, build_c_divisor, deg_map, epsilon

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
    "kernel_intersection_order",
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


def _block_entry(q: int, r: int, m: int, k: int) -> int:
    """Entry (m, k), 1-based, of the integer block T_q at q^r, where
    Lambda(q^r)^{-1} = 24 * T_q / (q^r (q^2 - 1)).  Zero off the tridiagonal."""
    g = q ** min(k - 1, r + 1 - k)
    if m == k:
        kappa = q * q if m in (1, r + 1) else q * q + 1
    elif abs(m - k) == 1:
        kappa = -q
    else:
        kappa = 0
    return g * kappa


def _block_denominator(q: int, r: int) -> int:
    return q**r * (q * q - 1)


def apply_lambda_inverse(
    n: int, a: Sequence[int], den: int = 1
) -> tuple[tuple[int, ...], int]:
    """Lambda(n)^{-1} (a / den) for an integer vector a over the ascending
    divisors of n, as (u, den') with Lambda(n)^{-1} (a / den) = u / den'.

    One tridiagonal pass per prime q^r || n runs along the chains
    d, d q, ..., d q^r (q not dividing d), in integer arithmetic.
    """
    divs = divisors_of(n)
    if len(a) != len(divs):
        raise ValueError(f"vector length {len(a)} != number of divisors {len(divs)}")
    x = dict(zip(divs, a))
    for q, r in factor(n).factors:
        den *= _block_denominator(q, r)
        diag = [_block_entry(q, r, j, j) for j in range(1, r + 2)]
        below = [_block_entry(q, r, j, j - 1) for j in range(2, r + 2)]
        above = [_block_entry(q, r, j, j + 1) for j in range(1, r + 1)]
        for d in divs:
            if d % q == 0:
                continue
            chain = [d * q**j for j in range(r + 1)]
            old = [x[e] for e in chain]
            for j, e in enumerate(chain):
                v = diag[j] * old[j]
                if j:
                    v += below[j - 1] * old[j - 1]
                if j < r:
                    v += above[j] * old[j + 1]
                x[e] = v
    return tuple(24 * x[d] for d in divs), den


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
    """Local eta-exponent entries over q^0, ..., q^r and local scale at
    q^r || N, by the eigenvalue eps of the level-q operator."""
    if eps == 1:
        entries, scale = [1, -1], q ** (r - 1) * (q - 1)
    elif eps == q:
        entries, scale = [q, -1], q ** (r - 1) * (q * q - 1)
    else:
        entries, scale = [q, -(q + 1), 1], q ** (r - 2) * (q * q - 1)
    return entries + [0] * (r + 1 - len(entries)), scale


def _exponent_data(datum: EisensteinDatum) -> Fraction:
    """The rational 1/24 * prod(p-1, p|M) * prod(p^2-1, p|rad/M) * (N/rad) / prod(p|L),
    the product of the local scales over 24."""
    scales = (_local_exponents(q, r, epsilon(datum, q))[1] for q, r in factor(datum.n).factors)
    return Fraction(math.prod(scales), 24)


def r_vector(datum: EisensteinDatum) -> Vector:
    """Lambda(N)^{-1} applied to the datum's divisor, for m coprime to the
    square support.

    Computed two ways, which must agree exactly: the closed entries, whose
    value at delta is 24 times the product over q^r || N of the local entry
    at val_q(delta) over the local scale, and the prime-by-prime engine on
    the datum's divisor.
    """
    n = datum.n
    if math.gcd(datum.m, parts(n)[1]) != 1:
        raise ValueError("closed entries need m coprime to the square support")

    closed = {1: Fraction(24)}
    for q, r in factor(n).factors:
        entries, scale = _local_exponents(q, r, epsilon(datum, q))
        closed = {
            d * q**a: x * Fraction(v, scale)
            for d, x in closed.items()
            for a, v in enumerate(entries)
        }
    closed_vec = tuple(closed[d] for d in divisors_of(n))

    c, _ = _integer_vector(n, build_c_divisor(datum))
    u, den = apply_lambda_inverse(n, c)
    if closed_vec != tuple(Fraction(x, den) for x in u):
        raise ConsistencyError(f"exponent-vector paths disagree for {datum}")
    return closed_vec


def class_order(n: int, a) -> int:
    """Order of the class of a degree-0 divisor sum a_d (P_d) on X0(n).

    Every eta-quotient condition admits the multiples of one modulus, so the
    order is the lcm of the per-condition minimal moduli for Lambda^{-1} a
    = u / den; each modulus is den (or 24 den, 2 den) over its gcd with the
    condition's integer sum.
    """
    nums, den = _integer_vector(n, a)
    divs = divisors_of(n)
    degree = sum(x * euler_phi(math.gcd(d, n // d)) for x, d in zip(nums, divs))
    if degree != 0:
        raise ValueError(f"divisor has degree {Fraction(degree, den)}, expected 0")
    u, den = apply_lambda_inverse(n, nums, den)
    if sum(u) != 0:
        raise ValueError("exponent vector has nonzero weight; no multiple is principal")
    k = den // math.gcd(den, *u)
    s1 = sum(x * d for x, d in zip(u, divs))
    k = math.lcm(k, 24 * den // math.gcd(24 * den, s1))
    s2 = sum(x * (n // d) for x, d in zip(u, divs))
    k = math.lcm(k, 24 * den // math.gcd(24 * den, s2))
    for p in prime_divisors(n):
        v = sum(x * valuation(d, p) for x, d in zip(u, divs))
        k = math.lcm(k, 2 * den // math.gcd(2 * den, v))
    return k


def is_principal(n: int, a) -> bool:
    return class_order(n, a) == 1


def closed_form_order(datum: EisensteinDatum) -> int:
    """Closed-form order of the datum's divisor class, where available.

    Raises NotCovered in the one excluded regime: after reducing the primes
    shared by m and the square support, L = 1 while the reduced level is
    still not squarefree.
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
        raise NotCovered(f"no closed form for {datum}: L = 1 at non-squarefree level {n2}")
    h = 2 if (is_prime(m) and m % 8 == 1 and n2 in (m, 2 * m)) else 1
    return numerator_of(_exponent_data(reduced) * h)


def _kernel_prediction(kind: str, datum: EisensteinDatum, p: int) -> int:
    m, n = datum.m, datum.n
    special = is_prime(m) and m % 8 == 1
    if kind == "minus":
        return 2 if special and n in (m, 2 * m) else 1
    if kind == "plus":
        return 2 if special and n == 2 * m else 1
    return 1


def kernel_intersection_order(kind: str, datum: EisensteinDatum, p: int) -> int:
    """Order of ker(level-raising map) meet the cyclic group of the datum's class.

    Computed as order(C) / order(image class); cross-checked against the
    2-versus-1 prediction and raising on any mismatch.
    """
    if datum.d_part != 1:
        raise ValueError("kernel intersections are stated for d_part = 1 data")
    n, m = datum.n, datum.m
    sf, sq, _ = parts(n)
    compatible = {
        "minus": m % p == 0,
        "plus": (sf % p == 0) and (m % p != 0),
        "plain": sq % p == 0,
    }
    if kind not in compatible:
        raise ValueError(f"unknown map kind {kind!r}")
    if not compatible[kind]:
        raise ValueError(f"map {kind!r} is not compatible with p={p} for {datum}")
    div = build_c_divisor(datum)
    n1 = class_order(n, div)
    n2 = class_order(n * p, deg_map(kind, div, p))
    if n1 % n2:
        raise ConsistencyError(f"image order {n2} does not divide source order {n1}")
    k = n1 // n2
    expected = _kernel_prediction(kind, datum, p)
    if k != expected:
        raise ConsistencyError(
            f"kernel intersection for {kind} at {datum}, p={p}: got {k}, predicted {expected}"
        )
    return k
