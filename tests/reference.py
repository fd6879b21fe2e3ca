"""Reference code the tests compare the package against; no command runs it.

Cusp divisors here are plain {Cusp: int} dicts on one X0(n).  The coverings
act on them cusp by cusp: a pullback enumerates the cusps of X0(np), maps
each one down and weights it by its ramification index, and `aggregate`
reads a Galois-stable dict back as a sum a_d * (P_d), failing loudly when a
level is not uniform.  The level-raising maps on divisors and on
q-expansions, and the kernel orders they predict, live here too, and so
does the recursive builder of a datum's divisor that the tensor product of
`heckediv.build_c_divisor` replaced.  So do the general entry formula of the
tridiagonal block T_q of Lambda(q^r)^{-1}, the whole-level Lambda(N)^{-1}
engine that walked a dict keyed by divisor, rebuilding T_q from that
formula, with the class order on it, the ell = 2 hypothesis test that
tried every presentation of a datum, and the normalization and newness
conditions as they read (m, d_part) rather than the eigenvalues.
`chain_multiplicity` keeps the derivation of the beta pushforward
multiplicities from cusp counts, and `VALUATION_MAPS` the per-cusp coverings
as they were computed before their closed forms: from the valuations at p of
the cusp's level and of N.

The package lists the cusps of a curve afresh on every call, so this module
rebinds `enumerate_cusps` to one memo that the cusp-by-cusp references and
the cusp tests share.
"""

import functools
import math
from fractions import Fraction

from cuspidal.arith import (
    divisors_of,
    euler_phi,
    factor,
    is_prime,
    omega,
    parts,
    prime_divisors,
    valuation,
)
from cuspidal.classlattice import _eta_order, _integer_vector, class_order
from cuspidal.cusps import (
    ConsistencyError,
    RationalCuspDivisor,
    alpha_image,
    alpha_pullback,
    alpha_ram,
    beta_image,
    beta_ram,
    enumerate_cusps,
    make_cusp,
    normalize_fraction,
)
from cuspidal.eisq import QExpansion
from cuspidal.heckediv import EisensteinDatum, build_c_divisor

enumerate_cusps = functools.cache(enumerate_cusps)

MAPS = {"alpha": (alpha_image, alpha_ram), "beta": (beta_image, beta_ram)}


def numerator_of(r) -> int:
    """Positive numerator of an int or Fraction r in lowest terms (the order
    of the associated cyclic group)."""
    return abs(r.numerator)


def p_divisor(d: int, n: int) -> RationalCuspDivisor:
    """(P_d): the sum of all cusps of level d on X0(n)."""
    return RationalCuspDivisor.from_dict(n, {d: 1})


def expand(div: RationalCuspDivisor) -> dict:
    """The cusp divisor of a (P_d) sum: every cusp of level d gets a_d."""
    coeffs = dict(div.coeffs)
    return {c: coeffs[c.d] for c in enumerate_cusps(div.n) if c.d in coeffs}


def aggregate(n: int, div: dict) -> RationalCuspDivisor:
    """A cusp divisor of X0(n) in the (P_d) basis; every level must be uniform."""
    by_level: dict[int, set[int]] = {d: set() for d in divisors_of(n)}
    for c in enumerate_cusps(n):
        by_level[c.d].add(div.get(c, 0))
    for d, seen in by_level.items():
        if len(seen) != 1:
            raise ConsistencyError(
                f"divisor is not Galois-rational: level {d} of X0({n}) "
                f"carries coefficients {sorted(seen)}"
            )
    return RationalCuspDivisor.from_dict(n, {d: seen.pop() for d, seen in by_level.items()})


def pullback(kind: str, div: dict, n: int, p: int) -> dict:
    """Pullback of a cusp divisor of X0(n) to X0(np): each cusp of X0(np)
    takes the coefficient of its image, times its ramification index."""
    image, ram = MAPS[kind]
    out = {}
    for c in enumerate_cusps(n * p):
        v = div.get(image(c, p), 0)
        if v:
            out[c] = v * ram(c, p)
    return out


def pushforward(kind: str, div: dict, p: int) -> dict:
    """Pushforward of a cusp divisor of X0(np) to X0(n), cusp by cusp."""
    image, _ = MAPS[kind]
    out: dict = {}
    for c, v in div.items():
        img = image(c, p)
        out[img] = out.get(img, 0) + v
    return out


def chain_multiplicity(p: int, r: int, i: int) -> int:
    """m in beta_*(P_(p^i d0)) = m * (P_(p^(i-1) d0)) from X0(Np) down to
    X0(N), r = val_p(N), 1 <= i <= r + 1: the cusp count of level p^i d0
    over that of p^(i-1) d0, phi(p^min(i, r+1-i)) / phi(p^min(i-1, r+1-i)),
    since z -> p*z hits every cusp of the lower level equally often (the
    factor phi(gcd(d0, N/d0)) cancels).  The division must be exact."""
    m, rem = divmod(euler_phi(p ** min(i, r + 1 - i)), euler_phi(p ** min(i - 1, r + 1 - i)))
    assert rem == 0, (p, r, i)
    return m


def _covered_level(c, p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if c.n % p:
        raise ValueError(f"cusp of X0({c.n}) cannot descend along p={p}")
    return c.n // p


def _valuation_alpha_image(c, p: int):
    """z -> z: the level p^i d0 goes to p^min(i, r) d0 on X0(N), r = val_p(N)."""
    n = _covered_level(c, p)
    r = valuation(n, p)
    i = valuation(c.d, p)
    d0 = c.d // p**i
    return make_cusp(n, p ** min(i, r) * d0, c.x)


def _valuation_beta_image(c, p: int):
    """z -> p*z: the fraction p*x/(p^i d0) reduced, then normalized."""
    n = _covered_level(c, p)
    i = valuation(c.d, p)
    d0 = c.d // p**i
    if i >= 1:
        return normalize_fraction(c.x, p ** (i - 1) * d0, n)
    return normalize_fraction(p * c.x, d0, n)


def _valuation_alpha_ram(c, p: int) -> int:
    n = _covered_level(c, p)
    return p if 2 * valuation(c.d, p) <= valuation(n, p) else 1


def _valuation_beta_ram(c, p: int) -> int:
    n = _covered_level(c, p)
    return p if 2 * valuation(c.d, p) >= valuation(n, p) + 2 else 1


VALUATION_MAPS = {
    alpha_image: _valuation_alpha_image,
    beta_image: _valuation_beta_image,
    alpha_ram: _valuation_alpha_ram,
    beta_ram: _valuation_beta_ram,
}


def recursive_c_divisor(datum: EisensteinDatum) -> RationalCuspDivisor:
    """The datum's divisor without the tensor product.

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
        return RationalCuspDivisor.from_dict(n, coeffs)
    p = prime_divisors(a)[0]
    r = valuation(n, p)
    div = recursive_c_divisor(EisensteinDatum(n // p ** (r - 1), m, dp // p))
    for _ in range(r - 1):
        div = alpha_pullback(div, p)
    return div


def beta_pullback(div: RationalCuspDivisor, p: int) -> RationalCuspDivisor:
    """Pullback through z -> p*z on (P_d) sums, by levels: a cusp of level
    e = p^i d0 on X0(np) lies over level p^(i-1) d0 (d0 when i = 0), with
    ramification p iff 2i >= val_p(n) + 2."""
    r = valuation(div.n, p)
    coeffs = dict(div.coeffs)
    out = {}
    for e in divisors_of(div.n * p):
        i = valuation(e, p)
        below = e // p if i else e
        out[e] = (p if 2 * i >= r + 2 else 1) * coeffs.get(below, 0)
    return RationalCuspDivisor.from_dict(div.n * p, out)


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


def level_map(kind: str, f: QExpansion, p: int) -> QExpansion:
    """The level-raising maps on forms: plus sends f(z) to f(z) - p f(pz),
    minus to f(z) - f(pz), plain leaves the expansion unchanged."""
    k = {"plus": p, "minus": 1, "plain": 0}[kind]
    coeffs = tuple(a - k * f.coeffs[j // p] if j % p == 0 else a for j, a in enumerate(f.coeffs))
    return QExpansion(f.n * p, f.prec, coeffs)


def _kernel_prediction(kind: str, datum) -> int:
    m, n = datum.m, datum.n
    special = is_prime(m) and m % 8 == 1
    if kind == "minus":
        return 2 if special and n in (m, 2 * m) else 1
    if kind == "plus":
        return 2 if special and n == 2 * m else 1
    return 1


def kernel_intersection_order(kind: str, datum, p: int) -> int:
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
    expected = _kernel_prediction(kind, datum)
    if k != expected:
        raise ConsistencyError(
            f"kernel intersection for {kind} at {datum}, p={p}: got {k}, predicted {expected}"
        )
    return k


def block_entry(q: int, r: int, m: int, k: int) -> int:
    """Entry (m, k), 1-based, of the integer block T_q at q^r, where
    Lambda(q^r)^{-1} = 24 * T_q / block_denominator(q, r).  Zero off the
    tridiagonal."""
    g = q ** min(k - 1, r + 1 - k)
    if m == k:
        kappa = q * q if m in (1, r + 1) else q * q + 1
    elif abs(m - k) == 1:
        kappa = -q
    else:
        kappa = 0
    return g * kappa


def block_denominator(q: int, r: int) -> int:
    return q**r * (q * q - 1)


def dict_apply_lambda_inverse(n: int, a, den: int = 1) -> tuple[tuple[int, ...], int]:
    """Lambda(n)^{-1} (a / den) as (u, den'), one tridiagonal pass per prime
    q^r || n along the chains d, d q, ..., d q^r of a dict keyed by divisor,
    every chain and block entry rebuilt on each call."""
    divs = divisors_of(n)
    if len(a) != len(divs):
        raise ValueError(f"vector length {len(a)} != number of divisors {len(divs)}")
    x = dict(zip(divs, a))
    for q, r in factor(n):
        den *= block_denominator(q, r)
        diag = [block_entry(q, r, j, j) for j in range(1, r + 2)]
        below = [block_entry(q, r, j, j - 1) for j in range(2, r + 2)]
        above = [block_entry(q, r, j, j + 1) for j in range(1, r + 1)]
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


def dict_class_order(n: int, a) -> int:
    """class_order on dict_apply_lambda_inverse, with phi(gcd(d, n/d)) and
    val_p(d) taken afresh for every entry."""
    nums, den = _integer_vector(n, a)
    divs = divisors_of(n)
    degree = sum(x * euler_phi(math.gcd(d, n // d)) for x, d in zip(nums, divs))
    if degree != 0:
        raise ValueError(f"divisor has degree {Fraction(degree, den)}, expected 0")
    u, den = dict_apply_lambda_inverse(n, nums, den)
    if sum(u) != 0:
        raise ValueError("exponent vector has nonzero weight; no multiple is principal")
    s1 = sum(x * d for x, d in zip(u, divs))
    s2 = sum(x * (n // d) for x, d in zip(u, divs))
    parities = [sum(x * valuation(d, p) for x, d in zip(u, divs)) for p in prime_divisors(n)]
    return _eta_order(den, math.gcd(*u), s1, s2, parities)


def hypothesis_ok_by_presentations(ell: int, datum: EisensteinDatum) -> bool:
    """The classification theorem's hypotheses, trying every presentation
    (m', d_part) of the datum's ideal for ell = 2: odd ell needs ell^2 not
    dividing 4n; ell = 2 needs 4 not dividing n and some m' | M with M/m'
    odd, m' * (sq/D) != 1 and (sf*D)/m' odd > 1."""
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


def normalize_by_quotient(datum: EisensteinDatum, ell: int) -> EisensteinDatum:
    """The datum with every prime q of (sf*D)/m, q = 1 mod ell, absorbed into
    m: the normalization as it read the (m, d_part) encoding."""
    sf, _, _ = parts(datum.n)
    m = datum.m
    for q in prime_divisors(sf * datum.d_part // m):
        if q % ell == 1:
            m *= q
    return EisensteinDatum(datum.n, m, datum.d_part)


def new_candidate_by_quotient(ell: int, datum: EisensteinDatum) -> bool:
    """d_part = 1 and every prime of sf(n)/gcd(m, sf(n)) congruent to -1 mod
    ell: the newness conditions as they read the (m, d_part) encoding."""
    if datum.d_part != 1:
        return False
    sf, _, _ = parts(datum.n)
    return all(q % ell == ell - 1 for q in prime_divisors(sf // math.gcd(datum.m, sf)))
