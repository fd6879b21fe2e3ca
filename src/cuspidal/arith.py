"""Exact integer arithmetic: factorization, multiplicative splits, totients.

Everything here is pure and exact, in plain integers; nothing here imports
`fractions`.  `factor` trial-divides by the primes below _TRIAL_BOUND, so
every level below its square factors by trial division alone, and splits a
larger cofactor with Pollard's rho in Brent's form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter

__all__ = [
    "Record",
    "factor",
    "parts",
    "euler_phi",
    "omega",
    "divisors_of",
    "valuation",
    "is_prime",
    "prime_divisors",
    "primes_upto",
]


class Record:
    """Immutable record over the fields named in a subclass's __slots__.

    Built positionally; a subclass that validates its fields or gives them
    defaults overrides __init__.  Two records are equal when they are of the
    same class with equal fields, hash as the tuple of their fields, and
    print as Name(field=value, ...).
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)
        # The slots' own setters, which the refusing __setattr__ does not reach.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)


# `factor` trial-divides by the primes below this bound only, so every n
# below its square factors by trial division alone.
_TRIAL_BOUND = 1 << 16


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of a positive integer as (p, e) pairs, primes
    ascending.  Trial division by p < _TRIAL_BOUND; a cofactor that keeps a
    prime factor above the bound is split by `_rho`, and `is_prime` decides
    each part (it raises at or above its bound)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    m, p = n, 2
    fs: list[tuple[int, int]] = []
    while p * p <= m and p < _TRIAL_BOUND:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
        p += 1 if p == 2 else 2
    if p * p > m:  # m is 1 or prime
        if m > 1:
            fs.append((m, 1))
        return tuple(fs)
    large: dict[int, int] = {}
    pending = [m]
    while pending:
        x = pending.pop()
        if is_prime(x):
            large[x] = large.get(x, 0) + 1
        else:
            d = _rho(x)
            pending += [d, x // d]
    return (*fs, *sorted(large.items()))


def _rho(m: int) -> int:
    """A proper divisor of an odd composite m: Pollard's rho in Brent's form
    on x -> x^2 + c mod m for c = 1, 2, ..., one gcd per 128 steps."""
    for c in range(1, m):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    prod = prod * (x - y) % m
                g = math.gcd(prod, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % m
                g = math.gcd(x - saved, m)
        if g != m:
            return g
    raise ValueError(f"no divisor of {m} found")  # only for m prime


@lru_cache(maxsize=1024)
def parts(n: int) -> tuple[int, int, int]:
    """Split n into (squarefree part, square support, radical).

    The squarefree part multiplies the primes of valuation exactly 1, the
    square support the primes of valuation >= 2 (each once), and the radical
    every prime divisor; radical = squarefree * square support.  The last
    1024 splits are kept: every datum asks for its level's split.
    """
    factors = factor(n)
    sf = math.prod(p for p, e in factors if e == 1)
    sq = math.prod(p for p, e in factors if e >= 2)
    return sf, sq, sf * sq


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n == 1:  # gcd(d, n/d) at most cusp levels
        return 1
    return math.prod([p ** (e - 1) * (p - 1) for p, e in factor(n)])


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factor(n))


@lru_cache(maxsize=None)
def divisors_of(n: int) -> tuple[int, ...]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n >= 1."""
    if n < 1 or p < 2:
        raise ValueError(f"valuation of {n} at {p} undefined; expected n >= 1, p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple([p for p, _ in factor(n)])


def primes_upto(limit: int) -> tuple[int, ...]:
    """Primes <= limit, ascending."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(primes_upto(43 * 43 - 1))  # what trial division by _BASES decides
_STRONG_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes up to 41, then a strong
    probable-prime test to those bases.  A witness proves n composite; a pass
    proves n prime below _STRONG_BOUND (Sorenson and Webster, 2015), or raises."""
    if n < 43 * 43:
        return n in _SMALL_PRIMES
    for p in _BASES:
        if n % p == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in _BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << k, n) for k in range(s)):
            return False
    if n >= _STRONG_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime at or above {_STRONG_BOUND}")
    return True
