"""Exact integer arithmetic: factorization, multiplicative splits, totients.

Everything here is pure and exact (plain integers and fractions.Fraction).
Levels in this package are desk-scale, so trial division is plenty.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    "numerator_of",
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

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of a positive integer as (p, e) pairs, primes
    ascending, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    m, p = n, 2
    fs: list[tuple[int, int]] = []
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        fs.append((m, 1))
    return tuple(fs)


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
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factor(n))


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


def numerator_of(r: Fraction | int) -> int:
    """Positive numerator of r in lowest terms (the order of the associated cyclic group)."""
    return abs(Fraction(r).numerator)


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == ((n, 1),)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factor(n))


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
