"""Exact cuspidal-divisor machinery for the modular curves X0(N).

Cusps and degeneracy maps, rational cuspidal divisors and their class
orders, weight-2 Eisenstein q-expansions with residues, and the resulting
classification of rational Eisenstein primes.  Everything is exact, every
rational integers over a denominator (the series of `build_qexp` as 24 E,
the residues of `residue_table` over rad(N)).  The package root names the
paper's objects; every other function is imported from its submodule.

`build_qexp` and `residue_table` are resolved from `eisq` on each access
(PEP 562) and never stored here, so importing the package loads no `eisq`.
"""

from .classifier import rational_eisenstein_primes
from .classlattice import class_order, closed_form_order, r_vector
from .cusps import ConsistencyError, RationalCuspDivisor
from .heckediv import EisensteinDatum, build_c_divisor, epsilon, hecke_delta

__all__ = [
    "EisensteinDatum",
    "epsilon",
    "build_c_divisor",
    "RationalCuspDivisor",
    "hecke_delta",
    "class_order",
    "closed_form_order",
    "r_vector",
    "build_qexp",
    "residue_table",
    "rational_eisenstein_primes",
    "ConsistencyError",
]


def __getattr__(name: str):
    if name in ("build_qexp", "residue_table"):
        from . import eisq

        return getattr(eisq, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
