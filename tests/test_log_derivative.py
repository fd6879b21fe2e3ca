"""The datum's series is the logarithmic derivative of its eta quotient.

Since q d/dq log eta(dz) = (d/24) E_2(dz), with E_2 = 1 - 24 sum sigma(n) q^n,
the weight-2 series of a datum is -(M / rad N) times the logarithmic
derivative of the eta quotient prod eta(dz)^(e_d), where e is the tensor of
the local eta entries of `heckediv._local`:

    build_qexp(datum) = -(M / (24 rad N)) sum_{d | N} d e_d E_2(dz).

So the Euler factors of `eisq` and the local table of `heckediv` meet in
one identity.  Its converse reads the coordinates y of the series in the
basis (d/24) E_2(dz) off the coefficients a_d, d | N, alone, by solving
a_{d'} = -sum_{d | d'} y_d d sigma(d'/d) upward over d' | N, and finds
them proportional to `r_vector`, with the same zeros.  A wrong eta entry
or a wrong Euler step breaks both.
"""

from fractions import Fraction

from cuspidal import eisq, heckediv
from cuspidal.arith import divisors_of, parts
from cuspidal.classifier import enumerate_data
from cuspidal.classlattice import r_vector
from cuspidal.eisq import build_qexp
from cuspidal.heckediv import over_primes
from reference import fraction_qexp

PREC = 120
DATA = tuple(datum for n in range(1, 200) for datum in enumerate_data(n))
SIGMA = [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(200)]


def _log_derivative(datum, prec):
    """-M sum_{d | N} d e_d E_2(dz) to precision prec, in integers: the
    identity's right side times 24 rad N."""
    e, _ = over_primes(datum, 1)
    coeffs = [sum(d * x for d, x in e.items())] + [0] * prec
    for d, x in e.items():
        for j in range(1, prec // d + 1):
            coeffs[d * j] -= 24 * d * x * SIGMA[j]
    return [-datum.m * c for c in coeffs]


def _coordinates(f):
    """y over the divisors d of the level with a_{d'} = -sum_{d | d'} y_d d
    sigma(d'/d) at every divisor d', the coefficients of sum y_d (d/24) E_2(dz)."""
    a, y = fraction_qexp(f), {}
    for top in divisors_of(f.n):
        rest = sum(y[d] * d * SIGMA[top // d] for d in y if top % d == 0)
        y[top] = Fraction(-(a[top] + rest), top)
    return list(y.values())


def _proportional(y, u):
    if [x == 0 for x in y] != [x == 0 for x in u]:
        return False
    return len({a / b for a, b in zip(y, u) if b}) == 1


def _failures(data):
    """The data whose series breaks the identity, and those whose
    coordinates are not proportional to r_vector.  The converse reads a_N,
    so the series go to precision N where N exceeds PREC."""
    identity, converse = [], []
    for datum in data:
        f = build_qexp(datum, max(PREC, datum.n))
        if [24 * parts(datum.n)[2] * a for a in fraction_qexp(f)] != _log_derivative(datum, f.prec):
            identity.append(datum)
        if not _proportional(_coordinates(f), r_vector(datum)[0]):
            converse.append(datum)
    return identity, converse


def test_series_is_the_log_derivative_of_the_eta_quotient():
    assert len(DATA) == 786
    assert _failures(DATA) == ([], [])


def test_a_wrong_eta_entry_breaks_the_identity_and_its_converse(monkeypatch):
    real = heckediv._local

    def entry_off(q, r, eps):
        c, entries, scale = real(q, r, eps)
        return c, [entries[0] + 1, *entries[1:]], scale

    monkeypatch.setattr(heckediv, "_local", entry_off)
    assert _failures(DATA) == (list(DATA), list(DATA))


def test_a_wrong_euler_step_breaks_the_identity_and_its_converse(monkeypatch):
    # Every datum fails but the 60 whose series is the base series alone,
    # which takes no Euler step.
    real = eisq._euler_step
    monkeypatch.setattr(eisq, "_euler_step", lambda coeffs, q, k: real(coeffs, q, k + 1))
    identity, converse = _failures(DATA)
    assert identity == converse
    assert len(identity) == 726
