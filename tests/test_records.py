"""The immutable records against the frozen dataclasses they replace.

The oracles below are the dataclass definitions the package used before its
records moved onto arith.Record: their fields, their validation and Cusp's
own repr.  Methods that do not touch record semantics are left out.  Every
record must match its oracle on equality, hash and repr bytes, never equal a
plain tuple, refuse assignment, and raise the same validation errors.
"""

import copy
import pickle
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import arith, classifier, cusps, eisq, heckediv
from cuspidal.arith import parts


# The oracles live at module level: a dataclass repr prints its __qualname__.


@dataclass(frozen=True)
class Factored:
    value: int
    factors: tuple


@dataclass(frozen=True)
class Cusp:
    n: int
    d: int
    x: int

    def __repr__(self) -> str:
        return f"Cusp({self.x}:{self.d} @ {self.n})"


@dataclass(frozen=True)
class CuspDivisor:
    n: int
    coeffs: tuple


@dataclass(frozen=True)
class RationalCuspDivisor:
    n: int
    coeffs: tuple


@dataclass(frozen=True)
class EisensteinDatum:
    n: int
    m: int
    d_part: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("level must be positive")
        sf, sq, _ = parts(self.n)
        if self.d_part < 1 or sq % self.d_part:
            raise ValueError(f"D={self.d_part} must divide the square support {sq} of {self.n}")
        if self.m < 1 or (sf * self.d_part) % self.m:
            raise ValueError(f"M={self.m} must divide {sf * self.d_part}")
        if self.m * (sq // self.d_part) == 1:
            raise ValueError("degenerate datum: M = 1 and D is the whole square support")


@dataclass(frozen=True)
class QExpansion:
    n: int
    prec: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.prec < 0 or len(self.coeffs) != self.prec + 1:
            raise ValueError("coefficient count must equal prec + 1")


@dataclass(frozen=True)
class EigenFact:
    prime: int
    on_level: bool
    eigenvalue: int
    checked_prec: int
    first_bad: object


@dataclass(frozen=True)
class EigenReport:
    datum: object
    prec: int
    checks: tuple


@dataclass(frozen=True)
class ResidueTable:
    n: int
    res: tuple


@dataclass(frozen=True)
class EisensteinPrime:
    ell: int
    datum: object
    index_n: int
    hypothesis_ok: bool
    new_candidate: bool


# Records without validation: any hashable field values build them.
FREE = [
    (Factored, arith.Factored),
    (Cusp, cusps.Cusp),
    (CuspDivisor, cusps.CuspDivisor),
    (RationalCuspDivisor, cusps.RationalCuspDivisor),
    (EigenFact, eisq.EigenFact),
    (EigenReport, eisq.EigenReport),
    (ResidueTable, eisq.ResidueTable),
    (EisensteinPrime, classifier.EisensteinPrime),
]

_atoms = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=6),
    st.sampled_from(classifier.enumerate_data(12)),
)
_values = st.one_of(_atoms, st.tuples(_atoms, _atoms), st.tuples(st.tuples(_atoms, _atoms)))


def _fields(record_type) -> tuple[str, ...]:
    return record_type.__slots__


def _agree(old, new) -> None:
    """One oracle instance and one record built from the same fields."""
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert new == new and not new != new
    values = tuple(getattr(new, f) for f in _fields(type(new)))
    assert values == tuple(getattr(old, f) for f in _fields(type(new)))
    assert new != values and not new == values
    assert new.__eq__(values) is NotImplemented
    for name in (*_fields(type(new)), "extra"):
        with pytest.raises(AttributeError):
            setattr(new, name, 0)
        with pytest.raises(AttributeError):
            delattr(new, name)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pair=st.sampled_from(FREE))
def test_free_records_match_their_dataclass(data, pair):
    old_type, new_type = pair
    k = len(_fields(new_type))
    a = data.draw(st.tuples(*[_values] * k))
    b = data.draw(st.one_of(st.just(copy.deepcopy(a)), st.tuples(*[_values] * k)))
    _agree(old_type(*a), new_type(*a))
    assert (new_type(*a) == new_type(*b)) == (old_type(*a) == old_type(*b))
    assert (new_type(*a) != new_type(*b)) == (old_type(*a) != old_type(*b))


def _both(old_type, new_type, *args):
    """The oracle and the record on the same arguments: both built, or both
    refused with the same ValueError text."""
    try:
        old = old_type(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            new_type(*args)
        assert str(caught.value) == str(exc)
        return None
    new = new_type(*args)
    _agree(old, new)
    return old, new


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=-2, max_value=400),
    m=st.integers(min_value=-2, max_value=60),
    d=st.one_of(st.none(), st.integers(min_value=-2, max_value=30)),
)
def test_eisenstein_datum_matches_its_dataclass(n, m, d):
    args = (n, m) if d is None else (n, m, d)
    built = _both(EisensteinDatum, heckediv.EisensteinDatum, *args)
    if built is not None and d in (None, 1):
        assert heckediv.EisensteinDatum(n, m) == heckediv.EisensteinDatum(n, m, 1)
        assert repr(heckediv.EisensteinDatum(n, m)) == f"EisensteinDatum(n={n}, m={m}, d_part=1)"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    prec=st.integers(min_value=-2, max_value=6),
    coeffs=st.lists(st.one_of(st.integers(), st.fractions(max_denominator=24)), max_size=8),
)
def test_qexpansion_matches_its_dataclass(n, prec, coeffs):
    _both(QExpansion, eisq.QExpansion, n, prec, tuple(coeffs))


def test_validation_texts():
    with pytest.raises(ValueError, match="^level must be positive$"):
        heckediv.EisensteinDatum(0, 1)
    with pytest.raises(ValueError, match="^D=3 must divide the square support 2 of 12$"):
        heckediv.EisensteinDatum(12, 1, 3)
    with pytest.raises(ValueError, match="^M=5 must divide 3$"):
        heckediv.EisensteinDatum(12, 5)
    with pytest.raises(ValueError, match="^degenerate datum: M = 1 and D is the whole"):
        heckediv.EisensteinDatum(4, 1, 2)
    with pytest.raises(ValueError, match="^coefficient count must equal prec \\+ 1$"):
        eisq.QExpansion(5, 2, (1, 2))


def test_records_of_different_classes_never_meet():
    assert cusps.CuspDivisor(6, ()) != cusps.RationalCuspDivisor(6, ())
    assert eisq.ResidueTable(6, ()) != cusps.RationalCuspDivisor(6, ())
    assert cusps.Cusp(6, 2, 1) != (6, 2, 1)
    assert heckediv.EisensteinDatum(12, 3) != (12, 3, 1)


def test_wrong_field_count_is_a_type_error():
    with pytest.raises(TypeError):
        cusps.RationalCuspDivisor(6)
    with pytest.raises(TypeError):
        cusps.Cusp(6, 2)
    with pytest.raises(TypeError):
        heckediv.EisensteinDatum(12, 3, 1, 1)


@pytest.mark.parametrize(
    "record",
    [
        cusps.Cusp(60, 6, 5),
        heckediv.EisensteinDatum(60, 3, 2),
        cusps.RationalCuspDivisor(6, ((1, 1), (6, -1))),
        eisq.QExpansion(11, 1, (Fraction(5, 12), 1)),
    ],
)
def test_records_copy_and_pickle(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record) and type(clone) is type(record)


def test_records_are_cache_and_dict_keys():
    builders = [
        lambda: cusps.Cusp(12, 2, 1),
        lambda: heckediv.EisensteinDatum(12, 3),
        lambda: cusps.RationalCuspDivisor.from_dict(12, {1: 1, 2: -1}),
    ]
    calls = []

    @lru_cache(maxsize=None)
    def cached(key):
        calls.append(key)
        return len(calls)

    table = {}
    for i, build in enumerate(builders):
        first, second = build(), build()
        assert first is not second
        assert cached(first) == cached(second) == i + 1
        table[first] = i
        assert table[second] == i
    assert cached.cache_info().hits == len(builders)
    assert cached.cache_info().currsize == len(builders)
    assert set(table) == {build() for build in builders}


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site .pth files from preloading modules, so the check sees
    # only what importing the command line itself pulls in.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import cuspidal.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
