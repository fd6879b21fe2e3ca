import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.arith import divisors_of, euler_phi, primes_upto, valuation
from cuspidal.cusps import (
    ConsistencyError,
    Cusp,
    RationalCuspDivisor,
    alpha_image,
    alpha_pullback,
    beta_image,
    beta_pushforward,
    covering_degree,
    cusp_count,
    make_cusp,
    normalize_fraction,
)
from cuspidal.heckediv import hecke_delta
from reference import (
    aggregate,
    beta_pullback,
    chain_multiplicity,
    enumerate_cusps,
    expand,
    p_divisor,
    pullback,
    pushforward,
    VALUATION_MAPS,
)

# Levels with high prime powers, where the beta pushforward multiplicities
# of the interior levels exceed 1.
HIGH_POWER_LEVELS = (2**10, 3**6, 5**5 * 7**2)
HECKE_PRIMES = (2, 3, 5, 7, 11, 13)


def _scan_normalize_fraction(a: int, c: int, n: int) -> Cusp:
    """Reference normalizer: search the cusps of level gcd(c, n) for the one
    equivalent to a/c (s1*c2 = s2*c1 modulo gcd(c1*c2, n), si = ai^-1 mod ci)."""
    if c < 1:
        raise ValueError("denominator must be positive")
    if math.gcd(a, c) != 1:
        raise ValueError(f"{a}/{c} is not in lowest terms")
    d = math.gcd(c, n)
    g = math.gcd(c * d, n)
    s1 = pow(a, -1, c) if c > 1 else 0
    for cand in enumerate_cusps(n):
        if cand.d != d:
            continue
        s2 = pow(cand.x, -1, d) if d > 1 else 0
        if (s1 * d - s2 * c) % g == 0:
            return cand
    raise ConsistencyError(f"no cusp of X0({n}) matches {a}/{c}")


def _scan_beta_image(c: Cusp, p: int) -> Cusp:
    """beta_image with the reference normalizer."""
    n = c.n // p
    i = valuation(c.d, p)
    d0 = c.d // p**i
    if i >= 1:
        return _scan_normalize_fraction(c.x, p ** (i - 1) * d0, n)
    return _scan_normalize_fraction(p * c.x, d0, n)


def _enumerated_beta_push_levels(n: int, p: int) -> dict[int, tuple[int, int]]:
    """Reference pushforward table: per level e | n*p, (f, m) with
    beta_*(P_e) = m * (P_f), read off the images of every cusp of X0(np)."""
    by_level: dict[int, dict[Cusp, int]] = {e: {} for e in divisors_of(n * p)}
    for c in enumerate_cusps(n * p):
        img = _scan_beta_image(c, p)
        by_level[c.d][img] = by_level[c.d].get(img, 0) + 1
    out = {}
    for e, bucket in by_level.items():
        targets = {c.d for c in bucket}
        if len(targets) != 1:
            raise ConsistencyError(f"pushforward of level {e} from X0({n * p}) mixes levels")
        (f,) = targets
        mults = {bucket.get(c, 0) for c in enumerate_cusps(n) if c.d == f}
        if len(mults) != 1:
            raise ConsistencyError(
                f"pushforward of (P_{e}) from X0({n * p}) is not a multiple of (P_{f})"
            )
        out[e] = (f, mults.pop())
    return out


def test_enumerate_prime_level():
    cusps = enumerate_cusps(11)
    assert [(c.d, c.x) for c in cusps] == [(1, 1), (11, 1)]


def test_enumerate_nine():
    cusps = enumerate_cusps(9)
    assert [(c.d, c.x) for c in cusps] == [(1, 1), (3, 1), (3, 2), (9, 1)]


def test_enumerate_four():
    assert len(enumerate_cusps(4)) == 3


@given(st.integers(min_value=1, max_value=300))
def test_count_matches_formula(n):
    cusps = enumerate_cusps(n)
    assert len(cusps) == cusp_count(n)
    assert len(set(cusps)) == len(cusps)
    assert cusp_count(n) == sum(euler_phi(math.gcd(d, n // d)) for d in divisors_of(n))


def test_make_cusp_canonicalizes():
    # class of 5 mod gcd(3, 3) = 3 is 2; smallest coprime representative is 2
    assert make_cusp(9, 3, 5) == make_cusp(9, 3, 2)
    assert make_cusp(9, 3, 5).x == 2
    with pytest.raises(ValueError):
        make_cusp(9, 3, 3)
    with pytest.raises(ValueError):
        make_cusp(9, 2, 1)


def test_normalize_fraction_examples():
    assert normalize_fraction(1, 1, 11) == make_cusp(11, 1, 1)
    with pytest.raises(ValueError):
        normalize_fraction(3, 3, 9)
    assert normalize_fraction(1, 3, 9) == make_cusp(9, 3, 1)
    assert normalize_fraction(5, 3, 9) == make_cusp(9, 3, 2)
    # denominator prime to the level collapses to the zero cusp
    assert normalize_fraction(1, 27, 9).d == 9


def test_p_divisor_degrees():
    assert p_divisor(11, 11).degree() == 1
    assert p_divisor(3, 9).degree() == 2
    for n in (7, 12, 45):
        assert p_divisor(1, n).degree() == 1
    with pytest.raises(ValueError):
        p_divisor(5, 9)


def test_from_dict_rejects_a_level_below_one():
    # Every d divides 0, so without the check {5: 1} would be a divisor of
    # degree 4 on "X0(0)".
    for n, mapping in ((0, {5: 1}), (-6, {3: 1}), (0, {})):
        with pytest.raises(ValueError, match=f"level {n} must be positive"):
            RationalCuspDivisor.from_dict(n, mapping)


def test_alpha_image_examples():
    assert alpha_image(make_cusp(22, 11, 1), 2)[0] == make_cusp(11, 11, 1)
    assert alpha_image(make_cusp(27, 27, 1), 3)[0] == make_cusp(9, 9, 1)
    assert alpha_image(make_cusp(75, 5, 1), 5)[0] == make_cusp(15, 5, 1)


def test_beta_image_examples():
    assert beta_image(make_cusp(27, 3, 1), 3)[0] == make_cusp(9, 1, 1)
    assert beta_image(make_cusp(22, 1, 1), 2)[0] == make_cusp(11, 1, 1)
    assert beta_image(make_cusp(22, 2, 1), 2)[0] == make_cusp(11, 1, 1)


def test_ramification_split_level():
    # r = 0: alpha ramifies at i = 0, beta at i = 1
    assert alpha_image(make_cusp(22, 1, 1), 2)[1] == 2
    assert alpha_image(make_cusp(22, 2, 1), 2)[1] == 1
    assert beta_image(make_cusp(22, 2, 1), 2)[1] == 2
    assert beta_image(make_cusp(22, 1, 1), 2)[1] == 1


def test_ramification_prime_square():
    # r = 2 at N = 9: alpha ramifies for i <= 1, beta for i >= 2
    assert alpha_image(make_cusp(27, 3, 1), 3)[1] == 3
    assert beta_image(make_cusp(27, 27, 1), 3)[1] == 3
    assert alpha_image(make_cusp(27, 9, 1), 3)[1] == 1
    assert beta_image(make_cusp(27, 9, 1), 3)[1] == 3
    assert beta_image(make_cusp(27, 3, 1), 3)[1] == 1


def test_pullback_degrees():
    assert sum(pullback("alpha", {make_cusp(11, 1, 1): 1}, 11, 2).values()) == 3
    assert sum(pullback("alpha", {make_cusp(9, 1, 1): 1}, 9, 3).values()) == 3


def _fiber_sums(n, p):
    deg = covering_degree(n, p)
    for kind, image in (("alpha", alpha_image), ("beta", beta_image)):
        sums = {c: 0 for c in enumerate_cusps(n)}
        for cc in enumerate_cusps(n * p):
            img, e = image(cc, p)
            sums[img] += e
        assert all(v == deg for v in sums.values()), (kind, n, p)


@pytest.mark.parametrize(
    "n,p", [(11, 2), (9, 3), (27, 3), (12, 2), (12, 3), (50, 2), (50, 5), (45, 3), (98, 7)]
)
def test_fiber_degree_sums(n, p):
    _fiber_sums(n, p)


def test_fiber_degree_sums_on_the_whole_table():
    # Every pair that `sweep`'s fiber family can reach: p <= 7 and n p <= 400.
    pairs = [(n, p) for p in (2, 3, 5, 7) for n in range(1, 400 // p + 1)]
    assert len(pairs) == 470
    for n, p in pairs:
        _fiber_sums(n, p)


@given(st.integers(min_value=1, max_value=120), st.sampled_from([2, 3, 5, 7]))
def test_images_are_canonical(n, p):
    for c in enumerate_cusps(n * p)[:12]:
        for img, _ in (alpha_image(c, p), beta_image(c, p)):
            assert img == make_cusp(img.n, img.d, img.x)


def test_fibers_partition_cusps():
    n, p = 12, 2
    seen = []
    for c in enumerate_cusps(n):
        seen.extend(pullback("alpha", {c: 1}, n, p))
    assert sorted(seen, key=lambda c: (c.d, c.x)) == sorted(
        enumerate_cusps(n * p), key=lambda c: (c.d, c.x)
    )


def test_expansion_of_p_divisor():
    div = expand(p_divisor(3, 9))
    assert sum(div.values()) == euler_phi(3)
    assert all(v == 1 for v in div.values())
    assert {c.d for c in div} == {3}


def test_rational_level_ops_match_cusp_level():
    for n, p in ((11, 2), (9, 3), (12, 2), (45, 3)):
        for d in divisors_of(n):
            div = p_divisor(d, n)
            fast = alpha_pullback(div, p)
            assert fast == aggregate(n * p, pullback("alpha", expand(div), n, p))
            fast_b = beta_pullback(div, p)
            assert fast_b == aggregate(n * p, pullback("beta", expand(div), n, p))
            pushed = beta_pushforward(fast, p)
            assert pushed == aggregate(n, pushforward("beta", expand(fast), p))


def test_pushforward_composition_is_hecke_like():
    # beta_* after alpha^* of (P_1) at level 11, p = 2: degree scales by p + 1
    div = p_divisor(1, 11)
    up = alpha_pullback(div, 2)
    down = beta_pushforward(up, 2)
    assert down.degree() == covering_degree(11, 2) * div.degree()


def _error_text(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _fractions(draw):
    """(a, c, n) with c below, above and at multiples of n, a of either sign."""
    n = draw(st.integers(min_value=1, max_value=120))
    c = draw(
        st.one_of(
            st.integers(min_value=-2, max_value=3 * n),
            st.integers(min_value=1, max_value=4).map(lambda k: k * n),
            st.sampled_from(divisors_of(n)),
        )
    )
    bound = 3 * max(c, 1)
    a = draw(st.integers(min_value=-bound, max_value=bound))
    return a, c, n


@settings(max_examples=400)
@given(_fractions())
def test_normalize_fraction_matches_scan(frac):
    a, c, n = frac
    got = _error_text(normalize_fraction, a, c, n)
    assert got == _error_text(_scan_normalize_fraction, a, c, n)
    if not isinstance(got, str):
        assert got == make_cusp(n, got.d, got.x)


@pytest.mark.parametrize(
    "a,c,n,text",
    [
        (1, 0, 9, "denominator must be positive"),
        (1, -3, 9, "denominator must be positive"),
        (3, 3, 9, "3/3 is not in lowest terms"),
        (-4, 6, 9, "-4/6 is not in lowest terms"),
        (0, 5, 9, "0/5 is not in lowest terms"),
    ],
)
def test_normalize_fraction_error_texts(a, c, n, text):
    with pytest.raises(ValueError) as exc:
        normalize_fraction(a, c, n)
    assert str(exc.value) == text
    assert _error_text(_scan_normalize_fraction, a, c, n) == f"ValueError: {text}"


def test_normalize_fraction_high_prime_powers():
    # c = (a divisor of n) * k, so that c // gcd(c, n) runs over units and non-units
    for n in HIGH_POWER_LEVELS:
        for g in divisors_of(n)[:: max(1, len(divisors_of(n)) // 12)]:
            for c in (g, 2 * g, 3 * g, 13 * g, g * (n + 1)):
                for a in (-7 * c - 1, -1, 1, c + 1, 5 * c - 1):
                    if math.gcd(a, c) == 1:
                        assert normalize_fraction(a, c, n) == _scan_normalize_fraction(a, c, n)


@pytest.mark.parametrize("square", [False, True])
def test_chain_maps_match_cusp_counts_up_to_p47_r11(square):
    # Every level p^i e of X0(p^(r+1) d0), e | d0, with d0 = 1 or the square
    # of a prime s != p, whose level e = s carries phi(s) > 1 cusps per point
    # of the p-chain.
    for p in primes_upto(47):
        d0 = (25 if p == 3 else 9) if square else 1
        for r in range(12):
            n = p**r * d0
            for e in divisors_of(d0):
                for i in range(r + 2):
                    pushed = beta_pushforward(p_divisor(p**i * e, n * p), p)
                    if i == 0:
                        assert pushed == p_divisor(e, n), (p, r, e)
                    else:
                        m = chain_multiplicity(p, r, i)
                        assert pushed == m * p_divisor(p ** (i - 1) * e, n), (p, r, i, e)
                for j in range(r + 1):
                    pulled = alpha_pullback(p_divisor(p**j * e, n), p)
                    lifts = {p**j * e: p if 2 * j <= r else 1}
                    if j == r:
                        lifts[p ** (r + 1) * e] = 1
                    assert pulled == RationalCuspDivisor.from_dict(n * p, lifts), (p, r, j, e)


def _push_table(n, p):
    """beta_*(P_e) = m * (P_f) per level e of X0(np), read from the production pushforward."""
    out = {}
    for e in divisors_of(n * p):
        ((f, m),) = beta_pushforward(p_divisor(e, n * p), p).coeffs
        out[e] = (f, m)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.sampled_from(HECKE_PRIMES))
def test_beta_push_levels_match_enumeration(n, p):
    assert _push_table(n, p) == _enumerated_beta_push_levels(n, p)


@pytest.mark.parametrize("n", HIGH_POWER_LEVELS)
@pytest.mark.parametrize("p", HECKE_PRIMES)
def test_beta_push_levels_high_prime_powers(n, p):
    # p divides n for 2, 3, 5, 7 at some of these levels and not at the rest
    table = _push_table(n, p)
    assert table == _enumerated_beta_push_levels(n, p)
    if n % p == 0:
        assert any(m > 1 for _, m in table.values())


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(HIGH_POWER_LEVELS + (2**4 * 3**2 * 5, 7**3 * 11)),
    st.sampled_from(HECKE_PRIMES),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_beta_pushforward_matches_cusp_images(n, p, values, rnd):
    # push a random multi-level divisor of X0(np) down through every cusp image
    levels = divisors_of(n * p)
    div = RationalCuspDivisor.from_dict(n * p, {rnd.choice(levels): v for v in values})
    slow: dict[Cusp, int] = {}
    for c, v in expand(div).items():
        img = _scan_beta_image(c, p)
        slow[img] = slow.get(img, 0) + v
    assert beta_pushforward(div, p) == aggregate(n, slow)


@st.composite
def _deep_divisors(draw):
    """(div, p): a random multi-level divisor of X0(n), n a high-power level
    times p^2 unless p^2 already divides it, with at least one level d of
    val_p(d) >= 2, where the alpha ramification and the beta multiplicities
    of the p-chain are not those of val_p(d) <= 1."""
    p = draw(st.sampled_from(HECKE_PRIMES))
    n = draw(st.sampled_from(HIGH_POWER_LEVELS))
    if n % (p * p):
        n *= p * p
    levels = divisors_of(n)
    terms = st.tuples(st.sampled_from(levels), st.integers(min_value=-9, max_value=9))
    coeffs = dict(draw(st.lists(terms, max_size=5)))
    deep = draw(st.sampled_from([d for d in levels if valuation(d, p) >= 2]))
    coeffs[deep] = draw(st.integers(min_value=1, max_value=9))
    return RationalCuspDivisor.from_dict(n, coeffs), p


@settings(max_examples=40, deadline=None)
@given(_deep_divisors())
def test_alpha_pullback_matches_cusp_images_at_deep_levels(case):
    div, p = case
    assert alpha_pullback(div, p) == aggregate(div.n * p, pullback("alpha", expand(div), div.n, p))


@settings(max_examples=40, deadline=None)
@given(_deep_divisors())
def test_hecke_delta_matches_naive_composition_at_deep_levels(case):
    div, p = case
    pulled = pullback("alpha", expand(div), div.n, p)
    assert hecke_delta(div, p) == aggregate(div.n, pushforward("beta", pulled, p))


@pytest.mark.parametrize("p", HECKE_PRIMES)
def test_closed_cusp_maps_match_the_valuation_oracles(p):
    # Every cusp of X0(Np) for Np <= 600.
    for top in range(p, 601, p):
        for c in enumerate_cusps(top):
            for closed, oracle in VALUATION_MAPS.items():
                assert closed(c, p) == oracle(c, p), (closed.__name__, c, p)


@pytest.mark.parametrize(
    "c, p",
    [(make_cusp(12, 4, 1), q) for q in (-3, 0, 1, 4, 6, 9, 15)]
    + [(make_cusp(12, 4, 1), 5), (make_cusp(35, 5, 1), 2), (make_cusp(1, 1, 1), 3)],
)
def test_closed_cusp_maps_refuse_as_the_valuation_oracles(c, p):
    # A composite p, then a level that no covering along p reaches.
    for closed, oracle in VALUATION_MAPS.items():
        text = _error_text(closed, c, p)
        assert text == _error_text(oracle, c, p)
        assert text.startswith("ValueError: ")


def _is_record(div: RationalCuspDivisor) -> bool:
    """Levels strictly ascending and every coefficient nonzero, as from_dict builds."""
    levels = [d for d, _ in div.coeffs]
    return levels == sorted(set(levels)) and all(v for _, v in div.coeffs)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    p=st.sampled_from(HECKE_PRIMES),
    k=st.integers(min_value=-3, max_value=3),
    data=st.data(),
)
def test_direct_record_builds_match_from_dict(n, p, k, data):
    top = n * p
    levels = st.sampled_from(divisors_of(top))
    coeffs = data.draw(st.dictionaries(levels, st.integers(min_value=-5, max_value=5)))
    # Let one pair of levels cancel under the pushforward: p*f (i = 1) and f
    # prime to p both land on f.
    r = valuation(n, p)
    f = data.draw(st.sampled_from([d for d in divisors_of(n) if d % p]))
    a = data.draw(st.integers(min_value=-3, max_value=3))
    coeffs.update({f * p: a, f: -chain_multiplicity(p, r, 1) * a})
    upper = RationalCuspDivisor.from_dict(top, coeffs)

    down = beta_pushforward(upper, p)
    mapping: dict[int, int] = {}
    for e, v in upper.coeffs:
        i = valuation(e, p)
        target, m = (e // p, chain_multiplicity(p, r, i)) if i else (e, 1)
        mapping[target] = mapping.get(target, 0) + m * v
    assert down == RationalCuspDivisor.from_dict(n, mapping) and _is_record(down)
    assert f not in dict(down.coeffs)
    assert down == aggregate(n, pushforward("beta", expand(upper), p))

    lower = RationalCuspDivisor.from_dict(n, {d: v for d, v in coeffs.items() if n % d == 0})
    up = alpha_pullback(lower, p)
    assert up == aggregate(top, pullback("alpha", expand(lower), n, p)) and _is_record(up)

    for div in (lower, upper, down, up):
        scaled = k * div
        assert scaled == RationalCuspDivisor.from_dict(div.n, {d: k * v for d, v in div.coeffs})
        assert _is_record(scaled) and 0 * div == RationalCuspDivisor.from_dict(div.n, {})
        assert div - div == RationalCuspDivisor.from_dict(div.n, {})
        assert div + scaled == RationalCuspDivisor.from_dict(
            div.n, {d: (1 + k) * v for d, v in div.coeffs}
        )


def test_count_is_the_divisor_sum_at_every_level_to_5000():
    for n in range(1, 5001):
        assert cusp_count(n) == sum(euler_phi(math.gcd(d, n // d)) for d in divisors_of(n)), n
