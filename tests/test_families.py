import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdseq.errors import IndexBelowDomain, UnsupportedFamily
from gcdseq.families import (
    MAIN,
    ROWLAND,
    Classification,
    FamilySpec,
    Kind,
    Strategy,
    gcd_partner,
    gcd_partner_residue,
    gcd_via_factorial,
    linear,
    numerator,
    quadratic,
    scan,
    term,
    verify_factorial_replacement,
    verify_strategy_equivalence,
)
from gcdseq.recurrences import b, left_factorial

from expected_terms import LINEAR_PREFIX, MAIN_PREFIX, QUAD_PREFIX, ROWLAND_DIFF_PREFIX


# ---------------------------------------------------------------------------
# FamilySpec
# ---------------------------------------------------------------------------

def test_family_parse_roundtrip():
    for text in ("main", "quad:1", "quad:5", "linear:3", "rowland"):
        assert str(FamilySpec.parse(text)) == text


@pytest.mark.parametrize("bad", ["", "quad", "quad:0", "quad:x", "main:2", "primes"])
def test_family_parse_rejects(bad):
    with pytest.raises(ValueError):
        FamilySpec.parse(bad)


def test_first_index():
    assert MAIN.first_index == 3
    assert quadratic(4).first_index == 3
    assert linear(2).first_index == 3
    assert ROWLAND.first_index == 1


def test_familyspec_validation():
    with pytest.raises(ValueError):
        FamilySpec(Kind.QUADRATIC)
    with pytest.raises(ValueError):
        FamilySpec(Kind.MAIN, 2)


# ---------------------------------------------------------------------------
# numerator / partner
# ---------------------------------------------------------------------------

def test_numerator_values():
    assert numerator(MAIN, 3) == 5
    assert numerator(quadratic(2), 4) == 14
    assert numerator(linear(4), 4) == 16


def test_numerator_below_domain():
    with pytest.raises(IndexBelowDomain):
        numerator(MAIN, 2)


def test_numerator_rowland_unsupported():
    with pytest.raises(UnsupportedFamily):
        numerator(ROWLAND, 5)


def test_gcd_partner_exact_values():
    assert gcd_partner(MAIN, 3) == 1  # b(0) + 3 b(-1)
    assert gcd_partner(MAIN, 8) == 1355  # b(5) + 8 b(4)
    assert gcd_partner(linear(1), 5) == 33  # b(3) + b(2)


@pytest.mark.parametrize(
    "family,n,x,expected",
    [(MAIN, 8, 55, 35), (MAIN, 3, 5, 1), (linear(1), 5, 9, 6)],
)
def test_gcd_partner_residue_examples(family, n, x, expected):
    assert gcd_partner_residue(family, n, x) == expected


def test_residue_matches_exact_partner():
    for family in (MAIN, quadratic(1), quadratic(2), quadratic(3),
                   linear(1), linear(2), linear(4)):
        for n in range(family.first_index, 120):
            x = numerator(family, n)
            assert gcd_partner_residue(family, n, x) == gcd_partner(family, n) % x


# ---------------------------------------------------------------------------
# term
# ---------------------------------------------------------------------------

def test_term_examples():
    r = term(MAIN, 3)
    assert (r.a, r.classification) == (5, Classification.PRIME)
    r = term(MAIN, 8)
    assert (r.x, r.d, r.a) == (55, 5, 11)
    r = term(MAIN, 37)
    assert (r.x, r.d, r.a, r.classification) == (1331, 1331, 1, Classification.ONE)
    assert 11**3 == 1331
    r = term(quadratic(3), 5)
    assert (r.a, r.classification) == (9, Classification.COMPOSITE)
    r = term(linear(4), 4)
    assert (r.a, r.classification) == (4, Classification.COMPOSITE)


def test_term_record_consistency():
    for family in (MAIN, quadratic(2), linear(5)):
        for n in range(family.first_index, 60):
            r = term(family, n)
            assert r.a * r.d == r.x
            assert r.d >= 1 and r.a >= 1
            assert 0 <= r.y_mod_x < r.x
            assert math.gcd(r.x, r.y_mod_x) == r.d


def test_rowland_term_records():
    r = term(ROWLAND, 4)
    assert (r.x, r.d, r.a) == (5, 1, 5)
    assert r.classification is Classification.PRIME
    assert term(ROWLAND, 1).classification is Classification.ONE


def test_term_as_dict():
    d = term(MAIN, 8).as_dict()
    assert d == {
        "family": "main", "n": 8, "x": 55, "y_mod_x": 35,
        "d": 5, "a": 11, "class": "prime",
    }


# ---------------------------------------------------------------------------
# scan against the frozen prefixes
# ---------------------------------------------------------------------------

def test_scan_main_prefix():
    values = [r.a for r in scan(MAIN, 3, 2 + len(MAIN_PREFIX))]
    assert tuple(values) == MAIN_PREFIX


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scan_quadratic_prefixes(k):
    expected = QUAD_PREFIX[k]
    values = [r.a for r in scan(quadratic(k), 3, 2 + len(expected))]
    assert tuple(values) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scan_linear_prefixes(k):
    expected = LINEAR_PREFIX[k]
    values = [r.a for r in scan(linear(k), 3, 2 + len(expected))]
    assert tuple(values) == expected


def test_scan_rowland_prefix():
    values = [r.a for r in scan(ROWLAND, 1, 25)]
    assert tuple(values) == ROWLAND_DIFF_PREFIX


def test_scan_bounds():
    assert [r.n for r in scan(MAIN, 5, 5)] == [5]
    with pytest.raises(IndexBelowDomain):
        list(scan(MAIN, 2, 10))
    with pytest.raises(ValueError):
        list(scan(MAIN, 10, 5))


def test_quadratic_one_reduces_to_main():
    main_values = [r.a for r in scan(MAIN, 3, 2000)]
    quad_values = [r.a for r in scan(quadratic(1), 3, 2000)]
    assert main_values == quad_values


def test_main_trichotomy():
    # every record: full survival, complete cancellation, or partial with a > n
    for r in scan(MAIN, 3, 1500):
        if r.d == 1:
            assert r.a == r.x
        elif r.d == r.x:
            assert r.a == 1
        else:
            assert 1 < r.d < r.x
            assert r.a > r.n


# ---------------------------------------------------------------------------
# factorial gcd route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,x,expected", [(8, 55, 5), (3, 5, 1), (37, 1331, 1331)])
def test_gcd_via_factorial_examples(n, x, expected):
    assert gcd_via_factorial(n, x) == expected


def test_gcd_via_factorial_against_real_factorials():
    # independent route: materialize (n-1)! and take the gcd directly
    fact = 2
    for n in range(3, 300):
        x = numerator(MAIN, n)
        assert gcd_via_factorial(n, x) == math.gcd(x, fact)
        fact *= n


def test_gcd_via_factorial_prime_power_oracle():
    # third route: gcd(x, (n-1)!) from the factorization of x by primes < n
    def legendre(p, m):
        total, q = 0, p
        while q <= m:
            total += m // q
            q *= p
        return total

    for n in range(3, 400):
        x = numerator(MAIN, n)
        expected = 1
        rest = x
        for p in range(2, n):
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                expected *= p ** min(e, legendre(p, n - 1))
        assert gcd_via_factorial(n, x) == expected


def test_partner_left_factorial_identity():
    # 2*partner = x*!t + c*(t+2)*t!, from which the factorial-replacement law follows
    forms = [(MAIN, 3, 1)]  # (family, t = n - shift, c)
    forms += [(quadratic(k), 3, k) for k in range(1, 7)]
    forms += [(linear(k), 2, 1) for k in range(1, 7)]
    checked = 0
    for family, shift, c in forms:
        for n in range(3, 200):
            t = n - shift
            x = numerator(family, n)
            assert 2 * gcd_partner(family, n) == (
                x * left_factorial(t) + c * (t + 2) * math.factorial(t)
            ), (str(family), n)
            checked += 1
    assert checked == 2561


def test_factorial_replacement_range():
    report = verify_factorial_replacement(3, 600)
    assert report.clean
    assert report.checked == 598


# ---------------------------------------------------------------------------
# strategy equivalence
# ---------------------------------------------------------------------------

def test_strategies_identical_small():
    specs = [MAIN, quadratic(2), quadratic(5), linear(1), linear(4)]
    report = verify_strategy_equivalence(specs, 300)
    assert report.clean


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["main", "quad:2", "quad:3", "linear:1", "linear:5"]),
    st.integers(min_value=3, max_value=800),
)
def test_strategies_identical_random(family_text, n):
    family = FamilySpec.parse(family_text)
    assert term(family, n, Strategy.EXACT_BIGINT) == term(family, n, Strategy.MODULAR_FAST)
