import math
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdseq import _backend, families, primality, recurrences
from gcdseq.errors import IndexBelowDomain, UnsupportedFamily
from gcdseq.families import (
    MAIN,
    ROWLAND,
    Classification,
    FamilySpec,
    Kind,
    Strategy,
    TermRecord,
    gcd_partner,
    gcd_via_factorial,
    linear,
    numerator,
    quadratic,
    scan,
    term,
    verify_factorial_replacement,
    verify_strategy_equivalence,
)
from gcdseq.primality import factor
from gcdseq.recurrences import b, left_factorial, rowland_diff

from expected_terms import LINEAR_PREFIX, MAIN_PREFIX, QUAD_PREFIX, ROWLAND_DIFF_PREFIX
from reference_chain import second_order_chain


# ---------------------------------------------------------------------------
# FamilySpec
# ---------------------------------------------------------------------------

def test_family_parse_roundtrip():
    for text in ("main", "quad:1", "quad:5", "linear:3", "rowland"):
        assert str(FamilySpec.parse(text)) == text


def test_equal_specs_hash_equal():
    # Kind hashes by identity, as its members compare; equal specs, however
    # built, must still key one dict entry and one _form cache entry
    pairs = [(MAIN, FamilySpec.parse("main")), (MAIN, FamilySpec(Kind.MAIN)),
             (quadratic(3), FamilySpec.parse("quad:3")),
             (linear(2**70 + 5), FamilySpec.parse(" linear:1180591620717411303429 ")),
             (ROWLAND, FamilySpec.parse("rowland"))]
    for built, parsed in pairs:
        assert built == parsed and hash(built) == hash(parsed)
        assert {built: 1}[parsed] == 1
    assert hash(Kind.MAIN) == hash(Kind("main"))
    assert families._form(FamilySpec.parse("quad:3")) is families._form(quadratic(3))


def test_every_enum_hashes_by_identity_and_keeps_its_values():
    import enum

    from gcdseq import cli, contfrac

    enums = {cls for module in (families, primality, contfrac)
             for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, enum.Enum)
             and cls.__module__.startswith("gcdseq.")}
    assert {cls.__name__ for cls in enums} == {
        "Kind", "Scheme", "Strategy", "Classification", "Verdict", "Method"}
    for cls in enums:
        assert cls.__hash__ is object.__hash__, cls
        for member in cls:
            assert cls(member.value) is member
            assert member._value_ == member.value
            assert {member: cls.__name__}[cls(member.value)] == cls.__name__
            assert cli._jsonable(member) == member.value
    assert [m.value for m in Classification] == ["one", "prime", "composite"]
    assert [m.value for m in primality.Verdict] == [
        "one", "prime", "composite", "probable_prime"]
    assert [m.value for m in primality.Method] == [
        "trial_division", "deterministic_mr64", "strong_probable"]
    assert [m.value for m in Strategy] == ["exact", "modular"]
    assert [str(f) for f in (MAIN, quadratic(2), linear(3), ROWLAND)] == [
        "main", "quad:2", "linear:3", "rowland"]
    assert term(MAIN, 8).as_dict()["class"] == "prime"
    assert term(MAIN, 3, Strategy.EXACT_BIGINT).as_dict() == {
        "family": "main", "n": 3, "x": 5, "y_mod_x": 1, "d": 1, "a": 5, "class": "prime"}
    assert [term(MAIN, 37).as_dict()["class"], term(quadratic(3), 5).as_dict()["class"]] == [
        "one", "composite"]
    assert cli._jsonable(primality.is_prime(2**64 + 13)) == {
        "value": 2**64 + 13, "verdict": "probable_prime", "method": "strong_probable"}
    assert cli._jsonable(primality.is_prime(1)) == {
        "value": 1, "verdict": "one", "method": "trial_division"}
    assert cli._jsonable(contfrac.cf_spec(contfrac.Scheme.T2, 3, 5))["scheme"] == "t2"


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
        FamilySpec(Kind.QUADRATIC, 0)
    with pytest.raises(ValueError):
        FamilySpec(Kind.MAIN, 2)


def test_records_are_immutable():
    rec = term(MAIN, 8)
    for record, field in ((rec, "a"), (rec, "classification"), (MAIN, "k"),
                          (quadratic(2), "kind")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        MAIN.extra = 1  # no instance dict either
    assert rec == term(MAIN, 8) and MAIN == FamilySpec(Kind.MAIN)


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


def _b_by_recurrence(t):
    """(b(t), b(t-1)) from b(-1) = 0, b(0) = 1, with no cache."""
    prev, cur = 0, 1
    for j in range(1, t + 1):
        prev, cur = cur, (j + 2) * (cur - prev)
    return cur, prev


@pytest.mark.parametrize("text", ["main", "quad:1", "quad:3", "linear:1", "linear:4"])
@pytest.mark.parametrize("n", [3, 64, 65])
def test_gcd_partner_reads_held_b_or_grows_the_cache(text, n):
    # the partner forms of the module docstring, on b from the recurrence
    kind, _, k = text.partition(":")
    k = int(k or 1)
    t, c, e = (n - 2, 1, k) if kind == "linear" else (n - 3, k, n)
    bt, bt1 = _b_by_recurrence(t)
    expected = c * bt + e * bt1
    family = FamilySpec.parse(text)
    b(t)  # held: read from the cache's list, which does not grow
    with mock.patch.object(recurrences._b_cache, "_grow", side_effect=AssertionError("grew")):
        assert gcd_partner(family, n) == expected
    # beyond the end of a cache that holds b(-1) and b(0) only
    fresh = recurrences._RecurrenceCache(-1, (0, 1), recurrences._b_cache._step)
    with (mock.patch.object(recurrences, "_b_cache", fresh),
          mock.patch.object(fresh, "_grow", wraps=fresh._grow) as grow):
        assert gcd_partner(family, n) == expected
    assert fresh.high_water == t
    assert grow.called == (t > 0)


def test_gcd_partner_domain():
    for n in (1, 2, 3, 64):
        with pytest.raises(UnsupportedFamily):
            gcd_partner(ROWLAND, n)
    with pytest.raises(IndexBelowDomain):
        gcd_partner(ROWLAND, 0)
    for family in (MAIN, quadratic(2), linear(3)):
        for n in (2, 0, -5):
            with pytest.raises(IndexBelowDomain):
                gcd_partner(family, n)


@pytest.mark.parametrize(
    "family,n,x,expected",
    [(MAIN, 8, 55, 35), (MAIN, 3, 5, 1), (linear(1), 5, 9, 6)],
)
def test_gcd_partner_residue_examples(family, n, x, expected):
    # the table route (term) and the walk (scan from the first index)
    assert numerator(family, n) == x
    assert term(family, n).y_mod_x == expected
    assert list(scan(family, 3, n))[-1].y_mod_x == expected


def test_residue_matches_exact_partner():
    for family in (MAIN, quadratic(1), quadratic(2), quadratic(3),
                   linear(1), linear(2), linear(4)):
        walked = scan(family, family.first_index, 119)
        for n, rec in zip(range(family.first_index, 120), walked, strict=True):
            exact = gcd_partner(family, n) % numerator(family, n)
            assert term(family, n).y_mod_x == rec.y_mod_x == exact, (str(family), n)


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


def test_rowland_scan_from_a_mid_start_past_the_cache():
    r, diffs = 7, {}  # r(1) = 7 and r(n) = r(n-1) + gcd(n, r(n-1)), without the cache
    for n in range(2, 92):
        step = math.gcd(n, r)
        diffs[n - 1] = step
        r += step
    fresh = recurrences._RecurrenceCache(1, (7,), recurrences._rowland_cache._step)
    with mock.patch.object(recurrences, "_rowland_cache", fresh):
        scanned = list(scan(ROWLAND, 40, 90))  # the cache holds r(1) alone
        assert fresh.high_water == 91
        assert scanned == [term(ROWLAND, n) for n in range(40, 91)]
        assert [rec.a for rec in scanned] == [rowland_diff(n) for n in range(40, 91)]
    assert [rec.a for rec in scanned] == [diffs[n] for n in range(40, 91)]
    assert [rec.n for rec in scanned] == list(range(40, 91))


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
    # across the end of the (64*j)! table at 4096 and into the first strides
    for n in range(4090, 4171):
        x = numerator(MAIN, n)
        assert gcd_via_factorial(n, x) == math.gcd(x, math.factorial(n - 1)), n


def legendre(t, p):
    """v_p(t!) = sum of t // p^i over i >= 1."""
    v, q = 0, t
    while q:
        q //= p
        v += q
    return v


def test_gcd_via_factorial_prime_power_oracle():
    # third route: gcd(x, (n-1)!) from the factorization of x by primes < n
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
                expected *= p ** min(e, legendre(n - 1, p))
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


# ---------------------------------------------------------------------------
# single terms: one _backend.factorial_mod(t, 2x) each, which reads the table
# below t = 4096 and factors 2x above it, against the chain and the exact route
# ---------------------------------------------------------------------------

ROUTE_FAMILIES = (["main"] + [f"quad:{k}" for k in range(1, 7)]
                  + [f"linear:{k}" for k in range(1, 7)])


def chain_term(family, n):
    """The record of term n with the partner from the paper's second-order
    recurrence mod x, which shares no code with the walk or the factor route."""
    x, t, c, e = families._definition(family, n)
    b_prev, b_cur = second_order_chain(t, x)
    return families._record(family, n, x, (c * b_cur + e * b_prev) % x)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ROUTE_FAMILIES), st.integers(min_value=3, max_value=2 * 10**5),
       st.integers(min_value=3, max_value=1999))
def test_factor_route_matches_chain_and_exact(family_text, n, n_exact):
    # exact b is cached up to its index, so the exact route stays below 2000
    family = FamilySpec.parse(family_text)
    assert term(family, n) == chain_term(family, n)
    assert term(family, n_exact) == term(family, n_exact, Strategy.EXACT_BIGINT)


def factor_route_term(family, n):
    """The record of term n with t! mod 2x from the factor route at any
    t >= 1: ``factorial_mod``'s table limit is lowered to 1 for the call."""
    with mock.patch.object(_backend, "_TABLE_LIMIT", 1):
        return term(family, n)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ROUTE_FAMILIES), st.integers(min_value=4, max_value=1999),
       st.integers(min_value=4090, max_value=4100))
def test_factor_route_helper_matches_exact_and_chain(family_text, n_exact, t):
    # term() factors only at t >= 4096, so the factor route is compared here on
    # its own: with the exact route at t >= 1, and with the chain across the
    # limit
    family = FamilySpec.parse(family_text)
    assert factor_route_term(family, n_exact) == term(family, n_exact, Strategy.EXACT_BIGINT)
    n = t + family.first_index - families._definition(family, family.first_index)[1]
    assert factor_route_term(family, n) == chain_term(family, n) == term(family, n)
    # x >= 2**64 below the limit: term() reads the table without factoring
    big = quadratic(2**70 + 5)
    assert term(big, n_exact) == chain_term(big, n_exact)


def factorial_calls(family, n, route=term):
    """The record of route(family, n), the (m, modulus) of each
    ``factorial_mod`` call and of each stride run it makes."""
    calls, strided = [], []

    def spy(log, real):
        def call(m, x):
            log.append((m, x))
            return real(m, x)
        return call

    with (mock.patch.object(_backend, "factorial_mod", spy(calls, _backend.factorial_mod)),
          mock.patch.object(_backend, "_strided_factorial_mod",
                            spy(strided, _backend._strided_factorial_mod))):
        rec = route(family, n)
    return rec, calls, strided


def refuse(*args):
    raise AssertionError("took a route it must not take")


@pytest.mark.parametrize("text", ROUTE_FAMILIES)
def test_term_reads_the_table_below_its_limit(text):
    # 2 <= t < 4096: one factorial_mod(t, 2x), which reads the table in one
    # stride run (t, 2x), and no factoring
    family = FamilySpec.parse(text)
    shift = family.first_index - families._definition(family, family.first_index)[1]
    for t in (2, 63, 64, 1000, _backend._TABLE_LIMIT - 1):
        x = numerator(family, t + shift)
        with mock.patch.object(primality, "factor", refuse):
            rec, calls, strided = factorial_calls(family, t + shift)
        assert calls == strided == [(t, 2 * x)]
        assert rec == chain_term(family, t + shift)


def test_factor_route_skips_t_below_two():
    # t = n - 3 for main and t = n - 2 for linear: t is 0 or 1 here, and
    # factorial_mod(t, 2x) = 1 is read from the table, with no factoring,
    # exact b or walk
    cases = ((MAIN, 3), (MAIN, 4), (quadratic(5), 4), (linear(1), 3), (linear(6), 3))
    exact = [term(family, n, Strategy.EXACT_BIGINT) for family, n in cases]
    with (mock.patch.object(primality, "factor", refuse),
          mock.patch.object(families, "gcd_partner", refuse),
          mock.patch.object(_backend, "Factorials", refuse)):
        runs = [factorial_calls(family, n) for family, n in cases]
    assert [rec for rec, _, _ in runs] == exact == [chain_term(family, n) for family, n in cases]
    for (_, calls, strided), (family, n) in zip(runs, cases):
        assert calls == strided == [(families._definition(family, n)[1], 2 * numerator(family, n))]


def test_factor_route_wilson_branch():
    # a sparse mirror: x = 5 * 11 * 6491 * 358201, and t! mod 358201 comes from
    # k! with k = 358201 - 1 - 357600 = 600, not from 357600 factors
    n, t, p = 357_603, 357_600, 358_201
    rec, calls, strided = factorial_calls(MAIN, n)
    assert factor(rec.x) == {5: 1, 11: 1, 6491: 1, p: 1}
    assert calls == [(t, 2 * rec.x)]
    assert strided == [(p - 1 - t, p)]
    assert rec == chain_term(MAIN, n)
    assert (rec.a, rec.classification) == (p, Classification.PRIME)


def test_factor_route_forward_branch():
    # p > t and k = p - 1 - t >= t: t! mod p is run forward
    for n, p in ((5, 19), (991, 23929)):  # x = 19 and x = 41 * 23929
        rec, _, strided = factorial_calls(MAIN, n, factor_route_term)
        assert max(factor(rec.x)) == p
        assert strided == [(n - 3, p)]
        assert rec == chain_term(MAIN, n) == term(MAIN, n, Strategy.EXACT_BIGINT)


def test_factor_route_prime_power_branch():
    # p^e exactly dividing 2x with e >= 2 and v_p(t!) < e: t! mod p^e, forward
    found = []
    for text in ROUTE_FAMILIES:
        family = FamilySpec.parse(text)
        for n in range(3, 200):
            x, t, _, _ = families._definition(family, n)
            wanted = [(t, p**e) for p, e in factor(2 * x).items()
                      if e >= 2 and legendre(t, p) < e]
            if t >= 2 and wanted:
                rec, _, strided = factorial_calls(family, n, factor_route_term)
                assert set(wanted) <= set(strided), (text, n)
                assert rec == chain_term(family, n) == term(family, n, Strategy.EXACT_BIGINT)
                found.append((text, n))
    assert found


def test_factor_route_above_two_to_the_64_takes_one_factorial():
    # the odd part of 2x >= 2**64: t! mod 2x in one stride run, without
    # factoring, below the table's limit and above it
    with mock.patch.object(primality, "factor", refuse):
        for family, n in ((linear(2**64), 4), (quadratic(2**63), 6),
                          (quadratic(2**70 + 5), 40), (quadratic(2**70 + 5), 4100)):
            x, t, _, _ = families._definition(family, n)
            assert x >= 2**64
            rec, calls, strided = factorial_calls(family, n)
            assert calls == strided == [(t, 2 * x)]
            assert rec == chain_term(family, n) == term(family, n, Strategy.EXACT_BIGINT)
    family = linear((2**64 - 5) // 3)  # x = 3k + 4 just below 2**64, t = 2
    x = numerator(family, 4)
    assert x < 2**64 and x % 2
    with mock.patch.object(primality, "factor", wraps=factor) as spy:
        assert factor_route_term(family, 4) == term(family, 4, Strategy.EXACT_BIGINT)
    spy.assert_called_once_with(x)  # the odd part of 2x


@pytest.mark.parametrize("text", ["main", *(f"quad:{k}" for k in range(1, 6)),
                                  *(f"linear:{k}" for k in range(1, 6))])
def test_scan_and_term_agree(text):
    # scan walks t!, term reads t! from the factorial table (t < 4096)
    family = FamilySpec.parse(text)
    assert list(scan(family, family.first_index, 600)) == [
        term(family, n) for n in range(family.first_index, 601)]


# ---------------------------------------------------------------------------
# scan: the column's factorial walk, or term()'s route when it starts far out
# ---------------------------------------------------------------------------

SCAN_FAMILIES = ["main", "quad:2", "quad:3", "quad:4", "linear:1", "linear:2",
                 "linear:5", "rowland"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SCAN_FAMILIES), st.integers(min_value=0, max_value=1600),
       st.integers(min_value=0, max_value=300))
@example("main", 0, 40)       # walks from the first index
@example("linear:2", 0, 0)    # a single term at the first index walks
@example("main", 1200, 5)     # far start: term()'s route
@example("quad:2", 100, 100)  # n_from - first_index = n_to - n_from: walks
@example("quad:2", 100, 99)   # one more below n_from than n_to - n_from: per term
def test_scan_matches_exact_records(family_text, offset, width):
    # exact b is cached up to its index, so the ranges stay below 2000
    family = FamilySpec.parse(family_text)
    n_from = family.first_index + offset
    n_to = n_from + width
    scanned = list(scan(family, n_from, n_to))
    assert scanned == [term(family, n, Strategy.EXACT_BIGINT) for n in range(n_from, n_to + 1)]
    assert all(type(rec) is TermRecord for rec in scanned)


def test_scan_walks_near_the_start_and_factors_far_out(fresh_columns):
    # main's column is empty, so it ends at n = 2
    with mock.patch.object(_backend, "Factorials", refuse):
        assert len(list(scan(MAIN, 104, 203))) == 100  # n_from - 3 > n_to - n_from
    with mock.patch.object(_backend, "factorial_mod", refuse):
        assert len(list(scan(MAIN, 103, 203))) == 101  # n_from - 3 = n_to - n_from
    # far out, each term is one factorial_mod call, which factors 2x
    with (mock.patch.object(_backend, "Factorials", refuse),
          mock.patch.object(primality, "factor", wraps=factor) as spy):
        recs = list(scan(MAIN, 357_602, 357_605))
    assert [c.args[0] for c in spy.call_args_list] == [rec.x for rec in recs]  # x is odd
    with mock.patch.object(_backend, "b_mod_pair", wraps=_backend.b_mod_pair) as spy:
        list(scan(linear(3), 3, 6))
    assert [c.args[0] for c in spy.call_args_list] == [1, 2, 3, 4]  # linear t = n - 2


def test_strategy_equivalence_lists_a_scan_mismatch(fresh_columns):
    real = _backend.b_mod_pair

    def one_wrong(t, x, walk, c):  # only the walk route reads b_mod_pair
        y = real(t, x, walk, c)
        return (y + 1) % x if t == 4 else y  # main n = 7

    with mock.patch.object(_backend, "b_mod_pair", one_wrong):
        report = verify_strategy_equivalence([MAIN], 12)
    assert report.checked == 10 and not report.clean
    [bad] = report.mismatches
    assert (bad["n"], bad["exact"], bad["modular"]) == (7, term(MAIN, 7).as_dict(),
                                                        term(MAIN, 7).as_dict())
    assert bad["scan"]["y_mod_x"] == (bad["exact"]["y_mod_x"] + 1) % bad["exact"]["x"]


def test_strategy_equivalence_lists_a_factor_route_mismatch():
    real = families._partner_residue

    def one_wrong(x, t, c, e):
        r = real(x, t, c, e)
        return r + 1 if t == 4 else r

    with mock.patch.object(families, "_partner_residue", one_wrong):
        report = verify_strategy_equivalence([MAIN], 12)
    [bad] = report.mismatches
    assert bad["n"] == 7 and bad["exact"] == term(MAIN, 7).as_dict()
    assert bad["modular"]["y_mod_x"] == bad["exact"]["y_mod_x"] + 1
    assert "scan" not in bad


def test_strategy_equivalence_refuses_a_short_residue_sequence():
    # every term it counts as checked is compared, so a route that yields
    # fewer residues than terms is an error, not a shorter check
    real = families._partner_residues

    def one_short(family, n_from, n_to):
        return list(real(family, n_from, n_to))[:-1]

    with (mock.patch.object(families, "_partner_residues", one_short),
          pytest.raises(ValueError)):
        verify_strategy_equivalence([MAIN], 12)


def test_strategy_equivalence_builds_no_record_when_clean():
    with (mock.patch.object(families, "_record", wraps=families._record) as record,
          mock.patch.object(families, "term", wraps=families.term) as one_term,
          mock.patch.object(families, "scan", wraps=families.scan) as scanned):
        assert verify_strategy_equivalence([MAIN, linear(2)], 200).clean
    assert (record.call_count, one_term.call_count, scanned.call_count) == (0, 0, 0)


def test_strategy_equivalence_refuses_rowland():
    with pytest.raises(UnsupportedFamily):
        verify_strategy_equivalence([ROWLAND], 10)


def test_factorial_replacement_walks_its_partner_side(fresh_columns):
    with mock.patch.object(_backend, "Factorials", wraps=_backend.Factorials) as spy:
        assert verify_factorial_replacement(3, 200).clean  # fills main's column
        assert verify_factorial_replacement(150, 160).clean  # reads it
        # far past the column's end: the factor route per n, no walk
        assert verify_factorial_replacement(5000, 5010).clean
        assert verify_factorial_replacement(4090, 4110).clean  # across the table's end
    # one walk of t! mod 2x(t+3) for the column; the other four are the
    # factorial side's, one per call, each of m! mod x(m+1)
    column_walks = [c for c in spy.call_args_list
                    if all(c.args[0](t) == 2 * numerator(MAIN, t + 3) for t in range(5))]
    assert [c.args[1] for c in column_walks] == [0]
    assert spy.call_count == 5


def test_factorial_replacement_walks_its_factorial_side(fresh_columns):
    list(scan(MAIN, 3, 5010))  # the partner side reads main's column throughout
    ranges = ((3, 5010), (103, 203), (104, 203), (5000, 5010), (4090, 4090))
    with mock.patch.object(_backend, "factorial_mod", wraps=_backend.factorial_mod) as fact, \
            mock.patch.object(_backend, "Factorials", wraps=_backend.Factorials) as walk:
        for n_from, n_to in ranges:  # a far start too: one walk over m = n_from-1..n_to-1
            assert verify_factorial_replacement(n_from, n_to).clean
    assert fact.call_count == 0
    assert [c.args[1] for c in walk.call_args_list] == [n_from - 1 for n_from, _ in ranges]


# ---------------------------------------------------------------------------
# the residue column: one per partner form per process
# ---------------------------------------------------------------------------

# quad:2**62 widens its column from an array('Q') to a list at n = 5
COLUMN_FAMILIES = ["main", *(f"quad:{k}" for k in range(2, 6)),
                   *(f"linear:{k}" for k in range(1, 6)), "quad:4611686018427387904"]


def walked_records(family, n_to):
    """The records of first_index..n_to from one fresh walk over them all,
    built here from ``Factorials`` and ``b_mod_pair``, not by a column."""
    first = family.first_index
    shift = first - families._definition(family, first)[1]  # n - t
    walk = _backend.Factorials(
        lambda t: 2 * families._definition(family, t + shift)[0], first - shift)
    records = []
    for n in range(first, n_to + 1):
        x, t, c, _ = families._definition(family, n)
        records.append(families._record(family, n, x, _backend.b_mod_pair(t, x, walk, c)))
    return records


# ranges as (n_from - first_index, n_to - n_from); main's t is n - 3 and
# linear's is n - 2, so main's column ends at t = 64j - 1 when n = 64j + 2
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COLUMN_FAMILIES),
       st.lists(st.tuples(st.integers(min_value=0, max_value=700),
                          st.integers(min_value=0, max_value=200)), min_size=1, max_size=6))
@example("main", [(0, 40), (41, 22), (64, 0), (65, 100), (30, 10)])  # mid-block, at 64j
@example("linear:2", [(10, 30), (45, 40), (300, 5), (87, 300)])  # a gap, a far start
@example("quad:3", [(100, 50), (0, 127), (128, 0), (129, 62)])  # far first, then from 0
def test_column_extensions_match_a_fresh_walk_and_term(family_text, ranges):
    family = FamilySpec.parse(family_text)
    with (mock.patch.dict(families._COLUMNS, clear=True),
          mock.patch.object(_backend, "Factorials", wraps=_backend.Factorials) as walks):
        scanned = [list(scan(family, family.first_index + offset,
                             family.first_index + offset + width)) for offset, width in ranges]
        column = families._column(family)
    assert walks.call_count <= 1  # extended, never walked again from t = 0
    fresh = walked_records(family, max(recs[-1].n for recs in scanned))
    for recs in scanned:
        assert recs == fresh[recs[0].n - family.first_index:recs[-1].n - family.first_index + 1]
        assert recs == [term(family, rec.n) for rec in recs]
    held = list(column.values(family.first_index, column.high_water))
    assert held == [rec.y_mod_x for rec in fresh[:column.high_water - family.first_index + 1]]
    # an array('Q') until a residue needs more than 64 bits
    assert isinstance(column._terms, list) == any(y >= 2**64 for y in held)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=3, max_value=400), min_size=1, max_size=8))
@example([40, 100])  # the second scan reads on inside block 0
@example([66, 67, 130, 131, 3, 200])  # main's t = 63, 64, 127, 128: block edges
def test_column_lists_each_block_once(ends):
    # scans of main from n = 3 to each end in turn: the walk lists every
    # block it passes exactly once, however the ends cut the blocks
    expected = walked_records(MAIN, max(ends))
    blocks = []
    real = _backend.Factorials._fill

    def spy(walk, lo):
        blocks.append(lo // 64)
        real(walk, lo)

    with (mock.patch.dict(families._COLUMNS, clear=True),
          mock.patch.object(_backend.Factorials, "_fill", spy)):
        for n_to in ends:
            assert list(scan(MAIN, 3, n_to)) == expected[:n_to - 2]
    assert blocks == list(range((max(ends) - 3) // 64 + 1))


def test_main_and_quad_one_share_a_column(fresh_columns):
    assert families._column(MAIN) is families._column(quadratic(1))
    assert families._column(quadratic(2)) is not families._column(MAIN)
    main = list(scan(MAIN, 3, 90))
    with mock.patch.object(_backend, "b_mod_pair", side_effect=AssertionError("walked")):
        quad = list(scan(quadratic(1), 3, 90))
    assert [rec.as_dict() | {"family": "main"} for rec in quad] == [r.as_dict() for r in main]


def test_far_start_is_measured_from_the_columns_end(fresh_columns):
    column = families._column(MAIN)
    assert len(list(scan(MAIN, 3, 203))) == 201
    assert column.high_water == 203
    with (mock.patch.object(_backend, "Factorials", refuse),
          mock.patch.object(_backend, "b_mod_pair", refuse)):
        # 305 - 204 > 404 - 305: term()'s route, and the column stays as it is
        assert list(scan(MAIN, 305, 404)) == [term(MAIN, n) for n in range(305, 405)]
    assert column.high_water == 203
    with (mock.patch.object(_backend, "Factorials", refuse),
          mock.patch.object(_backend, "factorial_mod", refuse)):
        # 304 - 204 = 404 - 304: the walk goes on from n = 204, never from t = 0
        assert len(list(scan(MAIN, 304, 404))) == 101
        assert len(list(scan(MAIN, 3, 404))) == 402  # all read from the column
    assert column.high_water == 404


@pytest.mark.parametrize("k, end", [(2**64, 2), (2**62, 4)])
def test_column_widens_past_two_to_the_64(fresh_columns, k, end):
    # quad:2**64 has y = k = 2**64 at n = 3, and quad:2**62 has y mod x =
    # 4k = 2**64 at n = 5; the column widens to a list there and goes on
    def refuse(*args):
        raise AssertionError("walked again")

    family = quadratic(k)
    expected = [term(family, n) for n in range(3, 201)]
    assert list(scan(family, 3, 200)) == expected
    column = families._column(family)
    assert column.high_water == 200
    assert max(column.values(3, end), default=0) < 2**64 <= column.values(end + 1, end + 1)[0]
    with (mock.patch.object(_backend, "Factorials", refuse),
          mock.patch.object(_backend, "b_mod_pair", refuse)):
        assert list(scan(family, 3, 200)) == expected
        assert list(scan(family, 100, 200)) == expected[97:]
        assert list(scan(family, 150, 200)) == expected[147:]
    assert column.high_water == 200


def test_column_concurrent_readers(fresh_columns):
    # six threads extend main's, linear:2's and quad:2**62's columns in
    # different strides; quad:2**62's widens from an array to a list at n = 5
    texts = ("main", "linear:2", "quad:4611686018427387904")
    expected = {text: walked_records(FamilySpec.parse(text), 1200) for text in texts}
    mismatches, done = [], []

    def worker(text, stride):
        family = FamilySpec.parse(text)
        for n_to in range(3 + stride, 1201, stride):
            n_from = max(3, n_to - 2 * stride)
            if list(scan(family, n_from, n_to)) != expected[text][n_from - 3:n_to - 2]:
                mismatches.append((text, n_from, n_to))
        done.append(text)

    threads = [threading.Thread(target=worker, args=args)
               for args in (("main", 5), ("main", 64), ("linear:2", 9), ("linear:2", 63),
                            (texts[2], 2), (texts[2], 61))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(threads)
    assert mismatches == []
    for text in texts:
        column = families._column(FamilySpec.parse(text))
        assert list(column.values(3, column.high_water)) == [
            rec.y_mod_x for rec in expected[text][:column.high_water - 2]]
