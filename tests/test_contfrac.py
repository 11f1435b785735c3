from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdseq.contfrac import (
    CFSpec,
    LinearForm,
    Scheme,
    cf_spec,
    cf_theorem1_spec,
    cf_theorem2_spec,
    elimination_chain,
    eval_cf,
    theorem1_closed_form,
    theorem2_closed_form,
    theorem2_derived_form,
    verify_eq4,
    verify_theorem,
)
from gcdseq.errors import IndexBelowDomain, ZeroDenominator
from gcdseq.families import numerator, quadratic
from gcdseq.recurrences import b, left_factorial


# ---------------------------------------------------------------------------
# CFSpec construction
# ---------------------------------------------------------------------------

def test_t1_spec_shapes():
    assert cf_theorem1_spec(3, 5) == CFSpec(((3, 2),), 5)
    assert cf_theorem1_spec(4, 7) == CFSpec(((3, 2), (4, 3)), 7)
    assert cf_theorem1_spec(5, 1) == CFSpec(((3, 2), (4, 3), (5, 4)), 1)


def test_t2_spec_shapes():
    assert cf_theorem2_spec(3, 5) == CFSpec(((1, 1), (2, 2)), 5)
    assert cf_theorem2_spec(4, 9) == CFSpec(((1, 1), (2, 2), (3, 3)), 9)


def test_spec_below_domain():
    with pytest.raises(IndexBelowDomain):
        cf_theorem1_spec(2, 5)
    with pytest.raises(IndexBelowDomain):
        cf_theorem2_spec(2, 5)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_hand_values():
    assert eval_cf(cf_theorem1_spec(3, 5)) == Fraction(5, 7)
    assert eval_cf(cf_theorem1_spec(4, 7)) == Fraction(17, 13)
    assert eval_cf(cf_theorem2_spec(3, 5)) == Fraction(8, 3)


def test_eval_zero_tail():
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_theorem1_spec(3, 0))
    assert exc.value.level == 1
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_theorem1_spec(5, 0))
    assert exc.value.level == 3  # innermost of three levels


def test_eval_outer_zero():
    # m = n - 1 collapses the outermost value of the T2 fraction
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_theorem2_spec(3, 2))
    assert exc.value.level == 0


def test_eval_interior_zero():
    # tail 1 under the level (4, 4) gives 4 - 4/1 = 0, so level 3 divides by zero
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_theorem2_spec(5, 1))
    assert exc.value.level == 3


def _eval_cf_per_level(spec):
    """Reference: one Fraction per level; the value, or the zero level."""
    value = Fraction(spec.tail)
    for level in range(len(spec.levels), 0, -1):
        p, c = spec.levels[level - 1]
        if value == 0:
            return ("zero", level)
        value = c - Fraction(p) / value
    if value == 0:
        return ("zero", 0)
    return 1 / value


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([Scheme.T1, Scheme.T2]),
    st.integers(min_value=3, max_value=60),
    st.one_of(st.integers(min_value=-30, max_value=30),
              st.sampled_from([10**12, -(10**12)])),
)
def test_eval_matches_per_level_fractions(scheme, n, m):
    spec = cf_spec(scheme, n, m)
    expected = _eval_cf_per_level(spec)
    if isinstance(expected, tuple):
        with pytest.raises(ZeroDenominator) as exc:
            eval_cf(spec)
        assert ("zero", exc.value.level) == expected
        assert exc.value.where == "cf"
    else:
        got = eval_cf(spec)
        assert type(got) is Fraction and got == expected


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_theorem1_closed_form_values():
    assert theorem1_closed_form(3, 5) == Fraction(5, 7)
    assert theorem1_closed_form(4, 7) == Fraction(17, 13)
    assert theorem1_closed_form(5, 1) == Fraction(7, 11)


def test_theorem2_closed_form_values():
    assert theorem2_closed_form(3, 5) == Fraction(10, 9)
    assert theorem2_closed_form(4, 7) == Fraction(17, 8)
    with pytest.raises(ZeroDenominator):
        theorem2_closed_form(3, 2)


def test_theorem2_derived_form_values():
    assert theorem2_derived_form(3, 5) == Fraction(8, 3)
    assert theorem2_derived_form(4, 7) == Fraction(11, 2)
    assert theorem2_derived_form(6, 7) == 94
    with pytest.raises(ZeroDenominator):
        theorem2_derived_form(4, 3)


def test_derived_form_brute_force_confirmation():
    # the derived right side must reproduce the evaluated fraction across the
    # whole desk grid before anything else is allowed to rely on it
    confirmed = 0
    for n in range(3, 13):
        for m in range(-20, 21):
            try:
                cf = eval_cf(cf_theorem2_spec(n, m))
            except ZeroDenominator:
                continue
            assert theorem2_derived_form(n, m) == cf, (n, m)
            confirmed += 1
    assert confirmed > 350


def test_printed_t2_form_never_matches_on_the_grid():
    matches = []
    for n in range(3, 13):
        for m in range(-20, 21):
            try:
                cf = eval_cf(cf_theorem2_spec(n, m))
                printed = theorem2_closed_form(n, m)
            except ZeroDenominator:
                continue
            if printed == cf:
                matches.append((n, m))
    assert matches == []


# ---------------------------------------------------------------------------
# elimination oracle
# ---------------------------------------------------------------------------

def test_chain_t1_hand_values():
    a1, a2 = elimination_chain(Scheme.T1, 4)
    assert (a1.alpha, a1.beta, a1.u, a1.v) == (3, -8, 3, 4)
    assert (a2.alpha, a2.beta) == (3, -4)
    a1, a2 = elimination_chain(Scheme.T1, 5)
    assert (a1.alpha, a1.beta) == (4, -15)
    assert (a2.alpha, a2.beta) == (8, -15)


def test_chain_t1_n3():
    a1, a2 = elimination_chain(Scheme.T1, 3)
    assert (a1.alpha, a1.beta) == (2, -3)
    assert (a2.alpha, a2.beta) == (1, 0)


def test_chain_t2_concrete():
    a1, a2 = elimination_chain(Scheme.T2, 5)
    assert a1.u == 5 and a1.v == 6
    for m in (-3, 1, 2, 9, 40):
        assert a1.evaluate(m, 1) == m - 4
        assert a2.evaluate(m, 1) == 2 * (5 * m - 8)


def test_linear_form_adjacency():
    with pytest.raises(ValueError):
        LinearForm(1, 1, 3, 5)


def test_cf_equals_chain_ratio():
    # independent route: the fraction must equal a_2/a_1 with the tail
    # relation a_u = m * a_v substituted as (a_u, a_v) = (m, 1)
    compared = 0
    for scheme in (Scheme.T1, Scheme.T2):
        for n in range(3, 26):
            a1, a2 = elimination_chain(scheme, n)
            for m in (-9, -2, 1, 3, 5, 12, 101):
                try:
                    cf = eval_cf(cf_spec(scheme, n, m))
                except ZeroDenominator:
                    continue
                denom = a1.evaluate(m, 1)
                assert denom != 0
                assert cf == Fraction(a2.evaluate(m, 1), denom)
                compared += 1
    assert compared > 280


def test_eq3_consistency():
    # with a_{n-1} = m a_n, the a_1 form reproduces n(m-n+2) - m
    for n in range(3, 61):
        a1, _ = elimination_chain(Scheme.T1, n)
        for m in (-7, -1, 2, 10, 999):
            assert a1.evaluate(m, 1) == n * (m - n + 2) - m


def test_eq5_coefficients():
    for n in range(3, 201):
        _, a2 = elimination_chain(Scheme.T1, n)
        assert (a2.alpha, a2.beta) == (b(n - 3), -n * b(n - 4))


def test_t2_chain_closed_coefficients():
    for n in range(3, 101):
        a1, a2 = elimination_chain(Scheme.T2, n)
        assert (a1.alpha, a1.beta) == (1, -(n - 1))
        assert (a2.alpha, a2.beta) == (left_factorial(n - 1), -2 * b(n - 3))


def test_quadratic_family_link():
    # m = -k turns the T1 denominator into the quadratic family numerator
    for n in range(3, 101):
        for k in range(1, 11):
            assert abs(n * (-k - n + 2) + k) == numerator(quadratic(k), n)


# ---------------------------------------------------------------------------
# verify_eq4 / verify_theorem
# ---------------------------------------------------------------------------

def test_verify_eq4_reports():
    r = verify_eq4(4)
    assert not r.printed_holds
    assert r.beta == -8 and r.corrected_coefficient == 8
    assert r.corrected_holds
    r = verify_eq4(5)
    assert r.beta == -15
    r = verify_eq4(3)
    assert r.beta == -3
    assert r.corrected_holds


def test_verify_eq4_corrected_always_holds():
    for n in range(3, 51):
        r = verify_eq4(n)
        assert r.corrected_holds
        assert not r.printed_holds


def test_verify_theorem_t1():
    r = verify_theorem(Scheme.T1, 3, 5)
    assert r.cf_value == Fraction(5, 7)
    assert r.form("eq1") == (Fraction(5, 7), True)
    r = verify_theorem(Scheme.T1, 4, 7)
    assert r.form("eq1") == (Fraction(17, 13), True)


def test_verify_theorem_t2():
    r = verify_theorem(Scheme.T2, 3, 5)
    assert r.cf_value == Fraction(8, 3)
    printed_value, printed_equal = r.form("printed")
    assert printed_value == Fraction(10, 9) and not printed_equal
    assert r.form("derived") == (Fraction(8, 3), True)


def test_verify_theorem_unknown_form():
    r = verify_theorem(Scheme.T1, 3, 5)
    with pytest.raises(KeyError):
        r.form("derived")
