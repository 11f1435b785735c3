import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdseq import contfrac
from gcdseq.contfrac import (
    CFSpec,
    LinearForm,
    Scheme,
    cf_spec,
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

def _levels(spec):
    """The (p_j, c_j) of levels 1..K of ``spec``, outermost first."""
    return tuple(spec.scheme.level(j) for j in range(1, spec.scheme.depth(spec.n) + 1))


def test_t1_spec_shapes():
    assert cf_spec(Scheme.T1, 3, 5) == CFSpec(Scheme.T1, 3, 5)
    assert _levels(cf_spec(Scheme.T1, 3, 5)) == ((3, 2),)
    assert _levels(cf_spec(Scheme.T1, 4, 7)) == ((3, 2), (4, 3))
    assert _levels(cf_spec(Scheme.T1, 5, 1)) == ((3, 2), (4, 3), (5, 4))
    assert cf_spec(Scheme.T1, 5, 1).tail == 1


def test_t2_spec_shapes():
    assert cf_spec(Scheme.T2, 3, 5) == CFSpec(Scheme.T2, 3, 5)
    assert _levels(cf_spec(Scheme.T2, 3, 5)) == ((1, 1), (2, 2))
    assert _levels(cf_spec(Scheme.T2, 4, 9)) == ((1, 1), (2, 2), (3, 3))
    assert cf_spec(Scheme.T2, 4, 9).tail == 9


def test_spec_below_domain():
    with pytest.raises(IndexBelowDomain):
        cf_spec(Scheme.T1, 2, 5)
    with pytest.raises(IndexBelowDomain):
        cf_spec(Scheme.T2, 2, 5)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_hand_values():
    assert eval_cf(cf_spec(Scheme.T1, 3, 5)) == Fraction(5, 7)
    assert eval_cf(cf_spec(Scheme.T1, 4, 7)) == Fraction(17, 13)
    assert eval_cf(cf_spec(Scheme.T2, 3, 5)) == Fraction(8, 3)


def test_eval_zero_tail():
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_spec(Scheme.T1, 3, 0))
    assert exc.value.level == 1
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_spec(Scheme.T1, 5, 0))
    assert exc.value.level == 3  # innermost of three levels


def test_eval_outer_zero():
    # m = n - 1 collapses the outermost value of the T2 fraction
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_spec(Scheme.T2, 3, 2))
    assert exc.value.level == 0


def test_eval_interior_zero():
    # tail 1 under the level (4, 4) gives 4 - 4/1 = 0, so level 3 divides by zero
    with pytest.raises(ZeroDenominator) as exc:
        eval_cf(cf_spec(Scheme.T2, 5, 1))
    assert exc.value.level == 3


def _eval_cf_per_level(spec):
    """Reference: one Fraction per level; the value, or the zero level."""
    levels = _levels(spec)
    value = Fraction(spec.tail)
    for level in range(len(levels), 0, -1):
        p, c = levels[level - 1]
        if value == 0:
            return ("zero", level)
        value = c - Fraction(p) / value
    if value == 0:
        return ("zero", 0)
    return 1 / value


def _per_level_over_tails(scheme, n, tails):
    """The per-level walk for every tail m at once, innermost level first,
    with the running numerator and denominator kept as integer forms in m; a
    tail is caught at the innermost level whose numerator vanishes at it."""
    levels = _levels(cf_spec(scheme, n, 0))
    num, den = (1, 0), (0, 1)
    results = {}
    for level in range(len(levels), -1, -1):
        slope, const = num
        if slope and const % slope == 0 and -const // slope in tails:
            results.setdefault(-const // slope, ("zero", level))
        if level:
            p, c = levels[level - 1]
            num, den = (c * slope - p * den[0], c * const - p * den[1]), num
    for m in tails - results.keys():
        results[m] = Fraction(den[0] * m + den[1], num[0] * m + num[1])
    return results


def _assert_eval_matches(spec, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ZeroDenominator) as exc:
            eval_cf(spec)
        level = exc.value.level
        assert ("zero", level) == expected, spec
        assert exc.value.where == "cf"
        assert str(exc.value) == ("outer value is zero" if level == 0
                                  else f"zero denominator under level {level}")
    else:
        got = eval_cf(spec)
        assert type(got) is Fraction and got == expected, spec


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([Scheme.T1, Scheme.T2]),
    st.integers(min_value=3, max_value=200),
    st.one_of(st.integers(min_value=-30, max_value=30),
              st.sampled_from([10**12, -(10**12)])),
)
def test_eval_matches_per_level_fractions(scheme, n, m):
    spec = cf_spec(scheme, n, m)
    expected = _eval_cf_per_level(spec)
    _assert_eval_matches(spec, expected)
    assert _per_level_over_tails(scheme, n, {m})[m] == expected


GRID_TAILS = {*range(-60, 61), 10**12, -(10**12), 10**30, -(10**30)}


def test_eval_matches_per_level_walk_on_grid():
    zeros = 0
    for scheme in (Scheme.T1, Scheme.T2):
        for n in range(3, 201):
            for m, expected in _per_level_over_tails(scheme, n, GRID_TAILS).items():
                _assert_eval_matches(cf_spec(scheme, n, m), expected)
                zeros += isinstance(expected, tuple)
    # T1: m = 0 at every n; T2: m = 0 and m = 1 at every n, m = n - 1 to n = 61
    assert zeros == 198 + 2 * 198 + 59


@pytest.mark.parametrize("scheme, n, m, level", [
    (Scheme.T1, 1000, 0, 998),    # innermost
    (Scheme.T2, 1000, 0, 999),    # innermost
    (Scheme.T2, 1000, 1, 998),    # interior: 999 - 999/1 = 0
    (Scheme.T2, 1000, 999, 0),    # outer value
    (Scheme.T2, 1500, 1499, 0),
])
def test_eval_zero_levels_at_depth(scheme, n, m, level):
    spec = cf_spec(scheme, n, m)
    assert _eval_cf_per_level(spec) == ("zero", level)
    _assert_eval_matches(spec, ("zero", level))


def test_eval_at_depth_matches_per_level_fractions():
    for scheme, n, m in ((Scheme.T1, 1000, 7), (Scheme.T2, 1000, 998), (Scheme.T2, 1000, 2)):
        spec = cf_spec(scheme, n, m)
        _assert_eval_matches(spec, _eval_cf_per_level(spec))


def test_columns_satisfy_the_row_identity():
    # the premise of the zero-level search: s y_k = !k x_k in the table's own columns
    for scheme in (Scheme.T1, Scheme.T2):
        s = contfrac._SCALE[scheme]
        for k in range(1001):
            x, y = contfrac._TABLES[scheme].value(k)
            assert s * y == left_factorial(k) * x, (scheme, k)


def test_zero_level_confirmation_decides(monkeypatch):
    # wrong sequences in place of the left factorials make the bisection
    # propose each level j = 1..K in turn for every fraction whose s*value is
    # an integer t: only the table's own cross-multiplication may raise
    wrong = []
    monkeypatch.setattr(contfrac, "_lf_cache", SimpleNamespace(_terms=wrong))
    proposed = 0
    for scheme in (Scheme.T1, Scheme.T2):
        s = contfrac._SCALE[scheme]
        for n in range(3, 31):
            k = scheme.depth(n)
            for m, expected in _per_level_over_tails(scheme, n, GRID_TAILS).items():
                if isinstance(expected, tuple):
                    continue
                if (s * expected).denominator != 1:
                    _assert_eval_matches(cf_spec(scheme, n, m), expected)
                    continue
                t = int(s * expected)
                for j in range(1, k + 1):
                    wrong[:] = [t - 1] * (j - 1) + [t] * (k - j + 1)
                    _assert_eval_matches(cf_spec(scheme, n, m), expected)
                    proposed += 1
    assert proposed == 45860


def test_convergent_table_concurrent_readers(monkeypatch):
    monkeypatch.setattr(contfrac, "_TABLES",
                        {s: contfrac._convergents(s) for s in Scheme})
    tails = {-3, 0, 1, 2, 7, 10**12}
    expected = {(scheme, n): _per_level_over_tails(scheme, n, tails)
                for scheme in (Scheme.T1, Scheme.T2) for n in range(3, 301)}
    mismatches, done = [], []

    def worker(schemes):
        for n in range(3, 301):
            for scheme in schemes:
                for m in tails:
                    try:
                        got = eval_cf(cf_spec(scheme, n, m))
                    except ZeroDenominator as exc:
                        got = ("zero", exc.level)
                    if got != expected[scheme, n][m]:
                        mismatches.append((scheme, n, m))
        done.append(schemes)

    orders = [(Scheme.T1, Scheme.T2), (Scheme.T2, Scheme.T1)] * 2
    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
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
                cf = eval_cf(cf_spec(Scheme.T2, n, m))
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
                cf = eval_cf(cf_spec(Scheme.T2, n, m))
                printed = theorem2_closed_form(n, m)
            except ZeroDenominator:
                continue
            if printed == cf:
                matches.append((n, m))
    assert matches == []


def _reference_forms(scheme, n, m):
    """The closed forms as Fraction definitions, in the order they are
    compared: (name, value), or (name, None) where the denominator is 0."""
    if scheme is Scheme.T1:
        rows = [("eq1", m * b(n - 3) - n * b(n - 4), n * (m - n + 2) - m)]
    else:
        rows = [("printed", 2 * (m * b(n - 3) - n * b(n - 4)), n * (m - n + 1)),
                ("derived", m * left_factorial(n - 1) - 2 * b(n - 3), m - n + 1)]
    return [(name, Fraction(num, den) if den else None) for name, num, den in rows]


def test_rows_match_the_fraction_definitions_on_a_grid():
    public = {"eq1": theorem1_closed_form, "printed": theorem2_closed_form,
              "derived": theorem2_derived_form}
    verdicts = 0
    for scheme in (Scheme.T1, Scheme.T2):
        for n in range(3, 41):
            forms = contfrac.closed_forms(scheme, n)
            for m in range(-30, 31):
                reference = _reference_forms(scheme, n, m)
                assert [form.name for form in forms] == [name for name, _ in reference]
                for name, value in reference:
                    if value is None:
                        with pytest.raises(ZeroDenominator) as exc:
                            public[name](n, m)
                        assert exc.value.where == name
                    else:
                        assert public[name](n, m) == value
                try:
                    cf = eval_cf(cf_spec(scheme, n, m))
                except ZeroDenominator:
                    continue
                got = verify_theorem(scheme, n, m).forms
                assert got == tuple((name, value, value == cf) for name, value in reference)
                for form, (_, value) in zip(forms, reference):
                    assert form.equals(cf, m) == (value == cf)
                    verdicts += 1
    # T1 skips m = 0; T2 skips m = 0, 1, and n - 1 for n = 3..31
    assert verdicts == 38 * 60 + 2 * (38 * 59 - 29)


def test_row_identity_by_scheme():
    for n in range(3, 200):
        (eq1,) = contfrac.closed_forms(Scheme.T1, n)
        printed, derived = contfrac.closed_forms(Scheme.T2, n)
        assert eq1.row_identity() and derived.row_identity(), n
        assert not printed.row_identity(), n
    (eq1,) = contfrac.closed_forms(Scheme.T1, 9)
    assert not eq1._replace(p=(eq1.p[0], eq1.p[1] + 1)).row_identity()


def test_closed_forms_below_domain():
    for fn in (theorem1_closed_form, theorem2_closed_form, theorem2_derived_form):
        with pytest.raises(IndexBelowDomain):
            fn(2, 5)


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
    with pytest.raises(ValueError):
        LinearForm(alpha=1, beta=1, u=3, v=3)
    form = LinearForm(1, 1, 3, 4)
    with pytest.raises(AttributeError):
        form.v = 5


def _elimination_reference(scheme, n):
    """Backward substitution through a_j = r a_{j+1} - s a_{j+2}, from the
    basis (a_u, a_{u+1}) down to a_1 and a_2, one relation at a time."""
    t1 = scheme is Scheme.T1
    u = n - 1 if t1 else n
    # the (alpha, beta) of a_{j+1} and a_{j+2}, starting from a_u and a_{u+1}
    near, far = (1, 0), (0, 1)
    for j in range(u - 1, 0, -1):
        r, s = (j + 1, j + 2) if t1 else (j, j)
        near, far = (r * near[0] - s * far[0], r * near[1] - s * far[1]), near
    return LinearForm(*near, u, u + 1), LinearForm(*far, u, u + 1)


def test_elimination_chain_matches_backward_substitution():
    for scheme in (Scheme.T1, Scheme.T2):
        for n in range(3, 401):
            assert elimination_chain(scheme, n) == _elimination_reference(scheme, n), n


def test_cf_equals_chain_ratio():
    # independent routes: the per-level fraction must equal a_2/a_1 of the
    # backward substitution with the tail relation a_u = m * a_v substituted
    # as (a_u, a_v) = (m, 1)
    compared = 0
    for scheme in (Scheme.T1, Scheme.T2):
        for n in range(3, 26):
            a1, a2 = _elimination_reference(scheme, n)
            for m in (-9, -2, 1, 3, 5, 12, 101):
                cf = _eval_cf_per_level(cf_spec(scheme, n, m))
                if isinstance(cf, tuple):
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
