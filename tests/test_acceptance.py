"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen. Four criteria are resolutions of a stated claim that exact
recomputation contradicts: the a_1 coefficient (7), the second
continued-fraction identity (8), the published 1,420/8,580 split of the
first 10,000 terms (2) and the gcd form of the pairing identity (9b). Each
keeps the claim as a literal, asserts exactly where and why it fails, and
asserts the corrected statement over the same range. The companion
``*_computed_truth`` tests assert what the scans produce.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from gcdseq import backend_name
from gcdseq.analytics import compare
from gcdseq.conjectures import (
    occurrence_index,
    verify_primes_or_one,
    verify_triple_rule_a2,
)
from gcdseq.contfrac import (
    Scheme,
    cf_spec,
    elimination_chain,
    eval_cf,
    theorem2_closed_form,
    verify_eq4,
    verify_theorem,
)
from gcdseq.errors import ZeroDenominator
from gcdseq.families import (
    MAIN,
    Strategy,
    gcd_via_factorial,
    linear,
    numerator,
    quadratic,
    scan,
    term,
    verify_factorial_replacement,
    verify_strategy_equivalence,
)
from gcdseq.primality import Verdict, is_prime
from gcdseq.recurrences import b, b_via_left_factorial, rowland_diff

from expected_terms import (
    LINEAR_PREFIX,
    MAIN_PREFIX,
    PAIR_GCD_COUNTEREXAMPLES_2000,
    QUAD_PREFIX,
    ROWLAND_DIFF_PREFIX,
    TEN_K_ONES,
    TEN_K_PRIMES,
)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. listing regression
# ---------------------------------------------------------------------------

def test_criterion_1_listing_regression():
    t0 = time.perf_counter()
    values = tuple(r.a for r in scan(MAIN, 3, 2 + len(MAIN_PREFIX)))
    elapsed = time.perf_counter() - t0
    ok = values == MAIN_PREFIX and elapsed < 1.0
    _report(1, ok, f"{len(MAIN_PREFIX)} terms (n=3..{2 + len(MAIN_PREFIX)}) "
                   f"exact in {elapsed:.3f}s [{backend_name()}]")
    assert values == MAIN_PREFIX
    assert values[34] == 1  # n = 37
    assert values[40] == 1  # n = 43
    assert values[45] == 1  # n = 48
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. the 10,000-term scan
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ten_k_scan():
    t0 = time.perf_counter()
    report = verify_primes_or_one(MAIN, 10000)
    return report, time.perf_counter() - t0


# the circulated (ones, primes) split of the first 10,000 terms, n = 3..10002
PUBLISHED_SPLIT = (1420, 8580)
TEN_K_LAST = 10002


def _ten_k_by_exact_partner():
    """a(n) for n = 3..10002 from the exact partner b(n-3) + n*b(n-4).

    The recurrence runs on a rolling pair here, so the session's b-cache
    does not grow to 10^4 terms (about 90 MB).
    """
    values = []
    b_prev, b_cur = 0, 1  # (b(n-4), b(n-3)) at n = 3
    for n in range(3, TEN_K_LAST + 1):
        x = numerator(MAIN, n)
        values.append(x // math.gcd(x, (b_cur + n * b_prev) % x))
        b_prev, b_cur = b_cur, n * (b_cur - b_prev)  # b(n-2) = n*(b(n-3) - b(n-4))
    return values


def _ten_k_by_factorial():
    """a(n) for n = 3..10002 with the partner replaced by (n-1)!."""
    values = []
    for n in range(3, TEN_K_LAST + 1):
        x = numerator(MAIN, n)
        values.append(x // gcd_via_factorial(n, x))
    return values


def _split(values):
    """(indices of the ones, prime count, composites) of a(3), a(4), ..."""
    ones = [n for n, a in enumerate(values, start=3) if a == 1]
    composites = [(n, a) for n, a in enumerate(values, start=3)
                  if a != 1 and is_prime(a).verdict is not Verdict.PRIME]
    return ones, len(values) - len(ones) - len(composites), composites


def test_criterion_2_published_split(ten_k_scan):
    """The published split is contradicted by three independent routes."""
    report, _ = ten_k_scan
    ones_at, primes, composites = _split(_ten_k_by_exact_partner())
    f_ones_at, f_primes, f_composites = _split(_ten_k_by_factorial())
    splits = {
        "modular scan": (report.ones, report.primes, len(report.composites)),
        "exact partner": (len(ones_at), primes, len(composites)),
        "(n-1)!": (len(f_ones_at), f_primes, len(f_composites)),
    }
    truth = (TEN_K_ONES, TEN_K_PRIMES, 0)
    # Every prefix n = 3..N holding exactly 1,420 ones ends between the
    # 1,420th one and the next; with no composites it holds N - 2 - 1420 primes.
    wanted_ones, wanted_primes = PUBLISHED_SPLIT
    nth_one = ones_at[wanted_ones - 1]
    prefix_primes = range(nth_one - 2 - wanted_ones, ones_at[wanted_ones] - 2 - wanted_ones)
    ok = (all(split == truth for split in splits.values())
          and truth[:2] != PUBLISHED_SPLIT
          and f_ones_at == ones_at and nth_one == 8731
          and wanted_primes not in prefix_primes)
    computed = ", ".join(f"{name} {o}/{p}/{c}" for name, (o, p, c) in splits.items())
    _report(2, ok,
            f"published split 1420/8580 vs computed ones/primes/composites: {computed}; "
            f"the 1,420th one falls at n={nth_one}, after {prefix_primes[0]} primes")
    assert splits == dict.fromkeys(splits, truth)
    assert (TEN_K_ONES, TEN_K_PRIMES) != PUBLISHED_SPLIT
    assert f_ones_at == ones_at
    # not a prefix split either: no prefix has 1,420 ones and 8,580 primes
    assert nth_one == 8731
    assert wanted_primes not in prefix_primes


def test_criterion_2_computed_truth(ten_k_scan):
    report, elapsed = ten_k_scan
    ok = (report.ones == TEN_K_ONES and report.primes == TEN_K_PRIMES
          and not report.composites and report.probable_primes == 0
          and elapsed < 60.0)
    _report("2*", ok, f"computed split {report.ones}/{report.primes}, "
                      f"no composites, {elapsed:.1f}s < 60s")
    assert report.ones == TEN_K_ONES
    assert report.primes == TEN_K_PRIMES
    assert report.composites == ()
    assert report.probable_primes == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. table regressions
# ---------------------------------------------------------------------------

def test_criterion_3_table_regressions():
    ok = True
    for k, expected in QUAD_PREFIX.items():
        values = tuple(r.a for r in scan(quadratic(k), 3, 2 + len(expected)))
        ok = ok and values == expected
        assert values == expected, f"quad:{k}"
    for k, expected in LINEAR_PREFIX.items():
        values = tuple(r.a for r in scan(linear(k), 3, 2 + len(expected)))
        ok = ok and values == expected
        assert values == expected, f"linear:{k}"
    assert LINEAR_PREFIX[4][1] == 4  # the single composite 4 at n = 4
    assert term(linear(4), 4).a == 4
    _report(3, ok, "quad k=1..5 and linear k=1..5 prefixes exact, incl. the 4 in linear:4")


# ---------------------------------------------------------------------------
# 4. strategy equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_strategy_equivalence():
    specs = [MAIN]
    specs += [quadratic(k) for k in range(1, 6)]
    specs += [linear(k) for k in range(1, 6)]
    report = verify_strategy_equivalence(specs, 1500)
    _report(4, report.clean,
            f"{report.checked} records identical across ExactBigInt/ModularFast")
    assert report.clean
    assert report.checked == 11 * 1498


# ---------------------------------------------------------------------------
# 5. factorial replacement
# ---------------------------------------------------------------------------

def test_criterion_5_factorial_replacement():
    report = verify_factorial_replacement(3, 2000)
    _report(5, report.clean,
            f"gcd(x, partner) == gcd(x, (n-1)!) for n=3..2000 "
            f"({len(report.counterexamples)} counterexamples)")
    assert report.clean


# ---------------------------------------------------------------------------
# 6. first continued-fraction identity
# ---------------------------------------------------------------------------

def test_criterion_6_theorem1_and_eq5():
    rng = random.Random(20230923)
    checked = 0
    for n in range(3, 61):
        done = attempts = 0
        while done < 50 and attempts < 1000:
            attempts += 1
            m = rng.randint(-(10**9), 10**9)
            if m == 0:
                continue
            try:
                report = verify_theorem(Scheme.T1, n, m)
            except ZeroDenominator:
                continue
            done += 1
            checked += 1
            value, equal = report.form("eq1")
            assert equal, (n, m, report.cf_value, value)
        assert done == 50
    for n in range(3, 201):
        _, a2 = elimination_chain(Scheme.T1, n)
        assert (a2.alpha, a2.beta) == (b(n - 3), -n * b(n - 4)), n
    _report(6, True, f"CF == closed form for {checked} (n, m) samples; "
                     f"a_2 coefficients exact for n=3..200")


# ---------------------------------------------------------------------------
# 7. the a_1 coefficient resolution
# ---------------------------------------------------------------------------

def test_criterion_7_eq4_resolution():
    printed_failures = []
    corrected_failures = []
    for n in range(4, 51):
        report = verify_eq4(n)
        if report.printed_holds:
            printed_failures.append(n)
        if not report.corrected_holds:
            corrected_failures.append(n)
    ok = not printed_failures and not corrected_failures
    _report(7, ok, "printed n^2-2 coefficient fails for every n=4..50; "
                   "n^2-2n succeeds for all")
    assert printed_failures == []
    assert corrected_failures == []


# ---------------------------------------------------------------------------
# 8. second continued-fraction identity resolution
# ---------------------------------------------------------------------------

def test_criterion_8_theorem2_resolution():
    # the printed right side disagrees with the evaluated fraction
    for n in (3, 4, 5):
        for m in (5, 7):
            cf = eval_cf(cf_spec(Scheme.T2, n, m))
            assert theorem2_closed_form(n, m) != cf, (n, m)
    assert eval_cf(cf_spec(Scheme.T2, 3, 5)) == Fraction(8, 3)
    assert theorem2_closed_form(3, 5) == Fraction(10, 9)
    # the derived right side matches everywhere on the grid
    combos = 0
    for n in range(3, 13):
        for m in range(-20, 21):
            try:
                report = verify_theorem(Scheme.T2, n, m)
            except ZeroDenominator:
                continue
            combos += 1
            _, derived_equal = report.form("derived")
            assert derived_equal, (n, m)
    assert combos == 380
    # and the left-factorial identity is exact
    for n in range(0, 1001):
        assert b_via_left_factorial(n) == b(n), n
    _report(8, True, f"printed form never matches (6 spot pairs); derived form "
                     f"matches all {combos} grid points; b == (n+2)!(n+1)/2 for n=0..1000")


# ---------------------------------------------------------------------------
# 9. symmetry, pairs, triple rule
# ---------------------------------------------------------------------------

def test_criterion_9_symmetry(symmetry_main_2000):
    report = symmetry_main_2000
    _report("9a", report.clean,
            f"mirror law holds for all {report.checked} prime terms, n<=2000")
    assert report.clean
    assert report.checked == 1722


def test_criterion_9_pairs_as_stated(pairs_main_2000):
    """The stated gcd form of the pairing law fails; its corrected form holds.

    For a prime p at exactly two indices n < m, p = n + m - 1 (the additive
    form) and x(n) - x(m) = (n - m) * p, so gcd(x(n), x(m)) is p times a
    divisor of m - n. The stated form p == gcd(x(n), x(m)) therefore fails
    wherever the numerators share another factor. The corrected form checks
    that this extra factor divides m - n and that dividing out the factors
    below n leaves p. It is derived from this algebra and checked here, not
    quoted from the paper, whose text does not settle which gcd form it means.
    """
    report = pairs_main_2000
    index = occurrence_index(MAIN, 2000)
    pairs = [(p, occ) for p, occ in sorted(index.prime_occurrences.items())
             if len(occ) == 2]
    stated_failures = []
    corrected_failures = []
    for p, (n, m) in pairs:
        g = math.gcd(numerator(MAIN, n), numerator(MAIN, m))
        if g != p:  # the stated form, p == gcd(x(n), x(m))
            stated_failures.append((p, n, m, g))
        # corrected: p | g, (g/p) | (m - n), and dividing out the factors
        # below n leaves p, as the definition of a(n) does
        if g % p or (m - n) % (g // p) or g // gcd_via_factorial(n, g) != p:
            corrected_failures.append((p, n, m, g))
    stated_failures = tuple(stated_failures)
    ok = (report.additive_violations == () and report.multiplicity_violations == ()
          and report.missing_partner == () and len(pairs) == report.pairs_checked
          and stated_failures == report.gcd_violations == PAIR_GCD_COUNTEREXAMPLES_2000
          and corrected_failures == [])
    if report.gcd_violations:
        p, n, m, g = report.gcd_violations[0]
        smallest = f"smallest: value {p} at n={n}, m={m}, gcd = {g} = {g // p}*{p}"
    else:
        smallest = "none"
    _report("9b", ok,
            f"pairing identities over n<=2000: additive form clean; stated gcd form "
            f"fails at {len(report.gcd_violations)} pairs ({smallest}); corrected form "
            f"p | g, (g/p) | (m-n), g/gcd(g, (n-1)!) == p holds for all {len(pairs)} pairs")
    assert report.additive_violations == ()
    assert report.multiplicity_violations == ()
    assert report.missing_partner == ()
    assert len(pairs) == report.pairs_checked
    assert stated_failures == PAIR_GCD_COUNTEREXAMPLES_2000
    assert report.gcd_violations == stated_failures
    assert corrected_failures == []


def test_criterion_9_pairs_computed_truth(pairs_main_2000):
    report = pairs_main_2000
    ok = (report.additive_violations == () and report.multiplicity_violations == ()
          and report.missing_partner == ()
          and report.gcd_violations == PAIR_GCD_COUNTEREXAMPLES_2000)
    _report("9b*", ok,
            f"additive form clean over {report.pairs_checked} pairs; gcd form "
            f"counterexamples are exactly the {len(PAIR_GCD_COUNTEREXAMPLES_2000)} known ones")
    assert report.additive_violations == ()
    assert report.multiplicity_violations == ()
    assert report.missing_partner == ()
    assert report.gcd_violations == PAIR_GCD_COUNTEREXAMPLES_2000


def test_criterion_9_triple_rule():
    report = verify_triple_rule_a2(500)
    _report("9c", report.clean,
            f"{report.triples_checked} completed triples, all at index p + n")
    assert report.clean
    assert report.triples_checked == 3


# ---------------------------------------------------------------------------
# 10. Rowland comparison
# ---------------------------------------------------------------------------

def test_criterion_10_rowland_comparison():
    diffs = tuple(rowland_diff(n) for n in range(1, 26))
    report = compare(25)
    ok = (diffs == ROWLAND_DIFF_PREFIX
          and report.main.distinct_primes == 21
          and report.rowland.distinct_primes == 4
          and report.main.distinct_primes > report.rowland.distinct_primes)
    _report(10, ok, f"diff prefix exact; distinct primes {report.main.distinct_primes} "
                    f"(main) vs {report.rowland.distinct_primes} (rowland)")
    assert diffs == ROWLAND_DIFF_PREFIX
    assert report.main.distinct_primes == 21
    assert report.rowland.distinct_primes == 4
    assert report.main.distinct_primes > report.rowland.distinct_primes
