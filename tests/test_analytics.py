import pytest

from gcdseq.analytics import compare, efficiency
from gcdseq.families import MAIN, ROWLAND, linear, quadratic


def test_main_25_distinct_primes():
    report = efficiency(MAIN, 25)
    assert report.measured == 25
    assert report.distinct_primes == 21
    assert report.ones == 0
    assert report.max_prime == 701


def test_rowland_25_distinct_primes():
    report = efficiency(ROWLAND, 25)
    assert report.measured == 24  # differences of the first 25 terms
    assert report.primes == (3, 5, 11, 23)
    assert report.distinct_primes == 4
    assert report.new_prime_rate == (0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0)


def test_single_term_reports():
    main1 = efficiency(MAIN, 1)
    assert main1.primes == (5,)
    rowland1 = efficiency(ROWLAND, 1)
    assert rowland1.measured == 0
    assert rowland1.primes == ()
    assert rowland1.max_prime is None


def test_rowland_10_distinct():
    assert efficiency(ROWLAND, 10).primes == (3, 5)


def test_ones_accounting():
    report = efficiency(MAIN, 46)
    assert report.ones + report.prime_terms + report.composite_terms == report.measured
    assert report.ones == 3  # n = 37, 43, 48 fall inside the first 46 terms
    assert report.new_prime_rate == (4, 3, 4, 3, 3, 3, 4, 3, 2, 4, 2, 1)


def test_composites_counted_for_other_families():
    report = efficiency(quadratic(5), 10)
    assert report.composite_terms == 1  # the 49 at n = 6
    report = efficiency(linear(4), 10)
    assert report.composite_terms == 1  # the 4 at n = 4
    report = efficiency(quadratic(5), 30)
    assert (report.ones, report.prime_terms, report.composite_terms) == (3, 26, 1)
    assert report.new_prime_rate == (3, 1, 3, 2, 2, 2, 3, 3, 2, 3)
    report = efficiency(linear(4), 30)
    assert (report.ones, report.prime_terms, report.composite_terms) == (10, 19, 1)
    assert report.new_prime_rate == (2, 2, 3, 1, 2, 1, 3, 1, 2, 2)


def test_new_prime_rate_windows():
    # 50 terms: the default window is 50 // 10 = 5 terms
    report = efficiency(MAIN, 50)
    assert report.window == 5
    assert report.new_prime_rate == (5, 4, 4, 4, 4, 5, 2, 5, 3, 3)
    assert sum(report.new_prime_rate) == report.distinct_primes


def test_compare_25():
    report = compare(25)
    assert report.main.distinct_primes == 21
    assert report.rowland.distinct_primes == 4
    assert report.main.distinct_primes > report.rowland.distinct_primes
    assert report.distinct_prime_ratio == 21 / 4


def test_compare_edge_counts():
    report = compare(1)
    assert report.main.primes == (5,)
    assert report.rowland.primes == ()
    assert report.distinct_prime_ratio is None
    assert report.rowland_ones_share is None


def test_reports_deterministic():
    assert efficiency(MAIN, 30) == efficiency(MAIN, 30)
    assert compare(12) == compare(12)


def test_distinct_primes_monotone():
    counts = [efficiency(MAIN, n).distinct_primes for n in range(1, 41)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
