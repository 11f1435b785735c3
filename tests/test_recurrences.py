import threading

import pytest

from gcdseq.errors import IndexBelowDomain
from gcdseq.primality import Verdict, is_prime
from gcdseq.recurrences import (
    _RecurrenceCache,
    b,
    b_pair,
    b_via_left_factorial,
    left_factorial,
    rowland_diff,
    rowland_diffs,
    rowland_term,
)

from expected_terms import ROWLAND_DIFF_PREFIX


def test_b_base_cases():
    assert b(-1) == 0
    assert b(0) == 1
    assert b(1) == 3
    assert b(2) == 8
    assert b(3) == 25
    assert b(4) == 102
    assert b(5) == 539


def test_b_below_domain():
    with pytest.raises(IndexBelowDomain):
        b(-2)


def test_b_recurrence_recheck_on_cache_reads():
    # re-derive every cached value from its two predecessors
    b(1000)
    for n in range(1, 1001):
        assert b(n) == (n + 2) * (b(n - 1) - b(n - 2))


def test_b_positive_and_increasing():
    prev = 0
    for n in range(1, 1001):
        val = b(n)
        assert val > 0
        assert val > prev
        prev = val


@pytest.mark.parametrize(
    "n,expected", [(0, 0), (1, 1), (2, 2), (3, 4), (4, 10), (5, 34), (6, 154)]
)
def test_left_factorial_values(n, expected):
    assert left_factorial(n) == expected


def test_left_factorial_negative():
    with pytest.raises(IndexBelowDomain):
        left_factorial(-1)


def test_left_factorial_matches_running_sum():
    total, fact = 0, 1
    for n in range(0, 200):
        assert left_factorial(n) == total
        total += fact
        fact *= n + 1


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 3), (3, 25), (4, 102)])
def test_b_via_left_factorial_values(n, expected):
    assert b_via_left_factorial(n) == expected


def test_b_identity_holds_exactly():
    for n in range(0, 1001):
        assert b_via_left_factorial(n) == b(n)


def test_b_via_left_factorial_below_domain():
    with pytest.raises(IndexBelowDomain):
        b_via_left_factorial(-1)


def test_rowland_first_term_and_diffs():
    assert rowland_term(1) == 7
    assert rowland_term(2) == 8
    assert rowland_diff(1) == 1
    assert rowland_diff(4) == 5
    assert rowland_diff(10) == 11
    assert tuple(rowland_diff(n) for n in range(1, 26)) == ROWLAND_DIFF_PREFIX


def test_rowland_below_domain():
    with pytest.raises(IndexBelowDomain):
        rowland_term(0)


def test_rowland_nondecreasing_and_diffs_one_or_odd_prime():
    # the headline property of the comparison sequence, over 10,000 steps
    prev = rowland_term(1)
    for n in range(1, 10001):
        cur = rowland_term(n + 1)
        assert cur >= prev
        diff = cur - prev
        if diff != 1:
            assert diff % 2 == 1
            assert is_prime(diff).verdict is Verdict.PRIME
        prev = cur


def test_b_pair_and_rowland_diffs_match_the_single_reads():
    assert [b_pair(t) for t in range(0, 70)] == [(b(t), b(t - 1)) for t in range(0, 70)]
    assert list(rowland_diffs(1, 80)) == [rowland_diff(n) for n in range(1, 81)]
    assert list(rowland_diffs(30, 29)) == []
    with pytest.raises(IndexBelowDomain):
        b_pair(-1)
    with pytest.raises(IndexBelowDomain):
        rowland_diffs(0, 5)


def test_cache_values_slice_after_at_most_one_growth():
    grown = []

    def step(n, terms):
        grown.append(n)
        return terms[-1] + n

    cache = _RecurrenceCache(first_index=2, initial=(5,), step=step)
    assert cache.values(3, 3) == [8]
    assert cache.values(2, 6) == [5, 8, 12, 17, 23]
    assert grown == [3, 4, 5, 6]  # each term stepped once
    assert cache.values(4, 3) == [] and cache.values(7, 6) == []
    assert cache.values(2, 6) == [cache.value(n) for n in range(2, 7)]
    assert grown == [3, 4, 5, 6] and cache.high_water == 6
    with pytest.raises(IndexBelowDomain):
        cache.values(1, 4)


def test_b_cache_concurrent_reads():
    results = []

    def worker(hi):
        results.append([b(n) for n in range(hi - 50, hi)])

    threads = [threading.Thread(target=worker, args=(1200 + 37 * i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, chunk in enumerate(results):
        assert len(chunk) == 50
    # spot-check against a serial recomputation
    assert b(1249) == (1251) * (b(1248) - b(1247))
