import pytest

from gcdseq.conjectures import (
    occurrence_index,
    prime_coverage,
    verify_pair_identities,
    verify_primes_or_one,
    verify_symmetry,
    verify_triple_rule_a2,
)
from gcdseq.errors import UnsupportedFamily
from gcdseq.families import MAIN, ROWLAND, linear, numerator, quadratic, scan, term

from expected_terms import PAIR_GCD_COUNTEREXAMPLES_2000


# ---------------------------------------------------------------------------
# primes-or-one scans
# ---------------------------------------------------------------------------

def test_primes_or_one_before_first_one():
    # the first complete cancellation is at n = 37, the 35th term
    report = verify_primes_or_one(MAIN, 33)
    assert report.ones == 0
    assert report.composites == ()
    report = verify_primes_or_one(MAIN, 35)
    assert report.ones == 1
    assert report.primes == 34


def _legendre(m, p):
    """v_p(m!)."""
    v, q = 0, p
    while q <= m:
        v += m // q
        q *= p
    return v


def _largest_prime_factor(x, primes):
    """P+(x) by trial division; ``primes`` must reach sqrt(x)."""
    top = 1
    for p in primes:
        if p * p > x:
            break
        while x % p == 0:
            x //= p
            top = p
    return max(top, x)


def test_main_term_is_one_or_the_largest_prime_factor():
    # the proof in the conjectures docstring: for p <= (n-1)/2 and
    # j = (n-1) // p, p^(v+1) > x(n) with v = v_p((n-1)!) unless
    # p^(j-1) < (j+1)^2; that fails at j = 2 for p >= 9, and once it fails
    # for one j >= 2 it fails for every larger j
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    exceptional = set()
    for p in (p for p in primes if p < 9):
        j = 2
        while p ** (j - 1) < (j + 1) ** 2:
            for n in range(max(3, j * p + 1), (j + 1) * p + 1):
                if p ** (_legendre(n - 1, p) + 1) <= numerator(MAIN, n):
                    exceptional.add((n, p))
            j += 1
    assert len(exceptional) == 13
    assert all(numerator(MAIN, n) % p ** (_legendre(n - 1, p) + 1) for n, p in exceptional)
    sweep = {(n, p) for n in range(3, 3001) for p in primes
             if 2 * p <= n - 1 and p**3 <= numerator(MAIN, n)
             and p ** (_legendre(n - 1, p) + 1) <= numerator(MAIN, n)}
    assert sweep == exceptional
    for rec in scan(MAIN, 3, 3000):
        top = _largest_prime_factor(rec.x, primes)
        assert rec.a == (top if top >= rec.n else 1), rec.n


def test_primes_or_one_sees_composites():
    report = verify_primes_or_one(quadratic(3), 3)
    assert (5, 9) in report.composites
    assert not report.clean


def test_primes_or_one_linear4_unique_composite():
    report = verify_primes_or_one(linear(4), 500)
    assert report.composites == ((4, 4),)


def test_primes_or_one_rejects_rowland():
    with pytest.raises(UnsupportedFamily):
        verify_primes_or_one(ROWLAND, 10)


# ---------------------------------------------------------------------------
# occurrence index
# ---------------------------------------------------------------------------

def test_occurrence_index_small():
    index = occurrence_index(MAIN, 30)
    assert index.prime_occurrences[5] == (3,)
    assert index.prime_occurrences[11] == (4, 8)
    assert index.prime_occurrences[29] == (6, 24)
    assert index.composite_occurrences == {}
    assert index.scanned_upto == 30
    assert index.ones == 0
    assert occurrence_index(MAIN, 50).ones == 3  # n = 37, 43, 48
    for occ in index.prime_occurrences.values():
        assert list(occ) == sorted(occ)


# ---------------------------------------------------------------------------
# mirror symmetry
# ---------------------------------------------------------------------------

def test_symmetry_examples():
    assert term(MAIN, 4).a == 11 and term(MAIN, 8).a == 11
    assert term(MAIN, 13).a == 31 and term(MAIN, 19).a == 31
    assert term(quadratic(2), 3).a == 7 and term(quadratic(2), 4).a == 7


def test_symmetry_main_clean():
    report = verify_symmetry(MAIN, 300)
    assert report.clean
    assert report.checked > 200
    assert report.out_of_domain == ()


def test_symmetry_quadratic_out_of_domain_recorded():
    # quad:5 has 7 at n = 5; its mirror 7 - 5 - 5 + 2 = -1 is below the domain
    report = verify_symmetry(quadratic(5), 20)
    assert any(mirror < 3 for (_, _, mirror) in report.out_of_domain)
    assert report.clean
    report = verify_symmetry(quadratic(5), 60)
    assert report.checked == 49
    assert report.out_of_domain == ((5, 7, -1), (10, 5, -8))
    report = verify_symmetry(quadratic(3), 60)
    assert report.checked == 51
    assert report.out_of_domain == ((3, 3, -1), (29, 17, -13))


def test_symmetry_rejects_linear():
    with pytest.raises(UnsupportedFamily):
        verify_symmetry(linear(2), 100)


# ---------------------------------------------------------------------------
# pairing identities
# ---------------------------------------------------------------------------

def test_pairs_small_range_clean():
    report = verify_pair_identities(MAIN, 30)
    assert report.clean
    assert report.pairs_checked >= 2  # (4,8) for 11 and (6,24) for 29


def test_pairs_additive_always_holds_to_2000(pairs_main_2000):
    report = pairs_main_2000
    assert report.additive_violations == ()
    assert report.multiplicity_violations == ()
    assert report.missing_partner == ()


def test_pairs_gcd_counterexamples_are_exactly_the_known_ones(pairs_main_2000):
    # the gcd form of the pairing law fails when the two numerators share a
    # factor besides the prime itself; 19 | x(62) and 19 | x(138) is the
    # smallest case
    report = pairs_main_2000
    assert report.gcd_violations == PAIR_GCD_COUNTEREXAMPLES_2000
    p, n, m, g = PAIR_GCD_COUNTEREXAMPLES_2000[0]
    assert (p, n, m, g) == (199, 62, 138, 3781)
    assert 3781 == 19 * 199
    assert (62 * 62 - 62 - 1) % 19 == 0 and (138 * 138 - 138 - 1) % 19 == 0


def test_pairs_rejects_non_main():
    with pytest.raises(UnsupportedFamily):
        verify_pair_identities(quadratic(2), 100)


# ---------------------------------------------------------------------------
# triple rule for quad:2
# ---------------------------------------------------------------------------

def test_triple_rule_examples():
    report = verify_triple_rule_a2(500)
    assert report.clean
    mult = dict(report.multiplicities)
    assert mult[7] == (3, 4, 10)          # third occurrence at p + n = 10
    assert term(quadratic(2), 10).a == 7
    assert mult[17] == (6, 11)            # a completed pair, not a triple
    assert mult[23][:2] == (5, 18)
    assert report.triples_checked >= 3
    assert mult[41] == (17, 24, 58) and 41 + 17 == 58


# ---------------------------------------------------------------------------
# coverage of primes ending in 1 or 9
# ---------------------------------------------------------------------------

def test_coverage_examples():
    report = prime_coverage(185, 131)
    assert report.missing == ()
    assert report.candidates == 13
    assert prime_coverage(50, 5).missing == ()
    assert prime_coverage(50, 10).candidates == 0
    assert prime_coverage(185, 131).sound_bound == 186


def test_coverage_reports_absence():
    # with a tiny scan, large 1/9-ending primes cannot have appeared yet
    report = prime_coverage(10, 131)
    assert 131 in report.missing


# ---------------------------------------------------------------------------
# full-scale invariants (these are the heavier scans)
# ---------------------------------------------------------------------------

def test_symmetry_main_2000_invariant(symmetry_main_2000):
    report = symmetry_main_2000
    assert report.clean
    assert report.checked == 1722


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_symmetry_quadratic_1000_invariant(k):
    report = verify_symmetry(quadratic(k), 1000)
    assert report.clean
