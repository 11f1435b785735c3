"""Batch verification of the sequences' conjectured laws.

Every verifier scans exactly, classifies with :func:`is_prime`, and returns
an immutable report whose ``clean`` property says whether any violation was
found. No report proves anything: a clean report only covers the scanned
range, and a violation is returned as data, never patched over.

Conventions for the bound argument follow each operation's contract:
``verify_primes_or_one`` and ``verify_triple_rule_a2`` take a term COUNT
(scan starts at the family's first index), while ``verify_symmetry``,
``verify_pair_identities`` and ``prime_coverage`` take an index BOUND
(scan covers first_index..n_max inclusive).

Symmetry, pairs, triple, coverage and ``analytics.efficiency`` read one tally
of their scan, an :class:`OccurrenceIndex`. ``verify_primes_or_one`` streams:
it needs only counts, and an index of its 10,000-term default scan would
hold every prime occurrence at once.

For main the 1-or-prime law is proved; the scans still compute it. Let
x = x(n) = n^2 - n - 1 and P+(x) its largest prime factor. Then a(n) = P+(x)
if P+(x) >= n, and a(n) = 1 otherwise. By the factorial-replacement law (see
``families``), a(n) = x / gcd(x, (n-1)!). Since x < n^2, at most one prime
factor of x, counted with multiplicity, is >= n, and it divides a(n), as
(n-1)! has no prime factor >= n. It is left to show that every p^e || x
with p < n has e <= v = v_p((n-1)!), so that p does not divide a(n). x is
odd, so p is odd.

- If (n-1)/2 < p <= n-1, then v = 1. If p^2 divides x, then x/p^2 is odd
  and below 4, because n <= 2p gives x < n^2 <= 4p^2; so it is 1 or 3. But
  (n-1)^2 < x < n^2 for n >= 3, so x is not a square, and x = 3p^2 would
  make (2n-1)^2 = 4x + 5 = 2 (mod 3).
- If p <= (n-1)/2, let j = (n-1) // p >= 2. Then v >= j and n <= (j+1)p,
  so x < (j+1)^2 p^2 <= p^(j+1) <= p^(v+1) whenever p^(j-1) >= (j+1)^2.
  At j = 2 that holds for every p >= 9, and once it holds for some j >= 2
  it holds for j + 1 too, since p^j >= 2(j+1)^2 >= (j+2)^2. So it fails
  only for p = 2 (j <= 6), p = 3 (j <= 3), p = 5 and p = 7 (j = 2), all
  with n <= 21. Among those n, p^(v+1) <= x for 13 pairs (n, p), and
  p^(v+1) divides x for none of them (``test_conjectures`` derives the
  pairs from the inequality and checks each one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import UnsupportedFamily
from .families import (
    MAIN,
    Classification,
    FamilySpec,
    Kind,
    numerator,
    quadratic,
    quadratic_k,
    scan,
    term,
)
from .primality import Verdict, is_prime


@dataclass(frozen=True)
class PrimesOrOneReport:
    family: str
    terms: int
    ones: int
    primes: int
    composites: tuple[tuple[int, int], ...]  # (n, value)
    probable_primes: int

    @property
    def clean(self):
        return not self.composites and self.probable_primes == 0


def verify_primes_or_one(family: FamilySpec, count: int) -> PrimesOrOneReport:
    """Classify the first ``count`` terms of a family."""
    if family.kind is Kind.ROWLAND:
        raise UnsupportedFamily("rowland terms are measured by analytics.efficiency")
    first = family.first_index
    ones = primes = probable = 0
    composites = []
    for rec in scan(family, first, first + count - 1):
        if rec.classification is Classification.ONE:
            ones += 1
        elif rec.classification is Classification.PRIME:
            primes += 1
            if is_prime(rec.a).verdict is Verdict.PROBABLE_PRIME:
                probable += 1
        else:
            composites.append((rec.n, rec.a))
    return PrimesOrOneReport(str(family), count, ones, primes, tuple(composites), probable)


@dataclass(frozen=True)
class OccurrenceIndex:
    """The tally of one scan: its ones, and the indices that produced each value."""

    family: str
    scanned_upto: int
    ones: int
    prime_occurrences: Mapping[int, tuple[int, ...]]
    composite_occurrences: Mapping[int, tuple[int, ...]]

    @classmethod
    def of(cls, family: FamilySpec, n_max: int, records) -> "OccurrenceIndex":
        """Tally ``records``, the scan of ``family`` up to index ``n_max``."""
        ones = 0
        buckets: dict = {Classification.PRIME: {}, Classification.COMPOSITE: {}}
        for rec in records:
            if rec.classification is Classification.ONE:
                ones += 1
            else:
                buckets[rec.classification].setdefault(rec.a, []).append(rec.n)
        primes, composites = ({v: tuple(idx) for v, idx in bucket.items()}
                              for bucket in buckets.values())
        return cls(str(family), n_max, ones, primes, composites)


def occurrence_index(family: FamilySpec, n_max: int) -> OccurrenceIndex:
    return OccurrenceIndex.of(family, n_max, scan(family, family.first_index, n_max))


@dataclass(frozen=True)
class SymmetryReport:
    family: str
    n_max: int
    checked: int
    violations: tuple[tuple[int, int, int, int], ...]  # (n, p, mirror, a(mirror))
    out_of_domain: tuple[tuple[int, int, int], ...]    # (n, p, mirror)

    @property
    def clean(self):
        return not self.violations


def verify_symmetry(family: FamilySpec, n_max: int) -> SymmetryReport:
    """Check the mirror law a(p - n - k + 2) = p of quad:k (main is k = 1)
    for every prime term a(n) = p with index <= n_max.

    Mirror indices beyond the scanned range are computed on demand; mirrors
    below the first index are recorded separately, not counted as violations.

    For main the law is proved; the scan still computes it. Let m = p - n + 1
    >= 3. Then x(m) - x(n) = (m - n)(m + n - 1) = (m - n)p, and p divides
    x(n), so x(m) = x(n) = 0 (mod p). The cofactor q = x(m)/p is below m - 1,
    because p = m + n - 1 >= m + 2 and (m - 1)(m + 2) > m^2 - m - 1 = x(m),
    so q divides (m-1)!. The prime p > m - 1 does not. By the
    factorial-replacement law (see ``families``), d(m) = gcd(pq, (m-1)!) = q,
    and a(m) = x(m)/q = p.
    """
    k = quadratic_k(family)
    if k is None:
        raise UnsupportedFamily(f"mirror law not defined for {family}")
    index = occurrence_index(family, n_max)
    occurrences = sorted((n, p) for p, occ in index.prime_occurrences.items() for n in occ)
    violations = []
    out_of_domain = []
    for n, p in occurrences:
        mirror = p - n - k + 2
        if mirror < family.first_index:
            out_of_domain.append((n, p, mirror))
            continue
        mirrored = term(family, mirror).a
        if mirrored != p:
            violations.append((n, p, mirror, mirrored))
    return SymmetryReport(str(family), n_max, len(occurrences), tuple(violations),
                          tuple(out_of_domain))


@dataclass(frozen=True)
class PairIdentityReport:
    """Pairing laws over the main sequence up to an index bound.

    For a prime value p seen at exactly two indices n < m the two identities
    checked are p == n + m - 1 and p == gcd(n^2-n-1, m^2-m-1). A prime other
    than 5 seen once whose expected partner p-n+1 lies inside the range also
    counts as a violation (its partner should have shown up); singletons
    whose partner lies beyond the range stay open.

    ``gcd_violations`` records the gcd form literally as stated. Because
    x(n) - x(m) = (n - m) * p, the gcd is p times a divisor of m - n, so
    entries are expected wherever x(n) and x(m) share a factor dividing
    m - n (the first is 3781 = 19 * 199 at n = 62, m = 138). They still
    count towards ``violations``.
    """

    n_max: int
    pairs_checked: int
    additive_violations: tuple[tuple[int, int, int], ...]        # (p, n, m)
    gcd_violations: tuple[tuple[int, int, int, int], ...]        # (p, n, m, gcd)
    multiplicity_violations: tuple[tuple[int, tuple[int, ...]], ...]
    missing_partner: tuple[tuple[int, int, int], ...]            # (p, n, expected m)
    open_singletons: int

    @property
    def violations(self):
        return (
            self.additive_violations
            + self.gcd_violations
            + self.multiplicity_violations
            + self.missing_partner
        )

    @property
    def clean(self):
        return not self.violations


def verify_pair_identities(family: FamilySpec, n_max: int) -> PairIdentityReport:
    if family.kind is not Kind.MAIN:
        raise UnsupportedFamily("pair identities are a main-sequence law")
    index = occurrence_index(family, n_max)
    pairs_checked = 0
    additive = []
    gcds = []
    multiplicity = []
    missing = []
    open_singletons = 0
    for p, occ in sorted(index.prime_occurrences.items()):
        if p == 5:
            # 5 is the one allowed singleton (it mirrors onto itself).
            if occ != (3,):
                multiplicity.append((p, occ))
            continue
        if len(occ) == 1:
            n = occ[0]
            partner = p - n + 1
            if partner <= n_max and partner >= family.first_index:
                missing.append((p, n, partner))
            else:
                open_singletons += 1
            continue
        if len(occ) > 2:
            multiplicity.append((p, occ))
            continue
        n, m = occ
        pairs_checked += 1
        if p != n + m - 1:
            additive.append((p, n, m))
        g = math.gcd(numerator(family, n), numerator(family, m))
        if p != g:
            gcds.append((p, n, m, g))
    return PairIdentityReport(
        n_max,
        pairs_checked,
        tuple(additive),
        tuple(gcds),
        tuple(multiplicity),
        tuple(missing),
        open_singletons,
    )


@dataclass(frozen=True)
class TripleRuleReport:
    """The three-occurrence law of quad:2 over a scanned prefix.

    Primes seen at least three times must satisfy a_2(p + n) = p with n the
    first occurrence index; multiplicities of every repeated prime are
    reported so incomplete triples can be told apart from genuine pairs.
    """

    terms: int
    multiplicities: tuple[tuple[int, tuple[int, ...]], ...]
    triples_checked: int
    violations: tuple[tuple[int, tuple[int, ...], int, int], ...]

    @property
    def clean(self):
        return not self.violations


def verify_triple_rule_a2(count: int) -> TripleRuleReport:
    family = quadratic(2)
    n_max = family.first_index + count - 1
    index = occurrence_index(family, n_max)
    multiplicities = []
    violations = []
    triples_checked = 0
    for p, occ in sorted(index.prime_occurrences.items()):
        if len(occ) < 2:
            continue
        multiplicities.append((p, occ))
        if len(occ) < 3:
            continue
        triples_checked += 1
        n0 = occ[0]
        third = term(family, p + n0).a
        if third != p:
            violations.append((p, occ, p + n0, third))
        if len(occ) > 3:
            violations.append((p, occ, -1, -1))
    return TripleRuleReport(count, tuple(multiplicities), triples_checked, tuple(violations))


@dataclass(frozen=True)
class CoverageReport:
    """Primes ending in 1 or 9 that the scanned main-sequence prefix missed.

    ``sound_bound`` is the largest value bound for which absence is
    conclusive: every non-one term satisfies a(n) > n, so a value p can only
    appear at indices n < p, all of which were scanned when p <= n_max + 1.
    """

    n_max: int
    bound: int
    candidates: int
    present: int
    missing: tuple[int, ...]
    sound_bound: int

    @property
    def clean(self):
        return not self.missing


def prime_coverage(n_max: int, bound: int) -> CoverageReport:
    seen = occurrence_index(MAIN, n_max).prime_occurrences
    candidates = [p for p in range(11, bound + 1, 2)
                  if p % 10 in (1, 9) and is_prime(p).verdict is Verdict.PRIME]
    missing = tuple(p for p in candidates if p not in seen)
    return CoverageReport(n_max, bound, len(candidates), len(candidates) - len(missing),
                          missing, n_max + 1)
