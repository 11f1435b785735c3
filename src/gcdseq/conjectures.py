"""Batch verification of the sequences' conjectured laws.

Every verifier scans exactly, classifies with :func:`is_prime`, and returns
an immutable report whose ``clean`` property says whether any violation was
found. Nothing here proves anything: a clean report only covers the scanned
range, and a violation is returned as data, never patched over.

Conventions for the bound argument follow each operation's contract:
``verify_primes_or_one`` and ``verify_triple_rule_a2`` take a term COUNT
(scan starts at the family's first index), while ``verify_symmetry``,
``verify_pair_identities`` and ``prime_coverage`` take an index BOUND
(scan covers first_index..n_max inclusive).
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
    """Which indices produced each value, over a scanned prefix."""

    family: str
    scanned_upto: int
    prime_occurrences: Mapping[int, tuple[int, ...]]
    composite_occurrences: Mapping[int, tuple[int, ...]]


def occurrence_index(family: FamilySpec, n_max: int) -> OccurrenceIndex:
    primes: dict[int, list[int]] = {}
    composites: dict[int, list[int]] = {}
    for rec in scan(family, family.first_index, n_max):
        if rec.classification is Classification.ONE:
            continue
        bucket = primes if rec.classification is Classification.PRIME else composites
        bucket.setdefault(rec.a, []).append(rec.n)
    return OccurrenceIndex(
        str(family),
        n_max,
        {v: tuple(idx) for v, idx in primes.items()},
        {v: tuple(idx) for v, idx in composites.items()},
    )


def _mirror_shift(family: FamilySpec) -> int:
    """The k used in the mirror law a(p - n - k + 2) = p."""
    k = quadratic_k(family)
    if k is None:
        raise UnsupportedFamily(f"mirror law not defined for {family}")
    return k


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
    """Check the mirror law for every prime term with index <= n_max.

    Mirror indices beyond the scanned range are computed on demand; mirrors
    below the first index are recorded separately, not counted as violations.
    """
    k = _mirror_shift(family)
    checked = 0
    violations = []
    out_of_domain = []
    for rec in scan(family, family.first_index, n_max):
        if rec.classification is not Classification.PRIME:
            continue
        p = rec.a
        mirror = p - rec.n - k + 2
        checked += 1
        if mirror < family.first_index:
            out_of_domain.append((rec.n, p, mirror))
            continue
        mirrored = term(family, mirror).a
        if mirrored != p:
            violations.append((rec.n, p, mirror, mirrored))
    return SymmetryReport(str(family), n_max, checked, tuple(violations), tuple(out_of_domain))


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
    seen = set()
    for rec in scan(MAIN, 3, n_max):
        if rec.classification is Classification.PRIME:
            seen.add(rec.a)
    missing = []
    candidates = present = 0
    for p in range(11, bound + 1, 2):
        if p % 10 not in (1, 9):
            continue
        if is_prime(p).verdict is not Verdict.PRIME:
            continue
        candidates += 1
        if p in seen:
            present += 1
        else:
            missing.append(p)
    return CoverageReport(n_max, bound, candidates, present, tuple(missing), n_max + 1)
