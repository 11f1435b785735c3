"""Prime-yield statistics and the side-by-side Rowland comparison.

"Efficiency" has no canonical definition, so two artifact-defined metrics
are reported for the first N terms of a family: the number of distinct
primes produced, and the share of ones. For term families the measured
items are the term values a(n); for the Rowland sequence they are the
first differences r(n+1) - r(n) of its first N terms (N-1 differences).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .conjectures import OccurrenceIndex
from .errors import EmptyRange
from .families import FamilySpec, Kind, MAIN, ROWLAND, scan


class EfficiencyReport(NamedTuple):
    family: str
    terms: int
    measured: int
    ones: int
    prime_terms: int
    composite_terms: int
    distinct_primes: int
    max_prime: int | None
    primes: tuple[int, ...]
    new_prime_rate: tuple[int, ...]
    window: int


def efficiency(family: FamilySpec, count: int) -> EfficiencyReport:
    """Measure the first ``count`` terms (differences, for Rowland); new
    primes are counted per window of ``max(1, count // 10)`` items."""
    if count < 1:
        raise EmptyRange(f"need at least one term, got {count}")
    window = max(1, count // 10)
    first = family.first_index
    last = first + count - (2 if family.kind is Kind.ROWLAND else 1)
    index = OccurrenceIndex.of(family, last, scan(family, first, last) if last >= first else ())
    primes = index.prime_occurrences
    prime_terms = sum(map(len, primes.values()))
    composite_terms = sum(map(len, index.composite_occurrences.values()))
    measured = last - first + 1
    rate = [0] * ((measured + window - 1) // window)
    for occ in primes.values():
        rate[(occ[0] - first) // window] += 1
    return EfficiencyReport(
        family=str(family),
        terms=count,
        measured=measured,
        ones=index.ones,
        prime_terms=prime_terms,
        composite_terms=composite_terms,
        distinct_primes=len(primes),
        max_prime=max(primes, default=None),
        primes=tuple(sorted(primes)),
        new_prime_rate=tuple(rate),
        window=window,
    )


class CompareReport(NamedTuple):
    terms: int
    main: EfficiencyReport
    rowland: EfficiencyReport
    distinct_prime_ratio: Fraction | None
    main_ones_share: Fraction
    rowland_ones_share: Fraction | None


def compare(count: int) -> CompareReport:
    """Both efficiency reports plus exact ratios; pure function of ``count``."""
    main_report = efficiency(MAIN, count)
    rowland_report = efficiency(ROWLAND, count)
    ratio = (
        Fraction(main_report.distinct_primes, rowland_report.distinct_primes)
        if rowland_report.distinct_primes
        else None
    )
    return CompareReport(
        terms=count,
        main=main_report,
        rowland=rowland_report,
        distinct_prime_ratio=ratio,
        main_ones_share=Fraction(main_report.ones, main_report.measured),
        rowland_ones_share=(
            Fraction(rowland_report.ones, rowland_report.measured)
            if rowland_report.measured else None
        ),
    )
