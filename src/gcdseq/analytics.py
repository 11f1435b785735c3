"""Prime-yield statistics and the side-by-side Rowland comparison.

"Efficiency" has no canonical definition, so two artifact-defined metrics
are reported for the first N terms of a family: the number of distinct
primes produced, and the share of ones. For term families the measured
items are the term values a(n); for the Rowland sequence they are the
first differences r(n+1) - r(n) of its first N terms (N-1 differences).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyRange
from .families import Classification, FamilySpec, Kind, MAIN, ROWLAND, scan


@dataclass(frozen=True)
class EfficiencyReport:
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


def efficiency(family: FamilySpec, count: int, window: int | None = None) -> EfficiencyReport:
    """Measure the first ``count`` terms (differences, for Rowland)."""
    if count < 1:
        raise EmptyRange(f"need at least one term, got {count}")
    if window is None:
        window = max(1, count // 10)
    first = family.first_index
    if family.kind is Kind.ROWLAND:
        records = scan(family, 1, count - 1) if count > 1 else iter(())
    else:
        records = scan(family, first, first + count - 1)

    ones = prime_terms = composite_terms = measured = 0
    seen: set[int] = set()
    rate: list[int] = []
    new_in_window = 0
    for rec in records:
        measured += 1
        if rec.classification is Classification.ONE:
            ones += 1
        elif rec.classification is Classification.PRIME:
            prime_terms += 1
            if rec.a not in seen:
                seen.add(rec.a)
                new_in_window += 1
        else:
            composite_terms += 1
        if measured % window == 0:
            rate.append(new_in_window)
            new_in_window = 0
    if measured % window:
        rate.append(new_in_window)
    return EfficiencyReport(
        family=str(family),
        terms=count,
        measured=measured,
        ones=ones,
        prime_terms=prime_terms,
        composite_terms=composite_terms,
        distinct_primes=len(seen),
        max_prime=max(seen) if seen else None,
        primes=tuple(sorted(seen)),
        new_prime_rate=tuple(rate),
        window=window,
    )


@dataclass(frozen=True)
class CompareReport:
    terms: int
    main: EfficiencyReport
    rowland: EfficiencyReport
    distinct_prime_ratio: float | None
    main_ones_share: float
    rowland_ones_share: float | None


def compare(count: int) -> CompareReport:
    """Both efficiency reports plus ratios; pure function of ``count``."""
    main_report = efficiency(MAIN, count)
    rowland_report = efficiency(ROWLAND, count)
    ratio = (
        main_report.distinct_primes / rowland_report.distinct_primes
        if rowland_report.distinct_primes
        else None
    )
    return CompareReport(
        terms=count,
        main=main_report,
        rowland=rowland_report,
        distinct_prime_ratio=ratio,
        main_ones_share=main_report.ones / main_report.measured,
        rowland_ones_share=(
            rowland_report.ones / rowland_report.measured if rowland_report.measured else None
        ),
    )
