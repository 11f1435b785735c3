"""The gcd-filtered sequence families and their two term-computation strategies.

A term of the main sequence at index n >= 3 is

    a(n) = x / gcd(x, y),   x = n^2 - n - 1,   y = b(n-3) + n*b(n-4)

and the generalized families swap in a different numerator and partner.
Every partner has the form y = c*b(t) + e*b(t-1):

    family    x                  t     c   e
    quad:k    n^2 + (k-2)n - k   n-3   k   n
    linear:k  (k+1)n - k         n-2   1   k

``main`` is ``quad:1``, and ``_definition`` is the one place these forms are
written. In every row x = c(t+2) + e(t+1), so b(t) = (t+2)*!(t+1)/2 (``!`` is
the left factorial, see ``recurrences``) and !(t+1) = !t + t! give, for every
t >= 0,

    2*partner = x*!t + c*(t+2)*t!

For main (c = 1, t = n-3) this proves the factorial-replacement law that
``verify_factorial_replacement`` still checks: x = n(n-1) - 1 is odd, so
gcd(x, partner) = gcd(x, 2*partner) = gcd(x, (n-1)*(n-3)!), and
x = (n-2)(n+1) + 1 is prime to n-2, so this is gcd(x, (n-1)!) for every
n >= 3 (by hand: gcd(5, 1) = gcd(5, 2!) and gcd(11, 7) = gcd(11, 3!)).

Each term can be computed two ways: evaluate the partner form on
exact b (ExactBigInt), or on the pair (b(t-1), b(t)) mod x that the b-chain
yields when it runs entirely in residues (ModularFast); the two must agree
field for field. The Rowland sequence is carried as a degenerate family
whose "terms" are its first differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from . import _backend
from .bfile import read_int
from .errors import EmptyRange, IndexBelowDomain, UnsupportedFamily
from .primality import Verdict, is_prime
from .recurrences import b, rowland_diff


class Kind(Enum):
    MAIN = "main"
    QUADRATIC = "quad"
    LINEAR = "linear"
    ROWLAND = "rowland"


@dataclass(frozen=True)
class FamilySpec:
    """Which sequence to compute; ``k`` only applies to quad/linear."""

    kind: Kind
    k: int | None = None

    def __post_init__(self):
        if self.kind in (Kind.QUADRATIC, Kind.LINEAR):
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind.value} family needs integer k >= 1")
        elif self.k is not None:
            raise ValueError(f"{self.kind.value} family takes no parameter")

    @property
    def first_index(self) -> int:
        return 1 if self.kind is Kind.ROWLAND else 3

    def __str__(self):
        if self.k is not None:
            return f"{self.kind.value}:{self.k}"
        return self.kind.value

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse ``main | quad:<k> | linear:<k> | rowland``."""
        name, _, param = text.strip().partition(":")
        try:
            kind = Kind(name)
        except ValueError:
            raise ValueError(f"unknown family {text!r}") from None
        if kind in (Kind.QUADRATIC, Kind.LINEAR):
            if not param:
                raise ValueError(f"{name} family needs a parameter, e.g. {name}:2")
            try:
                k = read_int(param)
            except ValueError:
                raise ValueError(f"bad family parameter {param!r}") from None
            return cls(kind, k)
        if param:
            raise ValueError(f"{name} family takes no parameter")
        return cls(kind)


MAIN = FamilySpec(Kind.MAIN)
ROWLAND = FamilySpec(Kind.ROWLAND)


def quadratic(k: int) -> FamilySpec:
    return FamilySpec(Kind.QUADRATIC, k)


def linear(k: int) -> FamilySpec:
    return FamilySpec(Kind.LINEAR, k)


class Strategy(Enum):
    EXACT_BIGINT = "exact"
    MODULAR_FAST = "modular"


class Classification(Enum):
    ONE = "one"
    PRIME = "prime"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class TermRecord:
    """One computed term: a*d == x exactly, y_mod_x is the partner mod x."""

    family: FamilySpec
    n: int
    x: int
    y_mod_x: int
    d: int
    a: int
    classification: Classification

    def as_dict(self):
        return {
            "family": str(self.family),
            "n": self.n,
            "x": self.x,
            "y_mod_x": self.y_mod_x,
            "d": self.d,
            "a": self.a,
            "class": self.classification.value,
        }


def _check_index(family: FamilySpec, n: int):
    if n < family.first_index:
        raise IndexBelowDomain(
            f"{family} starts at n={family.first_index}, got n={n}"
        )


def _check_range(family: FamilySpec, n_from: int, n_to: int):
    _check_index(family, n_from)
    if n_from > n_to:
        raise EmptyRange(f"empty range {n_from}..{n_to}")


def quadratic_k(family: FamilySpec) -> int | None:
    """The k for which ``family`` is quad:k (``main`` is quad:1), else None."""
    if family.kind is Kind.MAIN:
        return 1
    return family.k if family.kind is Kind.QUADRATIC else None


def _definition(family: FamilySpec, n: int) -> tuple[int, int, int, int]:
    """(x, t, c, e): the numerator x and the partner form, c*b(t) + e*b(t-1)."""
    _check_index(family, n)
    k = quadratic_k(family)
    if k is not None:
        return n * n + (k - 2) * n - k, n - 3, k, n
    if family.kind is Kind.LINEAR:
        return (family.k + 1) * n - family.k, n - 2, 1, family.k
    raise UnsupportedFamily(f"{family} has no numerator or gcd partner")


def numerator(family: FamilySpec, n: int) -> int:
    """The unreduced term: the quadratic or linear form evaluated at n."""
    return _definition(family, n)[0]


def gcd_partner(family: FamilySpec, n: int) -> int:
    """The quantity paired with the numerator inside the gcd, at full precision."""
    _, t, c, e = _definition(family, n)
    return c * b(t) + e * b(t - 1)


def gcd_partner_residue(family: FamilySpec, n: int, x: int) -> int:
    """The gcd partner reduced mod x, never materializing it.

    The whole b-chain runs in residues mod x, so gcd(x, result) equals
    gcd(x, partner) while every intermediate stays below x.
    """
    _, t, c, e = _definition(family, n)
    b_prev, b_cur = _backend.b_mod_pair(t, x)  # b(t-1), b(t)
    return (c * b_cur + e * b_prev) % x


def _classify(a: int) -> Classification:
    if a == 1:
        return Classification.ONE
    v = is_prime(a)
    if v.verdict in (Verdict.PRIME, Verdict.PROBABLE_PRIME):
        return Classification.PRIME
    return Classification.COMPOSITE


def _record(family: FamilySpec, n: int, x: int, y_mod_x: int) -> TermRecord:
    """The record of term n from its numerator and partner residue: d, a, class."""
    d = math.gcd(x, y_mod_x)
    a = x // d
    return TermRecord(family, n, x, y_mod_x, d, a, _classify(a))


def term(family: FamilySpec, n: int, strategy: Strategy = Strategy.MODULAR_FAST) -> TermRecord:
    """Compute one term; both strategies produce identical records."""
    if family.kind is Kind.ROWLAND:
        _check_index(family, n)
        diff = rowland_diff(n)
        return TermRecord(family, n, diff, 0, 1, diff, _classify(diff))
    x = numerator(family, n)
    if strategy is Strategy.EXACT_BIGINT:
        return _record(family, n, x, gcd_partner(family, n) % x)
    return _record(family, n, x, gcd_partner_residue(family, n, x))


def scan(family: FamilySpec, n_from: int, n_to: int) -> Iterator[TermRecord]:
    """Yield records for n_from..n_to inclusive, in ascending n."""
    _check_range(family, n_from, n_to)
    for n in range(n_from, n_to + 1):
        yield term(family, n)


def gcd_via_factorial(n: int, x: int) -> int:
    """gcd(x, (n-1)!) with the factorial built mod x, never materialized."""
    if n < 3:
        raise IndexBelowDomain(f"defined for n >= 3, got {n}")
    return math.gcd(x, _backend.factorial_mod(n - 1, x))


@dataclass(frozen=True)
class FactorialReplacementReport:
    """Whether gcd(x, partner) == gcd(x, (n-1)!) across a main-sequence range."""

    n_from: int
    n_to: int
    checked: int
    counterexamples: tuple[tuple[int, int, int], ...]  # (n, d_partner, d_factorial)

    @property
    def clean(self):
        return not self.counterexamples


def verify_factorial_replacement(n_from: int = 3, n_to: int = 2000) -> FactorialReplacementReport:
    _check_range(MAIN, n_from, n_to)
    bad = []
    checked = 0
    for n in range(n_from, n_to + 1):
        x = numerator(MAIN, n)
        d_partner = math.gcd(x, gcd_partner_residue(MAIN, n, x))
        d_fact = gcd_via_factorial(n, x)
        checked += 1
        if d_partner != d_fact:
            bad.append((n, d_partner, d_fact))
    return FactorialReplacementReport(n_from, n_to, checked, tuple(bad))


@dataclass(frozen=True)
class StrategyEquivalenceReport:
    families: tuple[str, ...]
    n_to: int
    checked: int
    mismatches: tuple[dict, ...]

    @property
    def clean(self):
        return not self.mismatches


def verify_strategy_equivalence(specs, n_to: int) -> StrategyEquivalenceReport:
    """Recompute every term both ways and compare records field for field."""
    mismatches = []
    checked = 0
    for family in specs:
        _check_range(family, family.first_index, n_to)
        for n in range(family.first_index, n_to + 1):
            exact = term(family, n, Strategy.EXACT_BIGINT)
            fast = term(family, n, Strategy.MODULAR_FAST)
            checked += 1
            if exact != fast:
                mismatches.append(
                    {"family": str(family), "n": n,
                     "exact": exact.as_dict(), "modular": fast.as_dict()}
                )
    return StrategyEquivalenceReport(
        tuple(str(f) for f in specs), n_to, checked, tuple(mismatches)
    )
