"""The gcd-filtered sequence families and the routes that compute their terms.

A term of the main sequence at index n >= 3 is

    a(n) = x / gcd(x, y),   x = n^2 - n - 1,   y = b(n-3) + n*b(n-4)

and the generalized families swap in a different numerator and partner.
Every partner has the form y = c*b(t) + e*b(t-1):

    family    x                  t     c   e
    quad:k    n^2 + (k-2)n - k   n-3   k   n
    linear:k  (k+1)n - k         n-2   1   k

``main`` is ``quad:1``, and ``_form`` is the one place these forms are
written. In every row x = c(t+2) + e(t+1), so b(t) = (t+2)*!(t+1)/2 (``!`` is
the left factorial, see ``recurrences``) and !(t+1) = !t + t! give, for every
t >= 0,

    2*partner = x*!t + c*(t+2)*t!

For main (c = 1, t = n-3) this proves the factorial-replacement law that
``verify_factorial_replacement`` still checks: x = n(n-1) - 1 is odd, so
gcd(x, partner) = gcd(x, 2*partner) = gcd(x, (n-1)*(n-3)!), and
x = (n-2)(n+1) + 1 is prime to n-2, so this is gcd(x, (n-1)!) for every
n >= 3 (by hand: gcd(5, 1) = gcd(5, 2!) and gcd(11, 7) = gcd(11, 3!)).
Its partner side reads y mod x as ``scan`` does, which is (n-3)! mod 2x
through the identity above. Its (n-1)! side reads (n-1)! mod x from a
second ``_backend.Factorials`` walk, over m = n-1 with the modulus x(m+1),
from any start, and never from the column. ``fastpath`` and the tests tie
the column to the exact route and to the paper's second-order chain.

The partner reaches a record by one of three routes. They must agree
residue for residue, which is record for record: every route takes x from
``_form``, and ``_record`` makes d, a and the class from x and the
residue. The routes are:

* exact (``Strategy.EXACT_BIGINT``): the partner form on exact b;
* column (``scan``): the partner residues of a partner form are kept once
  per process, in an append-only column of y mod x per n (``main`` and
  ``quad:1`` share one), and a scan reads them. One ``_backend.Factorials``
  walk, built with the map t -> 2x, fills the column. It holds the exact t!
  at every 64th t and reduces it once per block of 64 terms, mod the
  product of the block's moduli 2x, so each term reads t! mod 2x, and
  ``_backend.b_mod_pair`` turns that into y mod x by the identity below, as
  the single-term route does. A scan past the column's end grows it, in one
  loop with one ``b_mod_pair`` per term, and the walk reads on from where
  it stopped, listing each block to its end once, so no term is walked
  twice in a process; the scan then reads a slice of the column. A range
  that starts farther past the column's end than it is long would spend
  most of its time walking up to it, so it takes the single-term route per
  term and leaves the column as it is (``_partner_residues`` is the one place
  that chooses). The column is an ``array('Q')`` of 8 bytes a residue
  until the first residue of 2**64 or more, which only families with a
  large k reach; then it widens to a list of ints and goes on growing, so
  those families stay exact. A Rowland scan has no partner and reads no
  column;
* single term (``term`` with ``Strategy.MODULAR_FAST``): the identity with
  F = ``_backend.factorial_mod(t, 2x)``, which chooses its own route by
  (t, 2x) and returns 1 at t = 0 and t = 1.

For t < 2 the identity needs no factorial: !t = t and t! = 1, so
2*partner = x*t + c*(t+2) exactly. For t >= 2 the left factorial
!t = 0! + 1! + (2! + ... + (t-1)!) is 2 plus a sum of even numbers, so
x*!t = 0 (mod 2x) and the identity gives 2*(partner mod x) = c*(t+2)*F
mod 2x with F = t! mod 2x. Both cases are 2*(partner mod x) =
(x*[t = 1] + c*(t+2)*F) mod 2x, which ``_backend.partner_from_factorial``
halves for the column and the single term alike; only F differs in where
it comes from.

The Rowland sequence is carried as a degenerate family whose "terms" are its
first differences.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

from . import _backend
from .bfile import read_int
from .errors import EmptyRange, IndexBelowDomain, UnsupportedFamily
from .primality import Verdict, is_prime
from .recurrences import _RecurrenceCache, b, rowland_diff


class Kind(Enum):
    MAIN = "main"
    QUADRATIC = "quad"
    LINEAR = "linear"
    ROWLAND = "rowland"

    __hash__ = object.__hash__  # identity, as Enum equality is: no Python-level hash per lookup


# Per-record code reads Enum members from module names like this one and values
# from ``_value_``: Python 3.11's ``EnumType`` defines ``__getattr__``, which
# puts a Python-level hook in every ``Kind.ROWLAND``, and ``value`` is a
# Python-level property (README, Library).
_ROWLAND = Kind.ROWLAND


class _FamilyFields(NamedTuple):
    kind: Kind
    k: int | None = None


class FamilySpec(_FamilyFields):
    """Which sequence to compute; ``k`` only applies to quad/linear."""

    __slots__ = ()

    def __new__(cls, kind: Kind, k: int | None = None):
        if kind in (Kind.QUADRATIC, Kind.LINEAR):
            if k is None or k < 1:
                raise ValueError(f"{kind.value} family needs integer k >= 1")
        elif k is not None:
            raise ValueError(f"{kind.value} family takes no parameter")
        return super().__new__(cls, kind, k)

    @property
    def first_index(self) -> int:
        return 1 if self.kind is _ROWLAND else 3

    def __str__(self):
        if self.k is not None:
            return f"{self.kind._value_}:{self.k}"
        return self.kind._value_

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

    __hash__ = object.__hash__


class Classification(Enum):
    ONE = "one"
    PRIME = "prime"
    COMPOSITE = "composite"

    __hash__ = object.__hash__


_EXACT_BIGINT, _MODULAR_FAST = Strategy.EXACT_BIGINT, Strategy.MODULAR_FAST
_ONE, _PRIME, _COMPOSITE = Classification.ONE, Classification.PRIME, Classification.COMPOSITE


class TermRecord(NamedTuple):
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
            "class": self.classification._value_,
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


@lru_cache(maxsize=128)
def _form(family: FamilySpec):
    """n -> (x, t, c, e): the numerator x and the partner form, c*b(t) + e*b(t-1).

    The function does not check n; a run over a checked range calls it per
    term without ``_definition``'s checks. It is built once per family.
    """
    k = quadratic_k(family)
    if k is not None:
        return lambda n: (n * n + (k - 2) * n - k, n - 3, k, n)
    if family.kind is Kind.LINEAR:
        k = family.k
        return lambda n: ((k + 1) * n - k, n - 2, 1, k)
    raise UnsupportedFamily(f"{family} has no numerator or gcd partner")


def _definition(family: FamilySpec, n: int) -> tuple[int, int, int, int]:
    """(x, t, c, e) of term n, as ``_form`` gives it, for n in the family's domain."""
    _check_index(family, n)
    return _form(family)(n)


def numerator(family: FamilySpec, n: int) -> int:
    """The unreduced term: the quadratic or linear form evaluated at n."""
    return _definition(family, n)[0]


def gcd_partner(family: FamilySpec, n: int) -> int:
    """The quantity paired with the numerator inside the gcd, at full precision."""
    _, t, c, e = _definition(family, n)
    return c * b(t) + e * b(t - 1)


_PRIME_VERDICTS = (Verdict.PRIME, Verdict.PROBABLE_PRIME)


def _record(family: FamilySpec, n: int, x: int, y_mod_x: int, d: int | None = None) -> TermRecord:
    """The record of term n from its numerator and partner residue: d, a, class.

    d is gcd(x, y_mod_x) unless given; a Rowland record, which has no
    partner, passes d = 1. It is one Python call per term: the class is
    read from ``is_prime`` here, and the record is built as ``NamedTuple``
    builds one, by ``tuple.__new__``.
    """
    if d is None:
        d = math.gcd(x, y_mod_x)
    a = x // d
    if a == 1:
        cls = _ONE
    else:
        cls = _PRIME if is_prime(a).verdict in _PRIME_VERDICTS else _COMPOSITE
    return tuple.__new__(TermRecord, (family, n, x, y_mod_x, d, a, cls))


def _partner_residue(x: int, t: int, c: int, e: int) -> int:
    """The gcd partner c*b(t) + e*b(t-1) mod its numerator x, never
    materialized: one ``_backend.factorial_mod(t, 2x)``, halved by
    ``_backend.partner_from_factorial`` (module docstring).
    """
    return _backend.partner_from_factorial(t, x, c, _backend.factorial_mod(t, 2 * x))


def _term(family: FamilySpec, n: int, strategy: Strategy) -> TermRecord:
    """The record of term n, with the partner mod x by ``strategy``."""
    if family.kind is _ROWLAND:
        _check_index(family, n)
        diff = rowland_diff(n)
        return _record(family, n, diff, 0, 1)
    x, t, c, e = _definition(family, n)
    if strategy is _EXACT_BIGINT:
        y_mod_x = gcd_partner(family, n) % x
    else:
        y_mod_x = _partner_residue(x, t, c, e)
    return _record(family, n, x, y_mod_x)


def term(family: FamilySpec, n: int, strategy: Strategy = Strategy.MODULAR_FAST) -> TermRecord:
    """Compute one term; both strategies produce identical records.

    ``MODULAR_FAST`` reads t! mod 2x from one ``_backend.factorial_mod``
    call, so a single term far out costs at most a factorisation of x or
    t/64 strides, never an O(n) chain or a walk up from t = 0.
    """
    return _term(family, n, strategy)


class _ResidueColumn(_RecurrenceCache):
    """The partner residues y mod x of one partner form, n = 3, 4, ...

    It grows under the ``_RecurrenceCache`` lock, in one loop that reads
    t! mod 2x of each term from a single ``Factorials`` walk, built on the
    first growth with the map t -> 2x, and turns it into y mod x with
    ``b_mod_pair``. Every growth reads on where the column ends, so no term
    is walked twice. The residues are an ``array('Q')`` until the first of
    2**64 or more, which widens them to a list, and the column goes on
    growing.
    """

    def __init__(self, family: FamilySpec):
        super().__init__(family.first_index, (), None)
        self._form, self._walk = _form(family), None
        self._terms = array("Q")  # 8 bytes a residue, in place of the list

    def _grow(self, pos):
        form, first, terms = self._form, self._first, self._terms
        if self._walk is None:
            shift = first - form(first)[1]  # n - t, the same for every n
            self._walk = _backend.Factorials(
                lambda t: 2 * form(t + shift)[0], first - shift)
        walk = self._walk
        for n in range(first + len(terms), first + pos + 1):
            x, t, c, _ = form(n)
            y = _backend.b_mod_pair(t, x, walk, c)
            try:
                terms.append(y)
            except OverflowError:  # a residue of 2**64 or more: widen
                terms = self._terms = list(terms)
                terms.append(y)

    def residues(self, n_from: int, n_to: int):
        """The residues held for n_from..n_to."""
        return self._terms[n_from - self._first:n_to - self._first + 1]


_COLUMNS: dict[FamilySpec, _ResidueColumn] = {}


def _column(family: FamilySpec) -> _ResidueColumn:
    """The process's column for the partner form of ``family`` (main is quad:1)."""
    key = quadratic(1) if family.kind is Kind.MAIN else family
    column = _COLUMNS.get(key)
    if column is None:
        column = _COLUMNS.setdefault(key, _ResidueColumn(key))
    return column


def _partner_residues(family: FamilySpec, n_from: int, n_to: int):
    """y mod x for n_from..n_to, ascending: the one place a scan's route is chosen.

    Both routes compute y mod x from t! mod 2x through the partner identity
    (module docstring). A range that starts farther past the column's end
    than it is long takes the single-term route per term, lazily (t! mod 2x
    from ``_backend.factorial_mod``), and leaves the column as it is. Any
    other range extends the column to n_to, walking t! mod 2x with
    ``Factorials``, and reads a slice of it.
    """
    column = _column(family)
    if n_from - column.high_water - 1 > n_to - n_from:
        form = _form(family)
        return (_partner_residue(*form(n)) for n in range(n_from, n_to + 1))
    column.value(n_to)
    return column.residues(n_from, n_to)


def scan(family: FamilySpec, n_from: int, n_to: int) -> Iterator[TermRecord]:
    """Yield records for n_from..n_to inclusive, in ascending n.

    The partner residues come from the family's column, or from the
    single-term route per term when the range starts far past the column's end (module
    docstring). A Rowland scan has no partner and reads no column.
    """
    _check_range(family, n_from, n_to)
    if family.kind is _ROWLAND:
        for n in range(n_from, n_to + 1):
            yield _term(family, n, _MODULAR_FAST)
        return
    form = _form(family)
    for n, y_mod_x in zip(range(n_from, n_to + 1), _partner_residues(family, n_from, n_to)):
        yield _record(family, n, form(n)[0], y_mod_x)


def gcd_via_factorial(n: int, x: int) -> int:
    """gcd(x, (n-1)!) from one ``_backend.factorial_mod(n - 1, x)``: the
    table below n = 4097, then the factors of x while its odd part is below
    2**64, else strides (``_backend``'s docstring).
    """
    if n < 3:
        raise IndexBelowDomain(f"defined for n >= 3, got {n}")
    return math.gcd(x, _backend.factorial_mod(n - 1, x))


class FactorialReplacementReport(NamedTuple):
    """Whether gcd(x, partner) == gcd(x, (n-1)!) across a main-sequence range."""

    n_from: int
    n_to: int
    checked: int
    counterexamples: tuple[tuple[int, int, int], ...]  # (n, d_partner, d_factorial)

    @property
    def clean(self):
        return not self.counterexamples


def verify_factorial_replacement(n_from: int = 3, n_to: int = 2000) -> FactorialReplacementReport:
    """gcd(x, partner) against gcd(x, (n-1)!) for every n in the range.

    The partner side reads main's residues as ``scan`` does, from the
    column or by the single-term route per n when n_from is far out: either
    way (n-3)! mod 2x through the partner identity. The factorial side reads
    (n-1)! mod x from a second walk, a ``Factorials`` walk over m = n-1 with
    modulus x(m+1), one ``%`` per block of 64, which the partner side never
    reads. A far start costs that walk one ``math.perm`` to reach it. Both
    sides rest on factorials; ``fastpath`` and the tests tie the column to
    the exact route and to the paper's second-order chain.
    """
    _check_range(MAIN, n_from, n_to)
    form = _form(MAIN)
    walk = _backend.Factorials(lambda m: form(m + 1)[0], n_from - 1)
    bad = []
    checked = 0
    for n, y_mod_x in zip(range(n_from, n_to + 1), _partner_residues(MAIN, n_from, n_to)):
        x = form(n)[0]
        d_partner = math.gcd(x, y_mod_x)
        d_fact = math.gcd(x, walk.at(n - 1, x))
        checked += 1
        if d_partner != d_fact:
            bad.append((n, d_partner, d_fact))
    return FactorialReplacementReport(n_from, n_to, checked, tuple(bad))


class StrategyEquivalenceReport(NamedTuple):
    families: tuple[str, ...]
    n_to: int
    checked: int
    mismatches: tuple[dict, ...]

    @property
    def clean(self):
        return not self.mismatches


def verify_strategy_equivalence(specs, n_to: int) -> StrategyEquivalenceReport:
    """Recompute every term's partner residue by each route and compare them.

    Per term, the exact residue ``gcd_partner % x`` and the single-term
    route's ``_partner_residue`` (one ``_backend.factorial_mod`` call) are
    compared with the residue a scan reads from the family's column. This
    is the record-for-record check: on every
    route x comes from ``_form``, and d, a and the class are functions of
    (x, y_mod_x) through ``_record``, so two records are equal exactly
    when their residues are.
    A mismatch lists the exact and modular records, and the scanned one
    under ``"scan"`` when that is the one that differs.
    Rowland has no partner, so it raises ``UnsupportedFamily``.
    """
    mismatches = []
    checked = 0
    for family in specs:
        first = family.first_index
        _check_range(family, first, n_to)
        form = _form(family)
        for n, scanned in zip(range(first, n_to + 1), _partner_residues(family, first, n_to)):
            x, t, c, e = form(n)
            exact = gcd_partner(family, n) % x
            fast = _partner_residue(x, t, c, e)
            checked += 1
            if exact != fast or exact != scanned:
                mismatch = {"family": str(family), "n": n,
                            "exact": _record(family, n, x, exact).as_dict(),
                            "modular": _record(family, n, x, fast).as_dict()}
                if exact != scanned:
                    mismatch["scan"] = _record(family, n, x, scanned).as_dict()
                mismatches.append(mismatch)
    return StrategyEquivalenceReport(
        tuple(str(f) for f in specs), n_to, checked, tuple(mismatches)
    )
