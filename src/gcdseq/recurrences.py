"""Exact integer recurrences behind the sequence families.

The auxiliary sequence is defined by

    b(-1) = 0,  b(0) = 1,  b(n) = (n+2) * (b(n-1) - b(n-2))   for n >= 1

and is closely tied to the left factorial !n = sum of k! for 0 <= k < n:
``b(n) = (n+2) * !(n+1) / 2`` with the division exact. The Rowland
sequence r(n) = r(n-1) + gcd(n, r(n-1)), r(1) = 7, is kept here as the
comparison baseline; its first differences are 1's and odd primes
(see OEIS A132199).

All caches grow monotonically under a lock and hand out immutable ints,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import threading
from operator import sub

from .errors import IndexBelowDomain, InexactDivision


class _RecurrenceCache:
    """Append-only term cache addressable from ``first_index`` upward.

    ``step(n, terms)`` produces the term with index n given the list of all
    earlier terms. Single writer under a lock; reads are safe because the
    list only ever grows.
    """

    def __init__(self, first_index, initial, step):
        self._first = first_index
        self._terms = list(initial)
        self._step = step
        self._lock = threading.Lock()

    @property
    def high_water(self):
        return self._first + len(self._terms) - 1

    def value(self, n):
        if n < self._first:
            raise IndexBelowDomain(f"index {n} below domain start {self._first}")
        pos = n - self._first
        if pos >= len(self._terms):
            with self._lock:
                self._grow(pos)
        return self._terms[pos]

    def values(self, n_from, n_to):
        """The terms n_from..n_to, one slice of the list, grown to n_to first
        when it ends before; an empty range grows nothing."""
        first = self._first
        if n_from < first:
            raise IndexBelowDomain(f"index {n_from} below domain start {first}")
        if n_to - first >= len(self._terms):
            self.value(n_to)
        return self._terms[n_from - first:n_to - first + 1]

    def _grow(self, pos):
        """Append terms until position ``pos`` is held; the caller holds the lock."""
        while len(self._terms) <= pos:
            nxt = self._first + len(self._terms)
            self._terms.append(self._step(nxt, self._terms))


_b_cache = _RecurrenceCache(
    first_index=-1,
    initial=(0, 1),
    step=lambda n, terms: (n + 2) * (terms[-1] - terms[-2]),
)

_rowland_cache = _RecurrenceCache(
    first_index=1,
    initial=(7,),
    step=lambda n, terms: terms[-1] + math.gcd(n, terms[-1]),
)


def b(n: int) -> int:
    """Exact b(n) for n >= -1."""
    return _b_cache.value(n)


def b_pair(t: int) -> tuple[int, int]:
    """(b(t), b(t-1)) for t >= 0, one slice of the cache's list."""
    bt1, bt = _b_cache.values(t - 1, t)
    return bt, bt1


# !n = !(n-1) + (n-1)!, and (n-1)! = (n-1) * (!(n-1) - !(n-2)).
_lf_cache = _RecurrenceCache(
    first_index=0,
    initial=(0, 1),
    step=lambda n, terms: terms[-1] + (n - 1) * (terms[-1] - terms[-2]),
)


def left_factorial(n: int) -> int:
    """!n = sum of k! over 0 <= k < n, with !0 = 0 (empty sum)."""
    return _lf_cache.value(n)


def b_via_left_factorial(n: int) -> int:
    """b(n) recomputed as (n+2) * !(n+1) / 2 for n >= 0.

    The product (n+2) * !(n+1) is even for every n >= 0 (either n+2 is even
    or !(n+1) is); a remainder would mean the identity broke, which is
    raised rather than patched over.
    """
    if n < 0:
        raise IndexBelowDomain(f"identity route defined for n >= 0, got {n}")
    product = (n + 2) * left_factorial(n + 1)
    if product & 1:
        raise InexactDivision(f"(n+2) * !(n+1) odd at n={n}; identity violated")
    return product >> 1


def rowland_term(n: int) -> int:
    """r(n) with r(1) = 7 and r(n) = r(n-1) + gcd(n, r(n-1))."""
    return _rowland_cache.value(n)


def rowland_diff(n: int) -> int:
    """First difference r(n+1) - r(n), n >= 1."""
    return rowland_term(n + 1) - rowland_term(n)


def rowland_diffs(n_from: int, n_to: int):
    """The first differences r(n+1) - r(n) for n_from <= n <= n_to, read from
    the cache's list after one growth to r(n_to + 1)."""
    terms = _rowland_cache.values(n_from, n_to + 1)
    return map(sub, terms[1:], terms[:-1])
