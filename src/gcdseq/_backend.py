"""Residue kernels: the blocked factorial walks and the factorial table.

A walk hands out residues for ascending t, each mod its own modulus
``modulus(t)``. ``Factorials`` lists t! mod modulus(t); it holds the exact
integer t! only at block starts t = 64j and advances it a whole block at a
time with one product. At a block start it reduces that exact value once mod
M, the product of the block's moduli, and steps through the block mod M to
its end, so each block is listed once; since every modulus divides M, the
residues it hands out are exact. This is one level of the accumulating
remainder tree of Costa-Gerbicz-Harvey (*A search for Wilson primes*, Math.
Comp. 83, 2014): one bigint ``%`` per block of 64 terms instead of one per
term. ``verify_factorial_replacement`` (``families``) reads (n-1)! mod x
from one, over m = n-1.

``LeftFactorials`` is the same block engine with the exact left factorial
!t kept beside t!, listing the pair (t! mod 2x, !t mod 2x). A residue column
(``families``) asks for consecutive t, so it keeps one, built with the map
t -> 2x of its terms, and reads on from it whenever the column grows.
``b_mod_pair(t, x, walk)`` reads t! and !t mod 2x from the walk.

``factorial_mod(m, x)`` reduces the largest stored exact (64*j)!, j < 64,
with one bigint ``%``, then multiplies in the remaining factors 64 at a time,
one product and one ``%`` per stride, since multiplying small factors
together costs less than a ``%``. Single terms (``families``) read t! mod 2x
from it whole below ``_TABLE_LIMIT``, where that is one ``%`` and at most one
stride, and through the prime powers of 2x (the factor route) above it;
``gcd_via_factorial`` reads (n-1)! mod x.

Everything here is plain Python integers, with no size limit on t, m or the
modulus. The exact recurrences in ``recurrences`` are the reference it is
tested against.
"""

import math
from functools import lru_cache

_STRIDE = 64  # factors per table entry, and terms per block of a walk
_TABLE_LIMIT = 4096  # factorial_mod stores (64*j)! below this m


def backend_name():
    return "pure-python"


def _block_step(j):
    """(P, Q) with (64j+64)! = (64j)! * P and !(64j+64) = !(64j) + (64j)! * Q.

    P is the product of 64j+1 .. 64j+64, and Q = sum over i < 64 of
    (64j+1)...(64j+i), built by Horner's rule from the inside out.
    """
    lo = _STRIDE * j
    q = 1
    for k in range(lo + _STRIDE - 1, lo, -1):
        q = q * k + 1
    return math.prod(range(lo + 1, lo + _STRIDE + 1)), q


class Factorials:
    """An ascending walk over t! mod ``modulus(t)``, for t >= ``t_from``.

    The exact t! is kept at t = 64j only. The first request in block j
    advances it there (one ``math.perm`` for all the blocks passed), reduces
    it mod M, the product of the moduli of the block's t from the one asked
    for to the block's end 64j + 63, and steps F = F*(t+1) mod M through the
    block, keeping F mod each modulus; later requests in the block are list
    lookups, so each block is listed once. Asking for a smaller t than the
    last one, or any modulus but ``modulus(t)``, is an error, so a residue
    handed out is never wrong.
    """

    def __init__(self, modulus, t_from):
        self._modulus = modulus
        self.t = t_from  # the last t asked for
        self._start, self._fact = 0, 1  # the exact t! at t = 64*_start
        self._block, self._lo, self._moduli, self._listed = -1, 0, (), ()

    def at(self, t, m):
        """Return what the walk lists for t mod m (t! mod m, or the pair of
        ``LeftFactorials``), where m must be ``modulus(t)``."""
        if t < self.t:
            raise ValueError(f"walk is at t={self.t}, cannot step back to t={t}")
        self.t = t
        if t // _STRIDE != self._block:
            self._fill(t)
        i = t - self._lo
        if m != self._moduli[i]:
            raise ValueError(f"the walk serves t={t} mod {self._moduli[i]}, not mod {m}")
        return self._listed[i]

    def _fill(self, lo):
        """Advance the exact state to the start of lo's block and list the
        residues of the block's t from lo to its end."""
        j = lo // _STRIDE
        self._advance(j)
        ts = range(lo, _STRIDE * (j + 1))
        moduli = [self._modulus(t) for t in ts]
        listed = self._list(ts, moduli, math.prod(moduli))
        self._block, self._lo, self._moduli, self._listed = j, lo, moduli, listed

    def _advance(self, j):
        """The exact t! from t = 64*_start to t = 64j: (64j)!/(64*_start)! in one product."""
        self._fact *= math.perm(_STRIDE * j, _STRIDE * (j - self._start))
        self._start = j

    def _list(self, ts, moduli, big):
        """t! mod m for t in ``ts`` and m in ``moduli``, stepped mod ``big``."""
        f = self._fact % big
        for t in range(_STRIDE * self._start, ts.start):
            f = f * (t + 1) % big
        listed = []
        for t, m in zip(ts, moduli):
            listed.append(f % m)
            f = f * (t + 1) % big
        return listed


class LeftFactorials(Factorials):
    """An ascending walk over (t! mod 2x, !t mod 2x) for the terms of a scan.

    ``modulus(t)`` is the modulus 2x of the term with this t, for every
    t >= ``t_from``; !t = 0! + 1! + ... + (t-1)! is the left factorial, so
    !0 = 0 and !(t+1) = !t + t!. The walk is ``Factorials``' with the exact
    !t kept beside t! at t = 64j (one product and one sum per block passed)
    and S += F stepped beside F, so ``at`` returns the pair
    ``(t! mod m, !t mod m)``.
    """

    def __init__(self, modulus, t_from):
        super().__init__(modulus, t_from)
        self._left = 0  # the exact !t at t = 64*_start

    def _advance(self, j):
        f, s = self._fact, self._left
        for k in range(self._start, j):
            p, q = _block_step(k)
            f, s = f * p, s + f * q
        self._start, self._fact, self._left = j, f, s

    def _list(self, ts, moduli, big):
        f, s = self._fact % big, self._left % big
        for t in range(_STRIDE * self._start, ts.start):
            s += f
            f = f * (t + 1) % big
        pairs = []
        for t, m in zip(ts, moduli):
            pairs.append((f % m, s % m))
            s += f
            f = f * (t + 1) % big
        return pairs


def b_mod_pair(t, x, walk):
    """Return ``(b(t-1) mod x, b(t) mod x)`` for t >= 0, x >= 1, read from ``walk``.

    Uses the left-factorial identity b(n) = (n+2) * !(n+1) / 2, where
    !n = 0! + 1! + ... + (n-1)! (see ``recurrences.b_via_left_factorial``):
    b(t-1) = (t+1) * !t / 2 and b(t) = (t+2) * !(t+1) / 2 with
    !(t+1) = !t + t!. The ``LeftFactorials`` walk, which must have been
    built with 2x as the modulus of t, gives s = !t and f = t! mod m = 2x.
    Since (t+1) * !t = 2 * b(t-1) exactly, (t+1) * s mod 2x = 2 * (b(t-1)
    mod x), and halving it is exact; the same holds for (t+2) * (s + f).
    That covers every x >= 1, even x included, and t = 0 (s = 0, f = 1).
    """
    m = 2 * x
    f, s = walk.at(t, m)
    return (t + 1) * s % m // 2, (t + 2) * (s + f) % m // 2


@lru_cache(maxsize=None)
def _stride_factorial(j):
    """The exact (64*j)!, for 0 <= j < 64: the table, filled on demand."""
    if j == 0:
        return 1
    return _stride_factorial(j - 1) * math.perm(_STRIDE * j, _STRIDE)


def factorial_mod(m, x):
    """Return ``m! mod x`` for m >= 0, x >= 1.

    The stored (64*j)!, j = m // 64 clamped below 64, is reduced mod x, and
    the factors 64*j+1 .. m come in strides of 64, each one product
    ``math.perm(hi, hi - lo)`` = (lo+1)...hi (a product tree in C) and one
    ``%``: below ``_TABLE_LIMIT``, one stride of at most 63 factors, which
    is why single terms with t below it read t! mod 2x here directly. Once
    the residue is 0 no further stride runs.
    """
    j = min(m, _TABLE_LIMIT - 1) // _STRIDE
    r = _stride_factorial(j) % x
    for lo in range(_STRIDE * j, m, _STRIDE):
        if r == 0:
            break
        hi = min(lo + _STRIDE, m)
        r = r * math.perm(hi, hi - lo) % x
    return r
