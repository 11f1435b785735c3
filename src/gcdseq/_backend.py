"""Residue kernels: the blocked left-factorial walk and the factorial table.

A residue column (``families``) asks for consecutive t, so it keeps a
``LeftFactorials`` walk, built with the map t -> 2x of its terms, and
reads on from it whenever the column grows. The walk holds the exact integers t!
and !t only at block starts t = 64j, and advances them a whole block at a
time with one product and one sum. At a block start it reduces that exact pair
once mod M, the product of the block's moduli, and steps through the block
mod M to its end, so each block is listed once; since every 2x divides M,
the residues mod 2x it hands out are exact. This is one level of the
accumulating remainder tree of Costa-Gerbicz-Harvey (*A search for Wilson
primes*, Math. Comp. 83, 2014): one bigint ``%`` per block of 64 terms
instead of one per term. ``b_mod_pair(t, x, walk)`` reads t! and !t mod 2x
from the walk.

``factorial_mod(m, x)`` (single terms' factor route and ``gcd_via_factorial``)
reduces the largest stored exact (64*j)!, j < 64, with one bigint ``%``, then
multiplies in the remaining factors 64 at a time, one product and one ``%``
per stride, since multiplying small factors together costs less than a ``%``.

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


class LeftFactorials:
    """An ascending walk over (t! mod 2x, !t mod 2x) for the terms of a scan.

    ``modulus(t)`` is the modulus 2x of the term with this t, for every
    t >= ``t_from``; !t = 0! + 1! + ... + (t-1)! is the left factorial, so
    !0 = 0 and !(t+1) = !t + t!. The exact pair is kept at t = 64j only. The
    first request in block j advances it there (one product and one sum per
    block passed), reduces it mod M, the product of the moduli of the
    block's t from the one asked for to the block's end 64j + 63, and steps
    F = F*(t+1) mod M, S += F through the block, keeping F and S mod each
    2x; later requests in the block are list lookups, so each block is
    listed once. Asking for a smaller t than the last one, or any modulus
    but ``modulus(t)``, is an error, so a residue handed out is never wrong.
    """

    def __init__(self, modulus, t_from):
        self._modulus = modulus
        self.t = t_from  # the last t asked for
        self._start, self._fact, self._left = 0, 1, 0  # exact (t!, !t) at t = 64*_start
        self._block, self._lo, self._moduli, self._pairs = -1, 0, (), ()

    def at(self, t, m):
        """Return ``(t! mod m, !t mod m)``, where m must be ``modulus(t)``."""
        if t < self.t:
            raise ValueError(f"walk is at t={self.t}, cannot step back to t={t}")
        self.t = t
        if t // _STRIDE != self._block:
            self._fill(t)
        i = t - self._lo
        if m != self._moduli[i]:
            raise ValueError(f"the walk serves t={t} mod {self._moduli[i]}, not mod {m}")
        return self._pairs[i]

    def _fill(self, lo):
        """Advance the exact pair to the start of lo's block and list the
        residues of the block's t from lo to its end."""
        j = lo // _STRIDE
        f, s = self._fact, self._left
        for k in range(self._start, j):
            p, q = _block_step(k)
            f, s = f * p, s + f * q
        self._start, self._fact, self._left = j, f, s
        first = _STRIDE * j
        ts = range(lo, first + _STRIDE)
        moduli = [self._modulus(t) for t in ts]
        big = math.prod(moduli)
        f, s = f % big, s % big
        for t in range(first, lo):
            s += f
            f = f * (t + 1) % big
        pairs = []
        for t, m in zip(ts, moduli):
            pairs.append((f % m, s % m))
            s += f
            f = f * (t + 1) % big
        self._block, self._lo, self._moduli, self._pairs = j, lo, moduli, pairs


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
    ``%``: below ``_TABLE_LIMIT``, one stride of at most 63 factors. Once
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
