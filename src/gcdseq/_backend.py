"""Residue kernels: the exact left-factorial walk, the factorial table, and
the modular chains.

A scan asks for consecutive t, so it keeps a ``LeftFactorials`` walk: the
exact integers t! and !t, advanced by one multiply and one add per step, and
``b_mod_pair(t, x, walk)`` reduces them with one C-level ``%`` each. Without
a walk, ``b_mod_pair`` runs an O(t) chain in residues: the compiled
extension when it was built, pure Python otherwise.

``factorial_mod(m, x)`` (single terms' factor route and ``gcd_via_factorial``)
takes the compiled extension first when it was built. In pure Python, m below
``_TABLE_LIMIT`` reads the exact (64*j)! from a table and reduces it with one
C-level ``%``, then multiplies in at most 63 factors; larger m runs the chain.

The extension is looked up once at import. Even when it loaded, arguments at
or above 2**63 take the pure-Python code below, which has no size limit on
the modulus: plain Python integers throughout. The exact recurrences in
``recurrences`` are the reference all of it is tested against.

Both pure-Python chains reduce once per four factors: multiplying by a small
factor costs less than a ``%``. A plain loop takes the last one to three
factors.
"""

import math
from functools import lru_cache

try:
    from . import _kernel as _ext
except ImportError:
    _ext = None

_EXT_LIMIT = 1 << 63
_STRIDE = 64
_TABLE_LIMIT = 4096  # factorial_mod reads the table below this m


def backend_name():
    return "pure-python" if _ext is None else "compiled"


class LeftFactorials:
    """An ascending walk over the exact pair (t!, !t), from t = 0.

    !t = 0! + 1! + ... + (t-1)! is the left factorial, so !0 = 0 and
    !(t+1) = !t + t!. Each step costs one bigint add and one multiply by a
    small factor; asking for a smaller t than the last one is an error.
    """

    def __init__(self):
        self.t, self.fact, self.left = 0, 1, 0

    def at(self, t):
        """Return ``(t!, !t)``, stepping forward from the last t asked for."""
        if t < self.t:
            raise ValueError(f"walk is at t={self.t}, cannot step back to t={t}")
        f, s = self.fact, self.left
        for j in range(self.t + 1, t + 1):
            s += f
            f *= j
        self.t, self.fact, self.left = t, f, s
        return f, s


def b_mod_pair(t, x, walk=None):
    """Return ``(b(t-1) mod x, b(t) mod x)`` for t >= 0, x >= 1.

    Uses the left-factorial identity b(n) = (n+2) * !(n+1) / 2, where
    !n = 0! + 1! + ... + (n-1)! (see ``recurrences.b_via_left_factorial``):
    b(t-1) = (t+1) * !t / 2 and b(t) = (t+2) * !(t+1) / 2 with
    !(t+1) = !t + t!.

    One first-order chain runs mod m = 2x: ``f`` holds k! mod m and ``s``
    adds up the f values and the partial products of each block. ``s`` is
    never reduced (it stays below m * t**4), so s = !t (mod m) and
    f = t! (mod m) at the end. Since (t+1) * !t = 2 * b(t-1) exactly,
    (t+1) * s mod 2x = 2 * (b(t-1) mod x), and halving it is exact; the
    same holds for (t+2) * (s + f). That covers every x >= 1, even x
    included, and t = 0 (s = 0, f = 1).

    With a ``LeftFactorials`` walk, s and f are the exact !t and t! from the
    walk, reduced mod 2x once each; the chain does not run.
    """
    if walk is not None:
        f, s = walk.at(t)
        m = 2 * x
        s %= m
        return (t + 1) * s % m // 2, (t + 2) * (s + f % m) % m // 2
    if _ext is not None and x < _EXT_LIMIT and t < _EXT_LIMIT:
        return _ext.b_mod_pair(t, x)
    m = 2 * x
    f, s = 1, 0
    for j in range(1, t - 2, 4):
        g1 = f * j
        g2 = g1 * (j + 1)
        g3 = g2 * (j + 2)
        s += f + g1 + g2 + g3
        f = g3 * (j + 3) % m
    for j in range(t - t % 4 + 1, t + 1):
        s += f
        f = f * j % m
    return (t + 1) * s % m // 2, (t + 2) * (s + f) % m // 2


@lru_cache(maxsize=None)
def _stride_factorial(j):
    """The exact (64*j)!, for 0 <= j < 64: the table, filled on demand."""
    if j == 0:
        return 1
    return _stride_factorial(j - 1) * math.prod(range(_STRIDE * (j - 1) + 1, _STRIDE * j + 1))


def factorial_mod(m, x):
    """Return ``m! mod x`` for m >= 0, x >= 1.

    Below ``_TABLE_LIMIT`` the stored (64*j)!, j = m // 64, is reduced mod x
    and the last m % 64 factors are multiplied in. From there on the chain
    runs, and short-circuits once 0: the zero check runs once per block of
    four factors, so a product that reaches 0 mid-block is caught at the
    block's end; the result is 0 either way.
    """
    if _ext is not None and x < _EXT_LIMIT and m < _EXT_LIMIT:
        return _ext.factorial_mod(m, x)
    if m < _TABLE_LIMIT:
        j = m // _STRIDE
        return _stride_factorial(j) % x * math.prod(range(_STRIDE * j + 1, m + 1)) % x
    r = 1 % x
    for j in range(1, m - 2, 4):
        r = r * j * (j + 1) * (j + 2) * (j + 3) % x
        if r == 0:
            return 0
    for j in range(m - m % 4 + 1, m + 1):
        r = r * j % x
    return r
