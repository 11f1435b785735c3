"""Residue kernels: the blocked factorial walk, the partner identity and the
factorial table.

A walk hands out residues for ascending t, each mod its own modulus
``modulus(t)``. ``Factorials`` lists t! mod modulus(t); it holds the exact
integer t! only at block starts t = 64j and advances it a whole block at a
time with one product. At a block start it reduces that exact value once mod
M, the product of the block's moduli, and steps through the block mod M to
its end, so each block is listed once; since every modulus divides M, the
residues it hands out are exact. This is one level of the accumulating
remainder tree of Costa-Gerbicz-Harvey (*A search for Wilson primes*, Math.
Comp. 83, 2014): one bigint ``%`` per block of 64 terms instead of one per
term.

``Factorials`` is the one walk class, and it has two users. A residue
column (``families``) asks for consecutive t, so it keeps one walk, built
with the map t -> 2x of its terms, and reads on from it whenever the column
grows; ``b_mod_pair(t, x, walk, c)`` turns t! mod 2x into the term's
partner residue mod x through ``partner_from_factorial``, which is also
where the single-term route ends. ``verify_factorial_replacement``
(``families``) reads (n-1)! mod x from a second walk, over m = n-1.

``factorial_mod(m, x)`` is the one answer to m! mod x for a single m. Its
callers are single terms (``families``), which read t! mod 2x, and
``gcd_via_factorial``, which reads (n-1)! mod x. The route is chosen by
(m, x) alone, never by the caller:

* table, m < ``_TABLE_LIMIT`` (4096): the stride routine, which here is
  the stored exact (64*j)!, j = m // 64, reduced with one bigint ``%``, and
  at most one product of the remaining 63 factors or fewer;
* factor route, m >= 4096 while the odd part of x is below 2**64: m! mod p^e
  for each prime power p^e exactly dividing x, joined by the Chinese
  remainder theorem. A p^e <= m gives 0, since then Legendre's formula
  gives v_p(m!) >= m // p >= p^(e-1) >= e; a prime p > m with k = p-1-m < m
  gives (-1)^(k+1)/k! mod p by Wilson's theorem ((p-1)! = -1 and
  (m+1)...(p-1) = (-1)^k * k! mod p), so min(m, k) factors are multiplied;
  any other p^e runs m! mod p^e forward, which ends at 0 by itself when
  v_p(m!) >= e. The odd part is split by ``primality.factor``, which is
  exact only below 2**64, where its Miller-Rabin base set is deterministic;
  the power of 2 needs no factoring. Far out this beats strides: a mirror
  lookup at m = 357,600 multiplies 600 factors, not 357,600;
* strides, any other (m, x): the largest stored (64*j)!, j < 64, reduced
  mod x, then the remaining factors 64 at a time, one product and one
  ``%`` per stride, since multiplying small factors together costs less
  than a ``%``.

Wilson's k! and the forward runs come from ``_strided_factorial_mod``, the
plain stride routine, never back through ``factorial_mod``.

Everything here is plain Python integers, with no size limit on t, m or the
modulus. The exact recurrences in ``recurrences`` are the reference it is
tested against.
"""

import math
from functools import lru_cache

_STRIDE = 64  # factors per table entry, and terms per block of a walk
_TABLE_LIMIT = 4096  # factorial_mod stores (64*j)! below this m
_LEAF_BITS = 4000  # _product multiplies left to right up to about this size


def backend_name():
    return "pure-python"


class Factorials:
    """An ascending walk over t! mod ``modulus(t)``, for t >= ``t_from``.

    The exact t! is kept at t = 64j only. The first request in block j
    advances it there (one ``math.perm`` for all the blocks passed), reduces
    it mod M, the product of the moduli of the block's t from the one asked
    for to the block's end 64j + 63 (``_product``), and steps F = F*(t+1) mod M through the
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
        """Return t! mod m, where m must be ``modulus(t)``."""
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
        """Advance the exact t! to the start of lo's block, (64j)!/(64*_start)!
        in one product, reach lo! mod the product of the moduli of the block's
        t from lo to its end with one more, and list their residues, stepped
        mod that product."""
        j = lo // _STRIDE
        self._fact *= math.perm(_STRIDE * j, _STRIDE * (j - self._start))
        self._start = j
        ts = range(lo, _STRIDE * (j + 1))
        moduli = [self._modulus(t) for t in ts]
        big = _product(moduli)
        f = self._fact % big * math.perm(lo, lo - _STRIDE * j) % big
        listed = []
        for t, m in zip(ts, moduli):
            listed.append(f % m)
            f = f * (t + 1) % big
        self._block, self._lo, self._moduli, self._listed = j, lo, moduli, listed


def _product(values):
    """The product of a non-empty list of positive ints, as a balanced tree
    once it passes ``_LEAF_BITS``.

    ``math.prod`` multiplies left to right, so past a few thousand bits each
    step multiplies a long product by one short value, and the run costs
    about the square of the result's length. Here consecutive values are
    grouped into leaves of about ``_LEAF_BITS`` bits, each one
    ``math.prod``, and the leaves are multiplied in pairs, level by level,
    so the long products meet their equals, where CPython multiplies by
    Karatsuba. A list whose whole product stays below ``_LEAF_BITS`` (the
    64 moduli of a block of ``main`` to n = 10**6) is one ``math.prod``.
    """
    group = max(1, _LEAF_BITS // max(values).bit_length())
    values = [math.prod(values[i:i + group]) for i in range(0, len(values), group)]
    while len(values) > 1:
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0]


def partner_from_factorial(t, x, c, f):
    """The partner residue (c*b(t) + e*b(t-1)) mod x of the form
    x = c(t+2) + e(t+1), for t >= 0 and x >= 1, from f = t! mod 2x.

    2*partner = x*!t + c*(t+2)*t! (proved in ``families``), and x*!t is
    x*[t = 1] mod 2x, since !0 = 0, !1 = 1 and !t is even for t >= 2. So
    (x*[t = 1] + c*(t+2)*f) mod 2x is 2*(partner mod x), and halving it is
    exact; e drops out. Every modular route to a partner residue ends here.
    """
    m = 2 * x
    return (x * (t == 1) + c * (t + 2) * f) % m // 2


def b_mod_pair(t, x, walk, c):
    """The partner residue (c*b(t) + e*b(t-1)) mod x of the form
    x = c(t+2) + e(t+1), for t >= 0 and x >= 1, with t! mod 2x read from
    ``walk``, a ``Factorials`` walk built with 2x as the modulus of t.

    The name is kept only as the hook that the benchmark's tracer wraps (it
    counts one call per column term and records t), until ROADMAP item 1
    counts work inside ``src/``.
    """
    return partner_from_factorial(t, x, c, walk.at(t, 2 * x))


@lru_cache(maxsize=None)
def _stride_factorial(j):
    """The exact (64*j)!, for 0 <= j < 64: the table, filled on demand."""
    if j == 0:
        return 1
    return _stride_factorial(j - 1) * math.perm(_STRIDE * j, _STRIDE)


def factorial_mod(m, x):
    """Return ``m! mod x`` for m >= 0, x >= 1, by the route (m, x) selects:
    the table, the factor route or strides (module docstring)."""
    if m < _TABLE_LIMIT:  # the table and at most one stride
        return _strided_factorial_mod(m, x)
    from . import primality  # loaded here, so start-up skips it

    s = (x & -x).bit_length() - 1  # x = 2**s * odd
    if x >> s >= primality._U64:  # factor() is exact below 2**64 only
        return _strided_factorial_mod(m, x)
    f = 0
    for p, e in {**primality.factor(x >> s), 2: s}.items():
        pe, k = p**e, p - 1 - m
        if pe <= m:  # v_p(m!) >= m // p >= p**(e-1) >= e, so m! = 0 mod p^e
            continue
        if e == 1 and k < m:  # Wilson, as p > m: m! = (-1)^(k+1) / k! mod p
            r = pow((-1) ** (k + 1) * _strided_factorial_mod(k, p), -1, p)
        else:  # forward, which ends at 0 if v_p(m!) >= e after all
            r = _strided_factorial_mod(m, pe)
        rest = x // pe
        f += r * rest * pow(rest, -1, pe)
    return f % x


def _strided_factorial_mod(m, x):
    """``m! mod x`` for any m >= 0 and x >= 1 by strides: the stored
    (64*j)!, j = m // 64 clamped below 64, reduced mod x, then the factors
    64*j+1 .. m 64 at a time, each one product ``math.perm(hi, hi - lo)`` =
    (lo+1)...hi (a product tree in C) and one ``%``. Once the residue is 0
    no further stride runs.
    """
    j = min(m, _TABLE_LIMIT - 1) // _STRIDE
    r, lo = _stride_factorial(j) % x, _STRIDE * j
    while r and lo < m:
        hi = min(lo + _STRIDE, m)
        r, lo = r * math.perm(hi, hi - lo) % x, hi
    return r
