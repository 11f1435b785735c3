"""Primality testing with explicit verdicts.

Three regimes:

* v < 10**6: trial division alone, by every prime below 1000, as one gcd
  with their product (exact below 1009**2). Its agreement with a sieve, and
  with the Miller-Rabin path, is shown by exhaustive tests over every such
  v, not checked again at run time.
* v < 2**64: Miller-Rabin over the first k prime bases, with k the least
  for which v is below psi_k, the least strong pseudoprime to all of them.
  Every odd composite below psi_k fails one of those k bases, so the test
  is deterministic in this range. psi_1..psi_4 are from Pomerance,
  Selfridge and Wagstaff (Math. Comp. 35, 1980), psi_5..psi_8 from
  Jaeschke (*On strong pseudoprimes to several bases*, Math. Comp. 61,
  1993), and psi_9 = psi_10 = psi_11 from Jiang and Deng (Math. Comp. 83,
  2014); psi_12 is above 2**64, so all 12 bases decide every v below it.
  One gcd with the bases' product screens v first: a v that shares a
  factor with it is prime exactly when it is one of the bases. The strong
  rounds of all k bases then run in one loop (``_strong_rounds``).
* v >= 2**64: Baillie-PSW style combination (the same gcd screen, the
  strong base-2 round of that loop, and a strong Lucas test with Selfridge
  parameters); reported as a probable prime, never as proven.

``factor`` splits 1 <= v < 2**64 into primes exactly. One gcd with the
product of the primes below 1000 names the small prime factors; every other
factor it returns is either below 1009**2, so has no prime factor up to its
square root, or passed the Miller-Rabin test that is deterministic there.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import NonPositive

_MR64_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): below psi_k the first k prime bases decide (psi_8 = psi_7 and
# psi_9 = psi_10 = psi_11); the 12 bases decide every v below 2**64
_MR64_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
                (3825123056546413051, 9))
_MR64_PRODUCT = math.prod(_MR64_BASES)  # v shares a factor with it iff a base divides v
_TRIAL_LIMIT = 10**6  # is_prime's trial division needs this <= _UNTRIED**2


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_SMALL_PRIMES = _primes_below(1000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = math.prod(_SMALL_PRIMES)  # one gcd with it tries every prime below 1000
_UNTRIED = 1009  # the least prime above _SMALL_PRIMES
_U64 = 1 << 64
_RHO_BATCH = 64  # rho steps per gcd


class Verdict(Enum):
    ONE = "one"
    PRIME = "prime"
    COMPOSITE = "composite"
    PROBABLE_PRIME = "probable_prime"

    __hash__ = object.__hash__  # identity, as Enum equality is: no Python-level hash per lookup


class Method(Enum):
    TRIAL_DIVISION = "trial_division"
    DETERMINISTIC_MR64 = "deterministic_mr64"
    STRONG_PROBABLE = "strong_probable"

    __hash__ = object.__hash__


# bound names: on Python 3.11 ``Verdict.PRIME`` runs ``EnumType.__getattr__``
_PRIME, _COMPOSITE, _PROBABLE_PRIME = Verdict.PRIME, Verdict.COMPOSITE, Verdict.PROBABLE_PRIME
_TRIAL_DIVISION, _DETERMINISTIC_MR64 = Method.TRIAL_DIVISION, Method.DETERMINISTIC_MR64


class PrimalityVerdict(NamedTuple):
    value: int
    verdict: Verdict
    method: Method

    def __bool__(self):
        """Truthy iff prime or probable prime."""
        return self.verdict in (_PRIME, _PROBABLE_PRIME)


def _trial_division(v):
    """Whether 1 <= v < ``_UNTRIED``**2 is prime, by the primes below 1000.

    A composite v below 1009**2 has a prime factor up to its square root,
    so below 1009, and the primes below 1009 are those below 1000.
    """
    if v < _UNTRIED:
        return v in _SMALL_PRIME_SET
    return math.gcd(v, _PRIMORIAL) == 1


def _strong_rounds(v, bases):
    """Whether the odd v > 2 is a strong probable prime to every base, in one loop."""
    m = v - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    for base in bases:
        x = pow(base, d, v)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % v
            if x == m:
                break
        else:
            return False
    return True


def _mr_is_prime(v):
    """Miller-Rabin over the first k prime bases, k by ``_MR64_BOUNDS``;
    deterministic for v < 2**64."""
    if v < 2:
        return False
    if math.gcd(v, _MR64_PRODUCT) != 1:
        return v in _MR64_BASES
    for bound, k in _MR64_BOUNDS:
        if v < bound:
            return _strong_rounds(v, _MR64_BASES[:k])
    return _strong_rounds(v, _MR64_BASES)


def _jacobi(a, n):
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _selfridge_d(n):
    # first D in 5, -7, 9, -11, ... with Jacobi(D, n) == -1
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            return d
        if j == 0 and abs(d) != n:
            return None  # shares a factor with n: composite
        d = -(d + 2) if d > 0 else -(d - 2)


def _strong_lucas_prp(n):
    """Strong Lucas test with Selfridge parameters; n odd, > 2, not a square."""
    D = _selfridge_d(n)
    if D is None:
        return False
    P = 1
    Q = (1 - D) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def _half(x):
        # exact division by 2 mod odd n
        return (x if x % 2 == 0 else x + n) // 2 % n

    # Binary ladder over the bits of d: (U_k, V_k, Q^k).
    U, V, qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = _half(P * U + V), _half(D * U + P * V)
            qk = qk * Q % n

    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def _bpsw_is_probable_prime(v):
    if math.gcd(v, _MR64_PRODUCT) != 1:
        return v in _MR64_BASES
    if not _strong_rounds(v, (2,)):
        return False
    if math.isqrt(v) ** 2 == v:
        return False
    return _strong_lucas_prp(v)


@lru_cache(maxsize=1 << 16)
def is_prime(v: int) -> PrimalityVerdict:
    """Classify v >= 1 as One, Prime, Composite or ProbablePrime.

    The verdict is built as ``NamedTuple._make`` builds one, by
    ``tuple.__new__``, without a Python-level ``__new__`` call.
    """
    if v < 1:
        raise NonPositive(f"primality undefined for {v} < 1")
    if v == 1:
        return tuple.__new__(PrimalityVerdict, (1, Verdict.ONE, _TRIAL_DIVISION))
    if v < _TRIAL_LIMIT:
        verdict = _PRIME if _trial_division(v) else _COMPOSITE
        return tuple.__new__(PrimalityVerdict, (v, verdict, _TRIAL_DIVISION))
    if v < _U64:
        verdict = _PRIME if _mr_is_prime(v) else _COMPOSITE
        return tuple.__new__(PrimalityVerdict, (v, verdict, _DETERMINISTIC_MR64))
    verdict = _PROBABLE_PRIME if _bpsw_is_probable_prime(v) else _COMPOSITE
    return tuple.__new__(PrimalityVerdict, (v, verdict, Method.STRONG_PROBABLE))


def _brent_rho(v):
    """A proper divisor of the odd composite v.

    Pollard's rho with Brent's cycle search and products of differences
    (Brent, BIT 20, 1980): one gcd per ``_RHO_BATCH`` steps, and a step-wise
    replay of the last batch when that gcd is v. A polynomial y^2 + c whose
    cycles close mod every prime factor at once is abandoned for c + 1.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % v
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % v
                    q = q * (x - y) % v
                g = math.gcd(q, v)
                k += _RHO_BATCH
            r *= 2
        if g == v:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % v
                g = math.gcd(x - ys, v)
        if g != v:
            return g


def factor(v: int) -> dict[int, int]:
    """The prime factorisation of 1 <= v < 2**64 as {p: e}, p ascending.

    g = gcd(v, ``_PRIMORIAL``) is the product of the primes below 1000 that
    divide v, each once; trial division of g up to its square root splits
    it, and only those primes are divided out of v. The cofactor then has no
    prime factor below ``_UNTRIED``, and a composite one is split by
    ``_brent_rho``. Each larger factor kept either is below ``_UNTRIED``
    squared or passed the uncached ``_mr_is_prime``, which is deterministic
    below 2**64; so the result is exact. ``is_prime`` and its cache are never
    touched.
    """
    if v < 1:
        raise NonPositive(f"factorisation undefined for {v} < 1")
    if v >= _U64:
        raise ValueError(f"factor() needs v < 2**64, got {v}")
    g = math.gcd(v, _PRIMORIAL)
    small = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            small.append(p)
            g //= p
    if g > 1:
        small.append(g)  # no prime factor up to its square root: a prime
    found = {}
    for p in small:
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        found[p] = e
    pending = [v] if v > 1 else []
    while pending:
        v = pending.pop()
        if v < _UNTRIED * _UNTRIED or _mr_is_prime(v):
            found[v] = found.get(v, 0) + 1
        else:
            d = _brent_rho(v)
            pending += (d, v // d)
    return dict(sorted(found.items()))
