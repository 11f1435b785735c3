"""An independent reference for the Miller-Rabin kernel, shared by the tests.

``_mr_round`` and ``_mr_is_prime`` as ``gcdseq.primality`` had them before
its strong rounds ran in one loop behind one gcd: a call per base, under
``all()``, after one ``%`` per base. The base set and the bounds are copied
here too, so a change to either in the package shows up as a disagreement.
"""

_MR64_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR64_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
                (3825123056546413051, 9))


def _mr_round(v, base, d, r):
    x = pow(base, d, v)
    if x == 1 or x == v - 1:
        return True
    for _ in range(r - 1):
        x = x * x % v
        if x == v - 1:
            return True
    return False


def _mr_is_prime(v):
    """Miller-Rabin over the first k prime bases, k by ``_MR64_BOUNDS``;
    deterministic for v < 2**64."""
    if v < 2:
        return False
    for p in _MR64_BASES:
        if v % p == 0:
            return v == p
    bases = _MR64_BASES
    for bound, k in _MR64_BOUNDS:
        if v < bound:
            bases = _MR64_BASES[:k]
            break
    d = v - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    return all(_mr_round(v, base, d, r) for base in bases)
