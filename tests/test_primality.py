import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdseq.errors import NonPositive
from gcdseq.primality import (
    _MR64_BASES,
    _MR64_BOUNDS,
    _PRIMORIAL,
    _SMALL_PRIMES,
    _TRIAL_LIMIT,
    _UNTRIED,
    Method,
    PrimalityVerdict,
    Verdict,
    _bpsw_is_probable_prime,
    _mr_is_prime,
    _strong_rounds,
    _trial_division,
    factor,
    is_prime,
)

import reference_primality


def _sieve(limit):
    flags = bytearray(b"\x01") * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit, p))
    return flags


def test_small_verdicts():
    assert is_prime(1).verdict is Verdict.ONE
    assert is_prime(2).verdict is Verdict.PRIME
    assert is_prime(9).verdict is Verdict.COMPOSITE
    assert is_prime(1259).verdict is Verdict.PRIME
    assert is_prime(1259).method is Method.TRIAL_DIVISION


def test_nonpositive_raises():
    for v in (0, -1, -97):
        with pytest.raises(NonPositive):
            is_prime(v)


def test_verdict_truthiness():
    assert is_prime(7)
    assert is_prime(2**89 - 1)
    assert not is_prime(1)
    assert not is_prime(561)


def test_method_selection_by_size():
    assert is_prime(999_983).method is Method.TRIAL_DIVISION
    assert is_prime(1_000_003).method is Method.DETERMINISTIC_MR64
    assert is_prime(2**64 + 13).method is Method.STRONG_PROBABLE


def _first_disagreement(got, flags):
    return next(v for v in range(len(flags)) if got[v] != flags[v])


def test_exhaustive_agreement_below_psi_2():
    # the Miller-Rabin path against a sieve, on every value that its one- and
    # two-base rows serve
    limit = _MR64_BOUNDS[1][0]
    assert limit == 1373653
    flags = _sieve(limit)
    got = bytes(map(_mr_is_prime, range(limit)))
    assert got == flags, _first_disagreement(got, flags)


def test_trial_division_exhaustive():
    # a composite below _UNTRIED**2 has a prime factor below _UNTRIED, so the
    # gcd with the primes below 1000 decides every value is_prime gives it
    assert _TRIAL_LIMIT <= _UNTRIED**2
    # the sieved primes below 1000 are those that no smaller integer divides
    assert _SMALL_PRIMES == [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    assert len(_SMALL_PRIMES) == 168 and _PRIMORIAL == math.prod(_SMALL_PRIMES)
    flags = _sieve(_TRIAL_LIMIT)
    got = bytes([0]) + bytes(map(_trial_division, range(1, _TRIAL_LIMIT)))
    assert got == flags, _first_disagreement(got, flags)


@pytest.mark.parametrize("psi, k", _MR64_BOUNDS)
def test_each_psi_k_needs_the_next_base(psi, k):
    # psi_k is a strong pseudoprime to each of the first k prime bases, the
    # whole set _mr_is_prime uses below it, one base at a time; at psi_k it
    # takes more bases
    for base in _MR64_BASES[:k]:
        assert _strong_rounds(psi, (base,)), base
    assert not _mr_is_prime(psi)
    assert is_prime(psi).verdict is Verdict.COMPOSITE


def test_known_miller_rabin_stress_values():
    # composites that fool many single-base tests
    for v in (561, 25326001, 3215031751, 3825123056546413051):
        assert is_prime(v).verdict is Verdict.COMPOSITE
    # 3825123056546413051 == 149491 * 747451 * 34233211
    assert 149491 * 747451 * 34233211 == 3825123056546413051


def test_u64_boundary():
    assert is_prime(2**64 - 59).verdict is Verdict.PRIME
    assert is_prime(2**64 - 59).method is Method.DETERMINISTIC_MR64


def test_above_u64_probable_primes():
    for v in (2**64 + 13, 2**89 - 1, 2**107 - 1, 2**127 - 1, 10**20 + 39):
        verdict = is_prime(v)
        assert verdict.verdict is Verdict.PROBABLE_PRIME
        assert verdict.method is Method.STRONG_PROBABLE


def test_above_u64_composites_with_witnessed_factors():
    # 2^64 + 1 = 274177 * 67280421310721 (checked right here)
    assert 274177 * 67280421310721 == 2**64 + 1
    assert is_prime(2**64 + 1).verdict is Verdict.COMPOSITE
    # 167 divides 2^83 - 1 because 2^83 == 1 (mod 167)
    assert pow(2, 83, 167) == 1
    assert is_prime(2**83 - 1).verdict is Verdict.COMPOSITE
    # perfect squares above the 64-bit line
    assert is_prime((2**33 + 15) ** 2).verdict is Verdict.COMPOSITE


def test_bpsw_components_cover_each_other():
    from gcdseq.primality import _strong_lucas_prp

    # base-2 strong pseudoprimes: the Lucas side must reject them
    for v in (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
              65281, 74665, 80581, 85489, 88357, 90751):
        assert not _bpsw_is_probable_prime(v), v
    # strong Lucas-Selfridge pseudoprimes: the base-2 side must reject them
    for v in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_prp(v), v
        assert not _bpsw_is_probable_prime(v), v


def test_bpsw_exhaustive_small():
    flags = _sieve(100_000)
    for v in range(2, 100_000):
        assert _bpsw_is_probable_prime(v) == bool(flags[v]), v


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=2**64 - 1))
def test_bpsw_agrees_with_deterministic_mr(v):
    assert _bpsw_is_probable_prime(v) == _mr_is_prime(v)


# ---------------------------------------------------------------------------
# differential: the one-loop kernel against the per-base reference
# ---------------------------------------------------------------------------

def _reference_verdict(v):
    """What is_prime gives for 1 <= v < 2**64, by the reference kernel."""
    if v == 1:
        return PrimalityVerdict(1, Verdict.ONE, Method.TRIAL_DIVISION)
    method = Method.TRIAL_DIVISION if v < 10**6 else Method.DETERMINISTIC_MR64
    verdict = Verdict.PRIME if reference_primality._mr_is_prime(v) else Verdict.COMPOSITE
    return PrimalityVerdict(v, verdict, method)


def _assert_matches_reference(v):
    assert _mr_is_prime(v) == reference_primality._mr_is_prime(v), v
    got = is_prime(v)
    assert type(got) is PrimalityVerdict, v
    assert got == _reference_verdict(v), v
    if v >= 2:
        assert _bpsw_is_probable_prime(v) == bool(got), v


def _korselt(n, factors):
    # n is a Carmichael number: squarefree, composite, and p - 1 | n - 1
    return (len(factors) > 1 and len(set(factors)) == len(factors)
            and math.prod(factors) == n and all((n - 1) % (p - 1) == 0 for p in factors))


# the Carmichael numbers below 520,000 (OEIS A002997), each checked below
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
               41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217,
               162401, 172081, 188461, 252601, 278545, 294409, 314821, 334153,
               340561, 399001, 410041, 449065, 488881, 512461)


def _chernick_carmichaels():
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are
    # prime (Chernick, 1939): small k, and k just below the 2**64 line
    ref = reference_primality._mr_is_prime
    for k in (*range(1, 400), *range(240000, 242000)):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = math.prod(factors)
        if n < 2**64 and all(map(ref, factors)):
            assert _korselt(n, factors), k
            yield n


def test_reference_keeps_the_cited_bases_and_bounds():
    assert reference_primality._MR64_BASES == _MR64_BASES
    assert reference_primality._MR64_BOUNDS == _MR64_BOUNDS
    assert _TRIAL_LIMIT == 10**6


def test_matches_reference_on_pseudoprimes_bases_and_carmichaels():
    values = {2**64 - 59, 2**64 - 1}
    for psi, _ in _MR64_BOUNDS:
        values |= {psi - 2, psi, psi + 2}
    for size in range(1, len(_MR64_BASES) + 1):  # every base and every product of bases
        values.update(math.prod(c) for c in combinations(_MR64_BASES, size))
    for n in _CARMICHAEL:
        assert _korselt(n, list(factor(n))), n
    values.update(_CARMICHAEL)
    chernick = list(_chernick_carmichaels())
    assert len(chernick) >= 20 and max(chernick) > 2**63
    values.update(chernick)
    ref = reference_primality._mr_is_prime
    below = [p for p in range(2**32 - 2000, 2**32) if ref(p)]
    assert len(below) >= 50
    values.update(p * p for p in below)  # squares of primes near 2**32, below 2**64
    for v in sorted(values):
        _assert_matches_reference(v)
    # squares of primes just above 2**32 reach the Baillie-PSW regime
    above = [p for p in range(2**32, 2**32 + 500) if ref(p)]
    assert above
    for p in above:
        assert is_prime(p * p) == (p * p, Verdict.COMPOSITE, Method.STRONG_PROBABLE)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=2**64 - 1),
                 st.integers(min_value=1, max_value=10**6 - 1)))  # the cross-checked regime
def test_matches_reference_on_random_values(v):
    _assert_matches_reference(v)


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

def _assert_factorisation(v, found):
    assert list(found) == sorted(found)
    product = 1
    for p, e in found.items():
        assert _mr_is_prime(p), (v, p)
        assert e >= 1
        product *= p**e
    assert product == v


_PRIMES_TO_43 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def test_factor_examples():
    cases = {
        1: {},
        2: {2: 1},
        2**63: {2: 63},
        3**40: {3: 40},
        # across the primorial of the primes below 1000; 1009 is the next prime
        997: {997: 1},
        1009: {1009: 1},
        997**2: {997: 2},
        997 * 1009: {997: 1, 1009: 1},
        1009**2: {1009: 2},
        math.prod(_PRIMES_TO_43) * 997: {**dict.fromkeys(_PRIMES_TO_43, 1), 997: 1},
        1009**3: {1009: 3},
        997**2 * 1009: {997: 2, 1009: 1},
        561: {3: 1, 11: 1, 17: 1},  # Carmichael numbers
        41041: {7: 1, 11: 1, 13: 1, 41: 1},
        # strong pseudoprime to the first nine prime bases, no factor below 10^5
        3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
        # two factors of equal size, past trial division
        1000003 * 1000033: {1000003: 1, 1000033: 1},
        4294967279 * 4294967291: {4294967279: 1, 4294967291: 1},
        4294967291**2: {4294967291: 2},
        2**64 - 59: {2**64 - 59: 1},  # the largest primes below 2^64
        2**64 - 83: {2**64 - 83: 1},
    }
    for v, want in cases.items():
        found = factor(v)
        assert found == want, v
        _assert_factorisation(v, found)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=2**64 - 1))
def test_factor_random(v):
    _assert_factorisation(v, factor(v))


def test_factor_domain():
    for v in (0, -1, -561):
        with pytest.raises(NonPositive):
            factor(v)
    for v in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError):
            factor(v)


def test_factor_leaves_the_is_prime_cache_alone():
    before = is_prime.cache_info()
    for v in (561, 1009**3, 3825123056546413051, 2**64 - 59):
        factor(v)
    assert is_prime.cache_info() == before
