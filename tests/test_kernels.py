import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdseq import _backend, primality
from gcdseq.families import gcd_via_factorial
from gcdseq.recurrences import b

from reference_chain import second_order_chain


def test_backend_reports_itself():
    assert _backend.backend_name() == "pure-python"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2000),
    st.one_of(
        st.just(1),
        st.just(2),
        st.integers(min_value=1, max_value=2**69).map(lambda k: 2 * k),
        st.integers(min_value=1, max_value=2**70),
    ),
)
@example(3, 1)
@example(7, 2)
@example(1999, 2**70)
def test_second_order_chain_every_tail(t, x):
    # the tests' reference chain against exact b
    assert second_order_chain(t, x) == (b(t - 1) % x, b(t) % x)


# 2**64 - 59 is prime; 2**64 + 1 = 274177 * 67280421310721 is odd
BELOW_2_64, ABOVE_2_64 = 2**64 - 59, 2**64 + 1
# the first six primes above 4096: their product is odd and above 2**64
SIX_PRIMES = 4099 * 4111 * 4127 * 4129 * 4133 * 4139


def test_pure_python_factorial_mod():
    # m on both sides of the table's stride boundaries, of its end at 4096 and
    # of the strides beyond it (4097..4160, 4161..4224), and far out; x with
    # its odd part just below and just above 2**64 (the factor route's bound),
    # p^e with v_p(m!) < e (4099**2, 2**5000), primes just above m (4099,
    # 4111, 10007) and x whose odd part is above 2**64, so past 4096 strides run
    for x in (1, 2, 55, 97, 10**12 + 39, 2**70 + 3, 4099 * 4111, 2**5 * BELOW_2_64,
              2**5 * ABOVE_2_64, ABOVE_2_64, 4099**2, 3 * 2**5000, 10007, SIX_PRIMES):
        for m in (*range(14), 25, 63, 64, 65, 127, 128, 4095, 4096, 4097,
                  4110, 4111, 4159, 4160, 4161, 4300, 10_000):
            assert _backend.factorial_mod(m, x) == math.factorial(m) % x, (m, x)
    # 4099*4111 first divides m! at m = 4111, by the factor route; the six
    # primes at m = 4139, inside stride 4097..4160, and no stride runs once
    # the residue is 0 (m = 4300)
    assert _backend.factorial_mod(4110, 4099 * 4111) != 0
    assert _backend.factorial_mod(4111, 4099 * 4111) == 0
    assert _backend.factorial_mod(4138, SIX_PRIMES) != 0
    assert _backend.factorial_mod(4139, SIX_PRIMES) == 0
    with mock.patch.object(math, "perm", wraps=math.perm) as perm:
        assert _backend._strided_factorial_mod(4300, SIX_PRIMES) == 0
    assert perm.call_count == 2  # from the stored (4032)!: 4033..4096, 4097..4160
    # only (64*j)! for j < 64 is stored, however large m grows
    assert _backend._stride_factorial.cache_info().currsize <= 4096 // 64


def test_factorial_mod_early_zero():
    # 10! is divisible by 256
    assert _backend.factorial_mod(10, 256) == 0


def odd_part(x):
    return x >> (x & -x).bit_length() - 1


def routed(m, x):
    """factorial_mod(m, x), the arguments of each ``primality.factor`` call it
    makes, and the (m, modulus) of each stride run."""
    with (mock.patch.object(primality, "factor", wraps=primality.factor) as fac,
          mock.patch.object(_backend, "_strided_factorial_mod",
                            wraps=_backend._strided_factorial_mod) as runs):
        r = _backend.factorial_mod(m, x)
    return r, [c.args[0] for c in fac.call_args_list], [c.args for c in runs.call_args_list]


ROUTE_MODULI = {"1": 1, "2": 2, "97": 97, "2^70": 2**70, "3*2^70": 3 * 2**70,
                "2^5*below": 2**5 * BELOW_2_64, "below": BELOW_2_64,
                "2^5*above": 2**5 * ABOVE_2_64, "above": ABOVE_2_64, "six-primes": SIX_PRIMES}


@pytest.mark.parametrize("m", [0, 1, 2, 4095, 4096, 5000])
@pytest.mark.parametrize("name", ROUTE_MODULI)
def test_factorial_mod_takes_one_route_per_input(m, name):
    # below 4096: the table, one stride run (m, x) and no factoring; from
    # 4096: the factor route while the odd part of x is below 2**64, strides
    # else
    x = ROUTE_MODULI[name]
    r, factored, runs = routed(m, x)
    assert r == math.factorial(m) % x
    odd = odd_part(x)
    if m < _backend._TABLE_LIMIT or odd >= 2**64:
        assert (factored, runs) == ([], [(m, x)])
    else:
        assert factored == [odd]
        s = (x // odd).bit_length() - 1
        prime_powers = {q for p, e in {**primality.factor(odd), 2: s}.items() for q in (p, p**e)}
        assert all(q in prime_powers and x % q == 0 for _, q in runs)


def test_factor_route_branches():
    # Wilson: p = 358201 > m = 357600 with k = p - 1 - m = 600 < m reads 600!
    # mod p, not 357600 factors (a sparse mirror: main's 2x at n = 357603)
    x = 2 * 5 * 11 * 6491 * 358_201
    r, factored, runs = routed(357_600, x)
    assert (factored, runs) == ([x // 2], [(600, 358_201)])
    assert r == _backend._strided_factorial_mod(357_600, x)
    # forward: p = 10007 > m with k >= m runs m! mod p; 2 and 3 give 0
    r, _, runs = routed(4100, 6 * 10007)
    assert (r, runs) == (math.factorial(4100) % (6 * 10007), [(4100, 10007)])
    # prime powers with v_p(m!) < e, forward: v_4099(4100!) = 1 < 2 and
    # v_2(4100!) = 4097 < 5000
    for x, q in ((5 * 4099**2, 4099**2), (7 * 2**5000, 2**5000)):
        r, _, runs = routed(4100, x)
        assert (r, runs) == (math.factorial(4100) % x, [(4100, q)])
    # p^e <= m: v_p(m!) >= e by Legendre's formula, so m! = 0 with no run
    assert routed(4100, 2**10 * 3**5 * 4093)[::2] == (0, [])
    # p <= m < p^e with v_p(m!) >= e all the same (v_71(4100!) = 57 and
    # v_2(4100!) = 4097): the forward run ends at 0
    assert routed(4100, 71**3)[::2] == (0, [(4100, 71**3)])
    assert routed(4100, 5 * 2**4000)[::2] == (0, [(4100, 2**4000)])
    # m < 2: 0! = 1! = 1 from the table, whatever x
    for x in (1, 2, 3, 2 * BELOW_2_64, 2**70 + 3):
        assert [routed(m, x) for m in (0, 1)] == [(1 % x, [], [(m, x)]) for m in (0, 1)]


XS = st.one_of(
    st.integers(min_value=1, max_value=2**70),
    # 2**s times an odd part on either side of 2**64
    st.builds(lambda s, odd: odd << s, st.integers(min_value=0, max_value=80),
              st.integers(min_value=0, max_value=2**65).map(lambda v: 2 * v + 1)),
    # primes and prime powers near m
    st.builds(pow, st.sampled_from([2, 3, 4093, 4099, 4111, 8191, 10007, 16411]),
              st.integers(min_value=1, max_value=3)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=4096, max_value=8000), XS)
@example(4096, 1)
@example(357_600 // 64, 2 * 4093)
@example(8000, 16411 * 8191**2 * 2**70)
def test_factorial_mod_past_the_table_matches_math(m, x):
    assert _backend.factorial_mod(m, x) == math.factorial(m) % x


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=700), XS)
@example(1, 2)
@example(2, 38)  # main's 2x at n = 5: 19 is run forward
def test_factor_route_at_any_m_matches_math(m, x):
    # the table's limit lowered to 1, so the factor route serves every m >= 1
    with mock.patch.object(_backend, "_TABLE_LIMIT", 1):
        assert _backend.factorial_mod(m, x) == math.factorial(m) % x


def _above(t):
    """A modulus for t above t!, so the walk's residues are the exact values."""
    return math.factorial(t) + 1


def test_factorial_walk_against_exact_values():
    # 63/64, 127/128 and 255/256 are block edges
    walk = _backend.Factorials(_above, 0)
    for t in (0, 0, 1, 2, 3, 7, 8, 40, 41, 63, 64, 65, 127, 128, 256, 300):
        assert walk.at(t, _above(t)) == math.factorial(t), t


def test_factorial_walk_starting_mid_block():
    walk = _backend.Factorials(_above, 100)
    for t in (100, 127, 128, 191, 192, 200):
        assert walk.at(t, _above(t)) == math.factorial(t), t


def test_b_mod_pair_refuses_a_walk_of_another_modulus():
    # never a residue mod anything but the modulus the walk was built with;
    # b_mod_pair reads t! mod 2x, so a walk built for another x refuses it
    walk = _backend.Factorials(lambda t: 2 * (t * t + t + 1), 5)
    for t, m in ((5, 2 * 31 + 2), (5, 2 * 31 * 3), (64, 2 * 31), (65, 2 * 4291 // 2)):
        with pytest.raises(ValueError, match="not mod"):
            walk.at(t, m)
    assert walk.at(70, 2 * 4971) == math.factorial(70) % 9942
    with pytest.raises(ValueError, match="not mod"):
        _backend.b_mod_pair(70, 4970, walk, 1)
    # 4971 = 1*(70+2) + 69*(70+1): the form the walk was built for
    assert _backend.b_mod_pair(70, 4971, walk, 1) == (b(70) + 69 * b(69)) % 4971


def _main_x(n):
    return n * n - n - 1


# (n_from, n_to - n_from) over main, with m = n - 1 the walk's t
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=1500), st.integers(min_value=0, max_value=200))
@example(3, 0)      # a single term at the first index, m = 2
@example(64, 2)     # m = 63, 64, 65: across a block edge
@example(65, 0)     # a single term at a block start, m = 64
@example(66, 0)     # a single term just past it, m = 65
@example(100, 100)  # starts mid-block, crosses two block edges
@example(1400, 199)
def test_factorial_walk_matches_gcd_via_factorial(n_from, width):
    walk = _backend.Factorials(lambda m: _main_x(m + 1), n_from - 1)
    for n in range(n_from, n_from + width + 1):
        x = _main_x(n)
        r = walk.at(n - 1, x)
        assert r == _backend.factorial_mod(n - 1, x), n
        assert math.gcd(x, r) == gcd_via_factorial(n, x), n


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=700), min_size=1, max_size=12).map(sorted),
       st.lists(st.one_of(st.just(1), st.integers(min_value=2, max_value=2**70)),
                min_size=1, max_size=70))
@example([0, 63, 64, 65, 127, 128], [1, 2**70 + 1, 97])
@example([5, 5, 5], [8])
def test_factorial_walk_with_a_modulus_per_term(ts, ms):
    modulus = lambda t: ms[t % len(ms)]  # noqa: E731
    walk = _backend.Factorials(modulus, ts[0])
    assert [walk.at(t, modulus(t)) for t in ts] == [math.factorial(t) % modulus(t) for t in ts]


def test_factorial_walk_refuses_to_step_back_or_another_modulus():
    walk = _backend.Factorials(lambda m: _main_x(m + 1), 2)
    assert walk.at(70, _main_x(71)) == math.factorial(70) % _main_x(71)
    with pytest.raises(ValueError, match="step back"):
        walk.at(69, _main_x(70))
    assert walk.at(70, _main_x(71)) == math.factorial(70) % _main_x(71)  # still at t = 70
    for t, m in ((70, _main_x(70)), (71, 2 * _main_x(72)), (128, _main_x(128))):
        with pytest.raises(ValueError, match="not mod"):
            walk.at(t, m)
    assert walk.at(128, _main_x(129)) == math.factorial(128) % _main_x(129)


def _walked_and_chained(ts, form_of):
    """(b_mod_pair with one walk over ascending ``ts``, the reference chain's
    c*b(t) + e*b(t-1) mod x), where (c, e) = form_of(t) and x = c(t+2) + e(t+1)."""
    def x_of(t):
        c, e = form_of(t)
        return c * (t + 2) + e * (t + 1)

    walk = _backend.Factorials(lambda t: 2 * x_of(t), ts[0] if ts else 0)
    walked = [_backend.b_mod_pair(t, x_of(t), walk, form_of(t)[0]) for t in ts]
    chained = []
    for t in ts:
        (c, e), x = form_of(t), x_of(t)
        b_prev, b_cur = second_order_chain(t, x)
        chained.append((c * b_cur + e * b_prev) % x)
    return walked, chained


_ASCENDING = st.lists(st.integers(min_value=0, max_value=1500), max_size=12).map(sorted)
_COEFFICIENT = st.one_of(st.just(0), st.just(1), st.just(2),
                         st.integers(min_value=0, max_value=2**63 - 1),
                         st.integers(min_value=2**63, max_value=2**70))
# c, e >= 0 and not both 0, so x = c(t+2) + e(t+1) >= 1 at every t
_FORM = st.tuples(_COEFFICIENT, _COEFFICIENT).filter(any)


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, _FORM)
@example([0, 1, 2, 2, 5], (0, 1))  # x = t+1: x = 1 at t = 0, x = 2 at t = 1
@example([0, 1, 2, 64], (2, 0))  # x = 2(t+2): even at every t
@example([0, 63, 64, 65, 127, 128, 1499], (1, 7))
@example([0, 1, 3, 1499], (2**70, 1))  # x >= 2**64
def test_walk_matches_chain_pure_python(ts, form):
    walked, chained = _walked_and_chained(ts, lambda t: form)
    assert walked == chained


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, st.lists(_FORM, min_size=1, max_size=70))
@example([0, 1, 2, 2, 5], [(0, 1), (1, 0), (2, 3)])
@example([0, 63, 64, 65, 127, 128, 1499], [(0, 2), (1, 1), (2**70, 1), (55, 0)])
@example([70, 130], [(2**64 + 13, 0), (1, 10**9 + 7)])
def test_walk_with_a_modulus_per_term_matches_chain(ts, forms):
    # a scan's moduli differ term by term; a block reduces mod their product
    walked, chained = _walked_and_chained(ts, lambda t: forms[t % len(forms)])
    assert walked == chained
