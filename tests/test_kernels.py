import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdseq import _backend
from gcdseq.families import gcd_via_factorial
from gcdseq.recurrences import b, left_factorial

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


def test_pure_python_factorial_mod():
    # m! starts from the stored (64*j)!, j <= 63, then takes strides of 64
    # factors: m on both sides of the table's stride boundaries, of its end
    # at 4096 and of the strides beyond it (4097..4160, 4161..4224), and
    # far out. 4099*4111 first divides m! at m = 4111, inside stride
    # 4097..4160, and no stride runs once the residue is 0 (m = 4300)
    for x in (1, 2, 55, 97, 10**12 + 39, 2**70 + 3, 4099 * 4111):
        for m in (*range(14), 25, 63, 64, 65, 127, 128, 4095, 4096, 4097,
                  4110, 4111, 4159, 4160, 4161, 4300, 10_000):
            assert _backend.factorial_mod(m, x) == math.factorial(m) % x, (m, x)
    assert _backend.factorial_mod(4110, 4099 * 4111) != 0
    assert _backend.factorial_mod(4111, 4099 * 4111) == 0
    # only (64*j)! for j < 64 is stored, however large m grows
    assert _backend._stride_factorial.cache_info().currsize <= 4096 // 64


def test_factorial_mod_early_zero():
    # 10! is divisible by 256
    assert _backend.factorial_mod(10, 256) == 0


def _above_both(t):
    """A modulus for t above t! and !t, so the walk's residues are the exact values."""
    return 2 * (math.factorial(t) + left_factorial(t))


def test_left_factorial_walk_against_exact_values():
    # 63/64, 127/128 and 255/256 are block edges
    walk = _backend.LeftFactorials(_above_both, 0)
    for t in (0, 0, 1, 2, 3, 7, 8, 40, 41, 63, 64, 65, 127, 128, 256, 300):
        assert walk.at(t, _above_both(t)) == (math.factorial(t), left_factorial(t)), t


def test_left_factorial_walk_starting_mid_block():
    walk = _backend.LeftFactorials(_above_both, 100)
    for t in (100, 127, 128, 191, 192, 200):
        assert walk.at(t, _above_both(t)) == (math.factorial(t), left_factorial(t)), t


def test_left_factorial_walk_refuses_to_step_back():
    walk = _backend.LeftFactorials(_above_both, 0)
    walk.at(9, _above_both(9))
    with pytest.raises(ValueError, match="step back"):
        walk.at(8, _above_both(8))
    assert walk.at(9, _above_both(9)) == (math.factorial(9), left_factorial(9))


def test_left_factorial_walk_refuses_another_modulus():
    # never a residue mod anything but the modulus the walk was built with
    walk = _backend.LeftFactorials(lambda t: 2 * (t * t + t + 1), 5)
    for t, m in ((5, 2 * 31 + 2), (5, 2 * 31 * 3), (64, 2 * 31), (65, 2 * 4291 // 2)):
        with pytest.raises(ValueError, match="not mod"):
            walk.at(t, m)
    assert walk.at(70, 2 * 4971) == (math.factorial(70) % 9942, left_factorial(70) % 9942)
    with pytest.raises(ValueError, match="not mod"):
        _backend.b_mod_pair(70, 4970, walk)


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
    for t, m in ((70, _main_x(70)), (71, 2 * _main_x(72)), (128, _main_x(128))):
        with pytest.raises(ValueError, match="not mod"):
            walk.at(t, m)
    assert walk.at(128, _main_x(129)) == math.factorial(128) % _main_x(129)


def _walked_and_exact(ts, x_of):
    """(b_mod_pair with one walk over ascending ``ts``, exact b mod x), the
    modulus of t being 2 * x_of(t)."""
    walk = _backend.LeftFactorials(lambda t: 2 * x_of(t), ts[0] if ts else 0)
    return ([_backend.b_mod_pair(t, x_of(t), walk) for t in ts],
            [(b(t - 1) % x_of(t), b(t) % x_of(t)) for t in ts])


_ASCENDING = st.lists(st.integers(min_value=0, max_value=1500), max_size=12).map(sorted)
_MODULI = st.one_of(st.just(1), st.just(2), st.integers(min_value=1, max_value=2**63 - 1),
                    st.integers(min_value=2**63, max_value=2**70))


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, _MODULI)
@example([0, 1, 2, 2, 5], 1)
@example([0, 63, 64, 65, 127, 128, 1499], 7)
@example([0, 3, 1499], 2**70)
def test_walk_matches_chain_pure_python(ts, x):
    walked, exact = _walked_and_exact(ts, lambda t: x)
    assert walked == exact


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, st.lists(_MODULI, min_size=1, max_size=70))
@example([0, 1, 2, 2, 5], [1, 2, 3])
@example([0, 63, 64, 65, 127, 128, 1499], [2, 1, 2**70 + 1, 55])
@example([70, 130], [2**64 + 13, 10**9 + 7])
def test_walk_with_a_modulus_per_term_matches_chain(ts, xs):
    # a scan's moduli differ term by term; a block reduces mod their product
    walked, exact = _walked_and_exact(ts, lambda t: xs[t % len(xs)])
    assert walked == exact

