import importlib.util
import math
import os
import pathlib
import shlex
import subprocess
import sys
import sysconfig
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdseq import _backend
from gcdseq.recurrences import b, left_factorial

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _c_compiler_works(tmp):
    """Whether the C compiler setuptools would use compiles a trivial file."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    probe = tmp / "probe.c"
    probe.write_text("int probe(void) { return 0; }\n")
    try:
        done = subprocess.run([*shlex.split(cc), "-c", str(probe), "-o", str(tmp / "probe.o")],
                              capture_output=True)
    except OSError:
        return False
    return done.returncode == 0


@pytest.fixture(scope="module")
def ext(tmp_path_factory):
    """The compiled kernel module.

    The installed ``gcdseq._kernel`` if the backend loaded it; otherwise
    ``setup.py`` builds ``src/gcdseq/_kernel.c`` into a temporary directory
    and the result is loaded from there without entering ``sys.modules``, so
    the backend the session runs on does not change. Skips only when no C
    compiler works.
    """
    if _backend._ext is not None:
        return _backend._ext
    tmp = tmp_path_factory.mktemp("kernel_build")
    if not _c_compiler_works(tmp):
        pytest.skip("no working C compiler")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted((tmp / "lib" / "gcdseq").glob("_kernel.*"))
    if build.returncode or not built:
        pytest.fail(f"a C compiler works but _kernel.c did not build:\n"
                    f"{build.stdout}\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("gcdseq._kernel", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pure(kernel, *args):
    """Run a ``_backend`` kernel on its pure-Python loop, with the extension set aside.

    ``mock.patch.object`` rather than ``monkeypatch``, so ``@given`` tests can
    call it: a function-scoped fixture fails hypothesis's health check.
    """
    with mock.patch.object(_backend, "_ext", None):
        return kernel(*args)


def test_backend_reports_itself():
    assert _backend.backend_name() in ("compiled", "pure-python")


def test_pure_python_against_exact_values():
    for x in (1, 2, 7, 55, 1331, 10**9 + 7, 2**80 + 1):
        for t in (0, 1, 2, 3, 5, 40, 43):
            assert pure(_backend.b_mod_pair, t, x) == (b(t - 1) % x, b(t) % x)


def _second_order_chain(t, x):
    """b(j) = (j+2)(b(j-1) - b(j-2)) from b(-1) = 0, b(0) = 1, mod x."""
    prev, cur = 0, 1 % x
    for j in range(1, t + 1):
        prev, cur = cur, ((j + 2) * (cur - prev)) % x
    return prev, cur


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
def test_pure_python_b_chain_every_tail(t, x):
    # the left-factorial chain against exact b and the second-order chain
    expected = (b(t - 1) % x, b(t) % x)
    assert pure(_backend.b_mod_pair, t, x) == expected
    assert _second_order_chain(t, x) == expected


def test_pure_python_factorial_mod():
    # below 4096 m! comes from the table of (64*j)!: m on both sides of its
    # stride boundaries. From 4096 on the chain runs in blocks of four factors
    # 1..4, 5..8, 9..12, ..., and a tail of none to three (m = 4096..4100); its
    # product first reaches 0 at factor 5 (x = 5!), 7 (7!), 8 (8!) and
    # 10 (2**8): the first, a middle, the last and a middle factor of a block
    for x in (1, 2, 55, 97, 10**12 + 39, 2**70 + 3,
              math.factorial(5), math.factorial(7), math.factorial(8), 2**8):
        for m in (*range(14), 25, 63, 64, 65, 127, 128, 4095, 4096, 4097, 4098, 4099, 4100):
            assert pure(_backend.factorial_mod, m, x) == math.factorial(m) % x, (m, x)
    # only (64*j)! for j < 64 is stored: the chain, not the table, served m >= 4096
    assert _backend._stride_factorial.cache_info().currsize <= 4096 // 64


def test_factorial_mod_early_zero():
    # 10! is divisible by 256
    assert pure(_backend.factorial_mod, 10, 256) == 0
    assert _backend.factorial_mod(10, 256) == 0


def test_dispatcher_handles_huge_moduli():
    x = 2**70 + 3  # beyond the compiled kernels' domain
    assert _backend.b_mod_pair(12, x) == (b(11) % x, b(12) % x)


def _above_both(t):
    """A modulus for t above t! and !t, so the walk's residues are the exact values."""
    return 2 * (math.factorial(t) + left_factorial(t))


def test_left_factorial_walk_against_exact_values():
    # 63/64, 127/128 and 255/256 are block edges
    walk = _backend.LeftFactorials(_above_both, 0, 300)
    for t in (0, 0, 1, 2, 3, 7, 8, 40, 41, 63, 64, 65, 127, 128, 256, 300):
        assert walk.at(t, _above_both(t)) == (math.factorial(t), left_factorial(t)), t


def test_left_factorial_walk_starting_mid_block():
    walk = _backend.LeftFactorials(_above_both, 100, 200)
    for t in (100, 127, 128, 191, 192, 200):
        assert walk.at(t, _above_both(t)) == (math.factorial(t), left_factorial(t)), t


def test_left_factorial_walk_refuses_to_step_back():
    walk = _backend.LeftFactorials(_above_both, 0, 20)
    walk.at(9, _above_both(9))
    with pytest.raises(ValueError, match="step back"):
        walk.at(8, _above_both(8))
    assert walk.at(9, _above_both(9)) == (math.factorial(9), left_factorial(9))


def test_left_factorial_walk_refuses_another_modulus_or_range():
    # never a residue mod anything but the modulus the walk was built with
    walk = _backend.LeftFactorials(lambda t: 2 * (t * t + t + 1), 5, 70)
    for t, m in ((5, 2 * 31 + 2), (5, 2 * 31 * 3), (64, 2 * 31), (65, 2 * 4291 // 2)):
        with pytest.raises(ValueError, match="not mod"):
            walk.at(t, m)
    with pytest.raises(ValueError, match="ends at"):
        walk.at(71, 2 * (71 * 71 + 71 + 1))
    assert walk.at(70, 2 * 4971) == (math.factorial(70) % 9942, left_factorial(70) % 9942)
    with pytest.raises(ValueError, match="not mod"):
        _backend.b_mod_pair(70, 4970, walk)


def _walked_and_chained(ts, x_of):
    """(b_mod_pair with one walk over ascending ``ts``, b_mod_pair without),
    the modulus of t being 2 * x_of(t)."""
    walk = _backend.LeftFactorials(lambda t: 2 * x_of(t), ts[0] if ts else 0, ts[-1] if ts else 0)
    return ([_backend.b_mod_pair(t, x_of(t), walk) for t in ts],
            [_backend.b_mod_pair(t, x_of(t)) for t in ts])


_ASCENDING = st.lists(st.integers(min_value=0, max_value=1500), max_size=12).map(sorted)
_MODULI = st.one_of(st.just(1), st.just(2), st.integers(min_value=1, max_value=2**63 - 1),
                    st.integers(min_value=2**63, max_value=2**70))


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, _MODULI)
@example([0, 1, 2, 2, 5], 1)
@example([0, 63, 64, 65, 127, 128, 1499], 7)
@example([0, 3, 1499], 2**70)
def test_walk_matches_chain_pure_python(ts, x):
    with mock.patch.object(_backend, "_ext", None):
        walked, chained = _walked_and_chained(ts, lambda t: x)
    assert walked == chained


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, _MODULI)
@example([0, 1, 2, 2, 5], 1)
@example([0, 63, 64, 65, 127, 128, 1499], 2**63 - 1)
def test_walk_matches_chain_with_the_extension_loaded(ext, ts, x):
    # the walk runs ahead of the compiled early return; the chain takes it
    with mock.patch.object(_backend, "_ext", ext):
        walked, chained = _walked_and_chained(ts, lambda t: x)
    assert walked == chained


@settings(max_examples=100, deadline=None)
@given(_ASCENDING, st.lists(_MODULI, min_size=1, max_size=70))
@example([0, 1, 2, 2, 5], [1, 2, 3])
@example([0, 63, 64, 65, 127, 128, 1499], [2, 1, 2**70 + 1, 55])
@example([70, 130], [2**64 + 13, 10**9 + 7])
def test_walk_with_a_modulus_per_term_matches_chain(ts, xs):
    # a scan's moduli differ term by term; a block reduces mod their product
    with mock.patch.object(_backend, "_ext", None):
        walked, chained = _walked_and_chained(ts, lambda t: xs[t % len(xs)])
    assert walked == chained


def test_dispatcher_routes_at_the_compiled_limit(ext, monkeypatch):
    # x < 2**63 takes the compiled path; x = 2**63 falls back to pure Python
    compiled = []

    def recording(name):
        kernel = getattr(ext, name)

        def recorded(*args):
            compiled.append(name)
            return kernel(*args)
        return recorded

    names = ("b_mod_pair", "factorial_mod")
    monkeypatch.setattr(_backend, "_ext",
                        types.SimpleNamespace(**{name: recording(name) for name in names}))
    assert _backend.backend_name() == "compiled"
    for x, path in ((2**63 - 1, list(names)), (2**63, [])):
        compiled.clear()
        assert _backend.b_mod_pair(40, x) == (b(39) % x, b(40) % x)
        assert _backend.factorial_mod(30, x) == math.factorial(30) % x
        assert compiled == path, x


class TestCompiledKernel:
    def test_matches_pure_python_small(self, ext):
        for x in (1, 2, 3, 55, 2**31 - 1, 2**31, 2**31 + 1, 2**62 + 11):
            for t in (0, 1, 2, 3, 17, 200):
                assert ext.b_mod_pair(t, x) == pure(_backend.b_mod_pair, t, x)

    def test_factorial_matches_pure_python(self, ext):
        for x in (1, 2, 97, 2**32 - 1, 2**32 + 1, 2**62 + 11):
            for m in (0, 1, 2, 3, 20, 300):
                assert ext.factorial_mod(m, x) == pure(_backend.factorial_mod, m, x)

    def test_rejects_out_of_domain(self, ext):
        with pytest.raises(ValueError):
            ext.b_mod_pair(5, 0)
        with pytest.raises(ValueError):
            ext.b_mod_pair(5, 2**63)
        with pytest.raises(ValueError):
            ext.b_mod_pair(-1, 7)
        with pytest.raises(ValueError):
            ext.factorial_mod(-1, 7)
        # oversized or negative ints are rejected, never wrapped to 64 bits
        for t, x in ((5, 2**64 + 7), (5, -7), (2**64 + 5, 7), (2**63, 7)):
            with pytest.raises(ValueError):
                ext.b_mod_pair(t, x)
            with pytest.raises(ValueError):
                ext.factorial_mod(t, x)

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2500),
        st.integers(min_value=1, max_value=2**63 - 1),
    )
    def test_b_mod_pair_equivalence(self, ext, t, x):
        assert ext.b_mod_pair(t, x) == pure(_backend.b_mod_pair, t, x)

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=1, max_value=2**63 - 1),
    )
    def test_factorial_mod_equivalence(self, ext, m, x):
        assert ext.factorial_mod(m, x) == pure(_backend.factorial_mod, m, x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=600), st.integers(min_value=1, max_value=10**18))
    def test_word_and_wide_paths_agree_with_exact(self, ext, t, x):
        assert ext.b_mod_pair(t, x) == (b(t - 1) % x, b(t) % x)
