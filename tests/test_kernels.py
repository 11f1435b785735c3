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
from gcdseq.recurrences import b

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
    # blocks of four factors are 1..4, 5..8, 9..12; the product first reaches
    # 0 at m = 5 (5!), 7 (7!), 8 (8!) and 10 (2**8): in the tail for small m,
    # and at the first, a middle, the last and a middle factor of a block
    for x in (1, 2, 55, 97, 10**12 + 39, 2**70 + 3,
              math.factorial(5), math.factorial(7), math.factorial(8), 2**8):
        for m in (*range(14), 25):
            assert pure(_backend.factorial_mod, m, x) == math.factorial(m) % x, (m, x)


def test_factorial_mod_early_zero():
    # 10! is divisible by 256
    assert pure(_backend.factorial_mod, 10, 256) == 0
    assert _backend.factorial_mod(10, 256) == 0


def test_dispatcher_handles_huge_moduli():
    x = 2**70 + 3  # beyond the compiled kernels' domain
    assert _backend.b_mod_pair(12, x) == (b(11) % x, b(12) % x)


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
