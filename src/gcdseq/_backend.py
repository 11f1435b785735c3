"""Kernel selection: the compiled extension when it was built, pure Python otherwise.

Selection happens once at import. Even with the extension loaded, arguments
at or above 2**63 are routed to the pure-Python kernels.
"""

from . import _kernels_py

try:
    from . import _kernel as _ext
except ImportError:
    _ext = None

_EXT_LIMIT = 1 << 63


def backend_name():
    return "pure-python" if _ext is None else "compiled"


def b_mod_pair(t, x):
    if _ext is not None and x < _EXT_LIMIT and t < _EXT_LIMIT:
        return _ext.b_mod_pair(t, x)
    return _kernels_py.b_mod_pair(t, x)


def factorial_mod(m, x):
    if _ext is not None and x < _EXT_LIMIT and m < _EXT_LIMIT:
        return _ext.factorial_mod(m, x)
    return _kernels_py.factorial_mod(m, x)
