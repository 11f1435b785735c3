"""gcdseq: exact-arithmetic workbench for gcd-filtered prime-generating
sequences, their generalized families, and the finite continued-fraction
identities they satisfy.

Every partner residue comes from t! mod 2x: scans walk t! a block of 64
terms at a time, and single terms read it from ``_backend.factorial_mod``,
which takes a factorial table, the factors of x or strides as (t, 2x)
requires. Everything runs in pure Python;
``backend_name()`` says so, for the stamps of benchmark results.

Start-up: ``import gcdseq`` loads no submodule. Each name in ``__all__``
but ``__version__`` imports its home module on first access (``gcdseq.MAIN``
loads ``families``, and with it ``primality`` and ``_backend``), so a program
pays only for the modules it reads. ``from gcdseq import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

# name -> the submodule that defines it
_HOMES = {
    "backend_name": "_backend",
    **dict.fromkeys(("MAIN", "ROWLAND", "Classification", "FamilySpec", "Kind",
                     "Strategy", "TermRecord", "linear", "quadratic", "scan", "term"),
                    "families"),
    **dict.fromkeys(("PrimalityVerdict", "Verdict", "is_prime"), "primality"),
    **dict.fromkeys(("b", "b_via_left_factorial", "left_factorial", "rowland_diff",
                     "rowland_term"), "recurrences"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
