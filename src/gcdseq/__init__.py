"""gcdseq: exact-arithmetic workbench for gcd-filtered prime-generating
sequences, their generalized families, and the finite continued-fraction
identities they satisfy.

Scans walk t! and !t a block of 64 terms at a time, and single terms build
t! mod 2x from the factors of x. Everything runs in pure Python;
``backend_name()`` says so, for the stamps of benchmark results.
"""

from ._backend import backend_name
from .families import (
    MAIN,
    ROWLAND,
    Classification,
    FamilySpec,
    Kind,
    Strategy,
    TermRecord,
    linear,
    quadratic,
    scan,
    term,
)
from .primality import PrimalityVerdict, Verdict, is_prime
from .recurrences import b, b_via_left_factorial, left_factorial, rowland_diff, rowland_term

__version__ = "0.1.0"

__all__ = [
    "MAIN",
    "ROWLAND",
    "Classification",
    "FamilySpec",
    "Kind",
    "PrimalityVerdict",
    "Strategy",
    "TermRecord",
    "Verdict",
    "__version__",
    "b",
    "b_via_left_factorial",
    "backend_name",
    "is_prime",
    "left_factorial",
    "linear",
    "quadratic",
    "rowland_diff",
    "rowland_term",
    "scan",
    "term",
]
