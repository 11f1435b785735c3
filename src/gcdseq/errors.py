"""Exception types shared across the package."""


class GcdseqError(Exception):
    """Base class for package-specific errors."""


class IndexBelowDomain(GcdseqError, ValueError):
    """A sequence was asked for an index below its first defined index."""


class EmptyRange(GcdseqError, ValueError):
    """A scan or a verifier was given a range with no index in it."""


class InexactDivision(GcdseqError, ArithmeticError):
    """An integer division that must be exact left a remainder."""


class ZeroDenominator(GcdseqError, ZeroDivisionError):
    """A continued-fraction level or a closed form hit a zero denominator.

    ``where`` names the failing expression ("cf" or a closed-form name);
    ``level`` is the continued-fraction level when applicable (counted from
    the outermost level 1; 0 means the final reciprocal).
    """

    def __init__(self, message, *, where=None, level=None):
        super().__init__(message)
        self.where = where
        self.level = level


class NonPositive(GcdseqError, ValueError):
    """Primality queried for a value below 1."""


class UnsupportedFamily(GcdseqError, ValueError):
    """Operation not defined for this family kind."""


class BFileParseError(GcdseqError, ValueError):
    """Malformed b-file data; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
