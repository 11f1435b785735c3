"""Finite continued fractions over exact rationals, their closed forms, and a
mechanical elimination oracle for the linear relations behind them.

Two schemes are implemented. T1 is the descending fraction

    1 / (2 - 3/(3 - 4/(4 - ... ((n-1) - n/m))))

whose closed form is (m*b(n-3) - n*b(n-4)) / (n*(m-n+2) - m). T2 is

    1 / (1 - 1/(2 - 2/(3 - 3/(... - (n-1)/m))))

for which two candidate closed forms are kept side by side: the printed one,
2*(m*b(n-3) - n*b(n-4)) / (n*(m-n+1)), and the derived one,
(m*!(n-1) - 2*b(n-3)) / (m-n+1). The verifier reports both against the
evaluated fraction rather than preferring either; the elimination oracle
(backward substitution through each scheme's two-term relations) is the
independent route that pins down which coefficients actually occur.

Arithmetic is exact throughout. ``eval_cf`` runs on plain integers and
normalises once, into the ``fractions.Fraction`` it returns; the closed
forms are ``Fraction``s too, so comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import IndexBelowDomain, ZeroDenominator
from .recurrences import b, left_factorial

class Scheme(Enum):
    T1 = "t1"
    T2 = "t2"


@dataclass(frozen=True)
class CFSpec:
    """A descending finite continued fraction.

    ``levels`` is an ordered list of (partial_numerator p_j, level_constant
    c_j) from the outermost level inward; the value is 1 / v_1 where
    v_j = c_j - p_j / v_{j+1} and the innermost v uses ``tail``.
    """

    levels: tuple[tuple[int, int], ...]
    tail: int


def cf_theorem1_spec(n: int, m: int) -> CFSpec:
    """Levels (3,2), (4,3), ..., (n, n-1) with tail m; n >= 3."""
    if n < 3:
        raise IndexBelowDomain(f"scheme defined for n >= 3, got {n}")
    return CFSpec(tuple((j + 1, j) for j in range(2, n)), m)


def cf_theorem2_spec(n: int, m: int) -> CFSpec:
    """Levels (1,1), (2,2), ..., (n-1, n-1) with tail m; n >= 3."""
    if n < 3:
        raise IndexBelowDomain(f"scheme defined for n >= 3, got {n}")
    return CFSpec(tuple((j, j) for j in range(1, n)), m)


def cf_spec(scheme: Scheme, n: int, m: int) -> CFSpec:
    if scheme is Scheme.T1:
        return cf_theorem1_spec(n, m)
    return cf_theorem2_spec(n, m)


def eval_cf(spec: CFSpec) -> Fraction:
    """Evaluate innermost-first as an integer continuant; exact, never rounds.

    The running value v_j is kept as the unreduced ratio num/den of two
    integers (the Euler-Wallis recurrence): v_j = c_j - p_j/v_{j+1} gives
    num, den = c_j*num - p_j*den, num. Since den is always the previous,
    nonzero num, v_j is zero exactly when num is. The result is
    Fraction(den, num), the one normalisation of the call.

    Raises ZeroDenominator naming the level whose division failed (levels
    counted from the outermost = 1; level 0 is the final reciprocal).
    """
    num, den = spec.tail, 1
    for level in range(len(spec.levels), 0, -1):
        p, c = spec.levels[level - 1]
        if num == 0:
            raise ZeroDenominator(
                f"zero denominator under level {level}", where="cf", level=level
            )
        num, den = c * num - p * den, num
    if num == 0:
        raise ZeroDenominator("outer value is zero", where="cf", level=0)
    return Fraction(den, num)


def theorem1_closed_form(n: int, m: int) -> Fraction:
    """(m*b(n-3) - n*b(n-4)) / (n*(m-n+2) - m)."""
    if n < 3:
        raise IndexBelowDomain(f"defined for n >= 3, got {n}")
    den = n * (m - n + 2) - m
    if den == 0:
        raise ZeroDenominator(f"n(m-n+2)-m = 0 at n={n}, m={m}", where="eq1")
    return Fraction(m * b(n - 3) - n * b(n - 4), den)


def theorem2_closed_form(n: int, m: int) -> Fraction:
    """The printed T2 right side: 2*(m*b(n-3) - n*b(n-4)) / (n*(m-n+1))."""
    if n < 3:
        raise IndexBelowDomain(f"defined for n >= 3, got {n}")
    den = n * (m - n + 1)
    if den == 0:
        raise ZeroDenominator(f"n(m-n+1) = 0 at n={n}, m={m}", where="printed")
    return Fraction(2 * (m * b(n - 3) - n * b(n - 4)), den)


def theorem2_derived_form(n: int, m: int) -> Fraction:
    """The elimination-backed T2 right side: (m*!(n-1) - 2*b(n-3)) / (m-n+1)."""
    if n < 3:
        raise IndexBelowDomain(f"defined for n >= 3, got {n}")
    den = m - n + 1
    if den == 0:
        raise ZeroDenominator(f"m-n+1 = 0 at n={n}, m={m}", where="derived")
    return Fraction(m * left_factorial(n - 1) - 2 * b(n - 3), den)


@dataclass(frozen=True)
class LinearForm:
    """alpha * a_u + beta * a_v with v = u + 1."""

    alpha: int
    beta: int
    u: int
    v: int

    def __post_init__(self):
        if self.v != self.u + 1:
            raise ValueError("linear form spans non-adjacent indices")

    def evaluate(self, a_u: int, a_v: int) -> int:
        return self.alpha * a_u + self.beta * a_v


def elimination_chain(scheme: Scheme, n: int) -> tuple[LinearForm, LinearForm]:
    """Express a_1 and a_2 as two-term forms by backward substitution.

    Both schemes use relations a_j = r a_{j+1} - s a_{j+2}: T1 with
    (r, s) = (j+1, j+2), landing on the basis (a_{n-1}, a_n), and T2 with
    (r, s) = (j, j), landing on (a_n, a_{n+1}).
    """
    if n < 3:
        raise IndexBelowDomain(f"chain defined for n >= 3, got {n}")
    t1 = scheme is Scheme.T1
    u = n - 1 if t1 else n
    # the (alpha, beta) of a_{j+1} and a_{j+2}, starting from a_u and a_{u+1}
    near, far = (1, 0), (0, 1)
    for j in range(u - 1, 0, -1):
        r, s = (j + 1, j + 2) if t1 else (j, j)
        near, far = (r * near[0] - s * far[0], r * near[1] - s * far[1]), near
    return LinearForm(*near, u, u + 1), LinearForm(*far, u, u + 1)


@dataclass(frozen=True)
class Eq4Report:
    """How the two-term form of a_1 compares with the printed coefficients.

    The printed claim is a_1 = (n-1) a_{n-1} - (n^2 - 2) a_n; the oracle
    reports the actual beta and whether the corrected coefficient n^2 - 2n
    matches instead.
    """

    n: int
    alpha: int
    beta: int
    printed_holds: bool
    corrected_coefficient: int
    corrected_holds: bool


def verify_eq4(n: int) -> Eq4Report:
    form1, _ = elimination_chain(Scheme.T1, n)
    printed = form1.alpha == n - 1 and form1.beta == -(n * n - 2)
    corrected = form1.alpha == n - 1 and form1.beta == -(n * n - 2 * n)
    return Eq4Report(
        n=n,
        alpha=form1.alpha,
        beta=form1.beta,
        printed_holds=printed,
        corrected_coefficient=-form1.beta,
        corrected_holds=corrected,
    )


@dataclass(frozen=True)
class TheoremReport:
    scheme: Scheme
    n: int
    m: int
    cf_value: Fraction
    forms: tuple[tuple[str, Fraction, bool], ...]

    def form(self, name: str):
        for fname, value, equal in self.forms:
            if fname == name:
                return value, equal
        raise KeyError(name)


def verify_theorem(scheme: Scheme, n: int, m: int) -> TheoremReport:
    """Evaluate the fraction and compare it with every registered closed form."""
    cf_value = eval_cf(cf_spec(scheme, n, m))
    if scheme is Scheme.T1:
        registered = (("eq1", theorem1_closed_form),)
    else:
        registered = (("printed", theorem2_closed_form), ("derived", theorem2_derived_form))
    forms = []
    for name, fn in registered:
        value = fn(n, m)
        forms.append((name, value, value == cf_value))
    return TheoremReport(scheme, n, m, cf_value, tuple(forms))
