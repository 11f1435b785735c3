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
(backward substitution through each scheme's two-term relations) pins down
which coefficients actually occur.

Both are 1/v_1 with v_j = c_j - p_j/v_{j+1} over the levels j = 1..K and
v_{K+1} = m: (p_j, c_j) = (j+2, j+1) with K = n-2 in T1, (j, j) with K = n-1
in T2. Level 0 is the outer reciprocal 1/v_1.

Convergent table. With v_j = N_j/D_j, (N_j, D_j) = A_j (N_{j+1}, D_{j+1}) for
A_j = [[c_j, -p_j], [1, 0]], so (N, D) = P_K (m, 1) with P_K = A_1 ... A_K,
and the value is D/N (the fundamental recurrence, Euler-Wallis; H. S. Wall,
Analytic Theory of Continued Fractions, 1948, ch. I). No level depends on n
or m, so one table per scheme serves every fraction. Its entry k is
col_k = (x_k, y_k), the first column of P_k. The second column of
P_k = P_{k-1} A_k is -p_k col_{k-1}, so col_k = c_k col_{k-1} - p_{k-1} col_{k-2}
for k >= 2, from col_0 = (1, 0) and col_1 = (c_1, 1), the first column of A_1.

Zero levels. Level j >= 1 divides by zero when N_{j+1} = 0, level 0 when
N = N_1 = 0. Since (N, D) = P_j (N_{j+1}, D_{j+1}), the adjugate of P_j gives
det(P_j) N_{j+1} = p_j (x_{j-1} D - y_{j-1} N), and det(P_j) = p_1 ... p_j is
not 0. So level j >= 1 fails exactly when N y_{j-1} = D x_{j-1}. By the row
identity below and b(k-1) = (k+1) !k/2, s y_k = !k x_k with s = 2 in T1 and
s = 1 in T2, and x_k != 0 for k >= 0. N and D are never both 0, as
adj(P_K) (N, D) = det(P_K) (m, 1). So N = 0 fails level 0 and no other
level. For N != 0, level j >= 1 fails exactly when s D/N = !(j-1); as !k
increases strictly with k, at most one j does, and none when D/N in lowest
terms has a denominator not dividing s. That j is found by bisection over
!0 ... !(K-1) and confirmed by the exact cross-multiplication with the
table's own col_{j-1}: the left factorials only propose a level, the table
decides it.

Elimination. The relations a_j = c_j a_{j+1} - p_j a_{j+2} give
(a_1, a_2) = P_K (a_{K+1}, a_{K+2}): the rows of P_K are the forms of a_1 and
a_2, and the fraction is a_2/a_1 at (a_{K+1}, a_{K+2}) = (m, 1).

Closed forms. Each closed form is p(m)/q(m) with p = p1 m + p0 and
q = q1 m + q0, kept as its coefficient rows at n (``closed_forms``), read once
per n:
- eq1 is (b(n-3), -n b(n-4)) over (n-1, -n(n-2));
- the printed T2 form is (2b(n-3), -2n b(n-4)) over (n, -n(n-1));
- the derived T2 form is (!(n-1), -2b(n-3)) over (1, -(n-1)).
A form is compared with the value v = ``eval_cf`` returns by one
cross-multiplication, v.numerator q(m) == v.denominator p(m). That is exact:
q(m) != 0 (a zero raises ZeroDenominator first), and the denominator of the
normalised v is positive, so the two sides are equal exactly when
v = p(m)/q(m). A closed form's own ``Fraction`` is built only where its value
is printed.

Row identity. With near = (x, x') and far = (y, y') the rows of P_K, a form
equals D/N = (y m + y')/(x m + x') for every m exactly when D q = N p as
polynomials in m, one equality per power: y q1 = x p1,
y q0 + y' q1 = x p0 + x' p1 and y' q0 = x' p0. The rows of P_K are
(x_K, -p_K x_{K-1}) and (y_K, -p_K y_{K-1}), and by induction on
col_k = c_k col_{k-1} - p_{k-1} col_{k-2} from col_0 and col_1:
- T1 has x_k = k+1, since (k+1)(k - (k-1)) = k+1, and y_k = b(k-1), since
  y_k = (k+1)(y_{k-1} - y_{k-2}) is b's own recurrence, from y_0 = b(-1) = 0
  and y_1 = b(0) = 1. With K = n-2 and p_K = n the rows are eq1's q and p.
- T2 has x_k = 1, since k - (k-1) = 1, and y_k = !k, since
  k !(k-1) - (k-1) !(k-2) = !(k-1) + (k-1)(k-2)! = !(k-1) + (k-1)! = !k,
  from y_0 = !0 = 0 and y_1 = !1 = 1. With K = n-1 and p_K = n-1 the rows
  are (1, -(n-1)) and (!(n-1), -(n-1) !(n-2)), and (n-1) !(n-2) = 2b(n-3):
  the derived form's q and p.
So eq1 and the derived form hold for every n >= 3 and every m away from the
zero levels. Against the T2 rows, the printed form's last equality would
need b(n-3) = b(n-4), which fails for every n >= 3, as b(t) = (t+2) !(t+1)/2
increases with t. The identity suites still check the three equalities at
every n.

Arithmetic is exact throughout: integers, and one normalisation into the
``fractions.Fraction`` that ``eval_cf`` returns.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import IndexBelowDomain, ZeroDenominator
from .recurrences import _RecurrenceCache, _lf_cache, b, left_factorial

class Scheme(Enum):
    T1 = "t1"
    T2 = "t2"

    __hash__ = object.__hash__  # identity, as Enum equality is: no Python-level hash per lookup

    def level(self, j: int) -> tuple[int, int]:
        """(p_j, c_j) of level j >= 1, from the outermost = 1."""
        return (j + 2, j + 1) if self is Scheme.T1 else (j, j)

    def depth(self, n: int) -> int:
        """K, the number of levels of the fraction at n."""
        return n - 2 if self is Scheme.T1 else n - 1


class CFSpec(NamedTuple):
    """The fraction of ``scheme`` at ``n``: levels ``scheme.level(j)`` for
    j = 1..depth(n) from the outermost inward, innermost v = ``tail``."""

    scheme: Scheme
    n: int
    tail: int


def cf_spec(scheme: Scheme, n: int, m: int) -> CFSpec:
    if n < 3:
        raise IndexBelowDomain(f"scheme defined for n >= 3, got {n}")
    return CFSpec(scheme, n, m)


def _convergents(scheme):
    """The columns col_k = (x_k, y_k), k >= 0, of ``scheme``."""
    level = scheme.level

    def step(k, cols):
        c, p = level(k)[1], level(k - 1)[0]
        (x1, y1), (x2, y2) = cols[-1], cols[-2]
        return c * x1 - p * x2, c * y1 - p * y2

    return _RecurrenceCache(0, ((1, 0), (level(1)[1], 1)), step)


_TABLES = {scheme: _convergents(scheme) for scheme in Scheme}
_SCALE = {Scheme.T1: 2, Scheme.T2: 1}  # s, with s y_k = !k x_k


@lru_cache(maxsize=2)
def _prefix(scheme, k):
    """P_k = A_1 ... A_k as its rows, k >= 1.

    The identity suites keep n, and so k, fixed over all their m, so the
    last two (scheme, k) asked serve almost every call. The table only
    grows, so a held P_k never goes stale.
    """
    table = _TABLES[scheme]
    (x, y), (x1, y1) = table.value(k), table.value(k - 1)
    p = scheme.level(k)[0]
    return (x, -p * x1), (y, -p * y1)


def _zero_level(scheme, k, num, den, value):
    """The level j in 1..k failing at P_k (m, 1) = (num, den), where num != 0
    and value = den/num; None if no level fails."""
    s = _SCALE[scheme]
    if s % value.denominator:
        return None
    target = s // value.denominator * value.numerator
    left_factorial(k - 1)  # the cache's own list then holds !0 ... !(k-1)
    lf = _lf_cache._terms
    i = bisect_left(lf, target, 0, k)
    if i < k and lf[i] == target:
        x, y = _TABLES[scheme].value(i)
        if num * y == den * x:
            return i + 1
    return None


def eval_cf(spec: CFSpec) -> Fraction:
    """Evaluate as (N, D) = P_K (m, 1) from the scheme's table; exact.

    The result is Fraction(D, N), the one normalisation of the call. Raises
    ZeroDenominator naming the level whose division failed (levels counted
    from the outermost = 1; level 0 is the final reciprocal).
    """
    k, m = spec.scheme.depth(spec.n), spec.tail
    near, far = _prefix(spec.scheme, k)
    num, den = near[0] * m + near[1], far[0] * m + far[1]
    if num == 0:
        raise ZeroDenominator("outer value is zero", where="cf", level=0)
    value = Fraction(den, num)
    level = _zero_level(spec.scheme, k, num, den, value)
    if level is not None:
        raise ZeroDenominator(
            f"zero denominator under level {level}", where="cf", level=level
        )
    return value


class ClosedForm(NamedTuple):
    """A closed form of ``scheme`` at ``n`` as coefficient rows: p(m)/q(m)
    with p = p1*m + p0 and q = q1*m + q0. ``zero`` names q as printed."""

    name: str
    scheme: Scheme
    n: int
    p: tuple[int, int]
    q: tuple[int, int]
    zero: str

    def _q(self, m):
        q = self.q[0] * m + self.q[1]
        if q == 0:
            raise ZeroDenominator(f"{self.zero} = 0 at n={self.n}, m={m}", where=self.name)
        return q

    def value(self, m: int) -> Fraction:
        return Fraction(self.p[0] * m + self.p[1], self._q(m))

    def equals(self, value: Fraction, m: int) -> bool:
        """value == p(m)/q(m), by one cross-multiplication."""
        q = self._q(m)
        return value.numerator * q == value.denominator * (self.p[0] * m + self.p[1])

    def row_identity(self) -> bool:
        """Whether p/q = D/N as rational functions of m: D*q = N*p, one
        equality per power of m, with N and D the rows of P_K."""
        (x, x1), (y, y1) = _prefix(self.scheme, self.scheme.depth(self.n))
        (p1, p0), (q1, q0) = self.p, self.q
        return (y * q1 == x * p1 and y * q0 + y1 * q1 == x * p0 + x1 * p1
                and y1 * q0 == x1 * p0)


def closed_forms(scheme: Scheme, n: int) -> tuple[ClosedForm, ...]:
    """The closed forms registered for ``scheme``, as rows at ``n``: eq1 for
    T1, the printed and the derived form for T2."""
    if n < 3:
        raise IndexBelowDomain(f"defined for n >= 3, got {n}")
    if scheme is Scheme.T1:
        return (ClosedForm("eq1", scheme, n, (b(n - 3), -n * b(n - 4)),
                           (n - 1, -n * (n - 2)), "n(m-n+2)-m"),)
    b3 = b(n - 3)
    return (
        ClosedForm("printed", scheme, n, (2 * b3, -2 * n * b(n - 4)),
                   (n, -n * (n - 1)), "n(m-n+1)"),
        ClosedForm("derived", scheme, n, (left_factorial(n - 1), -2 * b3),
                   (1, -(n - 1)), "m-n+1"),
    )


def theorem1_closed_form(n: int, m: int) -> Fraction:
    """(m*b(n-3) - n*b(n-4)) / (n*(m-n+2) - m)."""
    return closed_forms(Scheme.T1, n)[0].value(m)


def theorem2_closed_form(n: int, m: int) -> Fraction:
    """The printed T2 right side: 2*(m*b(n-3) - n*b(n-4)) / (n*(m-n+1))."""
    return closed_forms(Scheme.T2, n)[0].value(m)


def theorem2_derived_form(n: int, m: int) -> Fraction:
    """The elimination-backed T2 right side: (m*!(n-1) - 2*b(n-3)) / (m-n+1)."""
    return closed_forms(Scheme.T2, n)[1].value(m)


class _LinearFields(NamedTuple):
    alpha: int
    beta: int
    u: int
    v: int


class LinearForm(_LinearFields):
    """alpha * a_u + beta * a_v with v = u + 1."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int, u: int, v: int):
        if v != u + 1:
            raise ValueError("linear form spans non-adjacent indices")
        return super().__new__(cls, alpha, beta, u, v)

    def evaluate(self, a_u: int, a_v: int) -> int:
        return self.alpha * a_u + self.beta * a_v


def elimination_chain(scheme: Scheme, n: int) -> tuple[LinearForm, LinearForm]:
    """a_1 and a_2 as two-term forms in the basis (a_{K+1}, a_{K+2}): T1 lands
    on (a_{n-1}, a_n), T2 on (a_n, a_{n+1}). Backward substitution through
    a_j = c_j a_{j+1} - p_j a_{j+2} is the prefix product P_K of the table."""
    if n < 3:
        raise IndexBelowDomain(f"chain defined for n >= 3, got {n}")
    k = scheme.depth(n)
    near, far = _prefix(scheme, k)
    return LinearForm(*near, k + 1, k + 2), LinearForm(*far, k + 1, k + 2)


class Eq4Report(NamedTuple):
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


class TheoremReport(NamedTuple):
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
    forms = tuple((form.name, form.value(m), form.equals(cf_value, m))
                  for form in closed_forms(scheme, n))
    return TheoremReport(scheme, n, m, cf_value, forms)
