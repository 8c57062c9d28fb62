"""Fractional integral and derivative operators.

Survival functions (and nested transforms of them) go through the Weyl
integral, computed by quadrature; test functions live in the PowerSum
family, where sequential Riemann-Liouville and Caputo derivatives are
closed-form (one Gamma-ratio per term).  Expectations of power sums run
term by term, through fractional moments or against a density.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple, Sequence

from .distributions import (DistributionModel, _survival_point, fractional_moment,
                            quantile)
from .errors import DivergenceError, InvalidParameterError
from .numerics import (_CHEB_DEGREES, _CHEB_POINTS, _CHEB_TRANSFORM, _coefficient,
                       _tail_sums, gamma, integrate_singular_power, reciprocal_gamma)

__all__ = [
    "PowerSum",
    "weyl_integral",
    "weyl_of_function",
    "weyl_table",
    "power_rl_derivative",
    "power_caputo_derivative",
    "extract_c0",
    "power_mean",
    "power_expectation",
]

_EXP_TOL = 1e-12  # exponents this close are one exponent


class PowerSum(NamedTuple):
    """Finite linear combination of power functions sum_k a_k x^(b_k).

    Terms are kept sorted by exponent with near-equal exponents merged
    and zero coefficients dropped.  Exponents below -1 can legitimately
    appear in derivative outputs; operations computing expectations
    validate the range they need.
    """

    terms: tuple[tuple[float, float], ...]

    @staticmethod
    def from_terms(pairs: Iterable[tuple[float, float]]) -> "PowerSum":
        merged: list[list[float]] = []
        for coef, exp in sorted(pairs, key=lambda p: p[1]):
            coef = float(coef)
            exp = float(exp)
            if merged and abs(merged[-1][1] - exp) <= _EXP_TOL:
                merged[-1][0] += coef
            else:
                merged.append([coef, exp])
        return PowerSum(tuple((c, e) for c, e in merged if c != 0.0))

    @staticmethod
    def power(exponent: float, coef: float = 1.0) -> "PowerSum":
        return PowerSum.from_terms([(coef, exponent)])

    @staticmethod
    def constant(value: float) -> "PowerSum":
        return PowerSum.from_terms([(value, 0.0)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> float:
        if not self.terms:
            return math.inf
        return self.terms[0][1]

    def coefficient_at(self, exponent: float) -> float:
        for coef, exp in self.terms:
            if abs(exp - exponent) <= _EXP_TOL:
                return coef
        return 0.0

    def to_json(self) -> list[dict]:
        return [{"coef": c, "exp": e} for c, e in self.terms]

    @classmethod
    def from_json(cls, obj: list) -> "PowerSum":
        message = "power sum JSON must be a list of {'coef':…, 'exp':…}"
        if not isinstance(obj, list):  # "" or {} would otherwise run as the zero function
            raise InvalidParameterError(message)
        try:
            terms = [(t["coef"], t["exp"]) for t in obj]
        except (TypeError, KeyError) as exc:
            raise InvalidParameterError(message) from exc
        # bool is an int subclass, so JSON true would otherwise run as 1; the
        # comparison also rejects NaN and an int too large for a float
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max for term in terms for v in term):
            raise InvalidParameterError(
                f"power sum terms must be finite numbers, got {terms}")
        return cls.from_terms(terms)

    def describe(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c:g}*x^{e:g}" for c, e in self.terms)


def _rgamma_snapped(v: float) -> float:
    """reciprocal_gamma with float wobble around nonpositive integers snapped.

    Exponent arithmetic like (j+1)*alpha - 1 - j*alpha lands within a few
    ulp of a pole; those coefficients must vanish exactly.
    """
    r = round(v)
    if r <= 0 and abs(v - r) <= 5e-13:
        return 0.0
    return reciprocal_gamma(v)


def power_rl_derivative(g: PowerSum, j: int, alpha: float) -> PowerSum:
    """Sequential Riemann-Liouville derivative D^(j*alpha) on a power sum.

    Applies x^b -> Gamma(b+1)/Gamma(b+1-alpha) x^(b-alpha) termwise,
    j times; terms hitting a Gamma pole in the denominator vanish.
    """
    if j < 0:
        raise InvalidParameterError(f"derivative count must be >= 0, got {j}")
    out = g
    for _ in range(j):
        new_terms = []
        for coef, exp in out.terms:
            rg = _rgamma_snapped(exp + 1.0 - alpha)
            if rg == 0.0:
                continue
            new_terms.append((coef * gamma(exp + 1.0) * rg, exp - alpha))
        out = PowerSum.from_terms(new_terms)
    return out


def power_caputo_derivative(g: PowerSum, i: int, alpha: float) -> PowerSum:
    """Sequential Caputo derivative applied i times.

    Each step is D_C^alpha g = D_RL^alpha (g - g(0)): the constant term
    dies and the rest follows the RL Gamma-ratio rule.  The input (and
    every intermediate result) must have nonnegative exponents.
    """
    if i < 0:
        raise InvalidParameterError(f"derivative count must be >= 0, got {i}")
    out = g
    for _ in range(i):
        if out.terms and out.min_exponent() < -_EXP_TOL:
            raise InvalidParameterError(
                f"Caputo derivative needs nonnegative exponents, got {out.describe()}")
        out = power_rl_derivative(
            PowerSum(tuple((c, e) for c, e in out.terms if abs(e) > _EXP_TOL)),
            1, alpha)
    return out


def extract_c0(g: PowerSum, alpha: float) -> float:
    """Gamma(alpha) times the coefficient of x^(alpha-1) in g.

    Any exponent strictly below alpha - 1 makes the defining limit
    diverge and is rejected.
    """
    target = alpha - 1.0
    for _, exp in g.terms:
        if exp < target - _EXP_TOL:
            raise DivergenceError(
                f"limit x^(1-a) g(x) at 0+ diverges: exponent {exp:g} < {target:g}")
    return gamma(alpha) * g.coefficient_at(target)


# ---------------------------------------------------------------------------
# Weyl integral of survival functions

def weyl_integral(X: DistributionModel, order: float, t: float) -> float:
    """I_-^order Fbar(t) = (1/Gamma(order)) int_t^inf (x-t)^(order-1) Fbar(x) dx."""
    if t < 0.0:
        raise InvalidParameterError(f"Weyl integral requires t >= 0, got {t}")
    return weyl_of_function(X.survival, order, t, upper=X.support_upper,
                            breakpoints=X.breakpoints)


def weyl_of_function(h: Callable[[float], float], order: float, t: float, *,
                     upper: float | None = None,
                     breakpoints: tuple[float, ...] = ()) -> float:
    """I_-^order h(t) for an arbitrary integrable callable.

    weyl_integral applies it to a survival function; nested transforms
    (the semigroup check) apply it to a weyl_table, the inner transform
    tabulated once.  ``upper`` declares where h vanishes for good, and
    ``breakpoints`` the sorted kinks of h, where the quadrature cuts.
    """
    if order <= 0.0:
        raise InvalidParameterError(f"Weyl integral order must be > 0, got {order}")
    res = integrate_singular_power(h, t, order, upper=upper, breakpoints=breakpoints)
    return res.require(f"Weyl integral of order {order:g}") / gamma(order)


def weyl_table(X: DistributionModel, order: float, scales: Sequence[float] = (1.0,)
               ) -> tuple[Callable[[float], float], float]:
    """I_-^order Fbar as a table on [0, T] that is 0 beyond T: (table, T).

    T bounds the support, or is where I_-^order Fbar(0) truncates.  Each
    level is a Chebyshev interpolant of degree 6, 12 or 24 per panel,
    evaluated by Clenshaw's recurrence (see _tabulate), on panels graded
    toward X's kinks and, where Fbar is not smooth there, toward 0 (see
    _panel_edges).  At order 1 a level is a plain tail integral, and one
    sweep over the gaps between its nodes gives every node (see _swept);
    at any other order each node is one quadrature.  Both are split at
    X's breakpoints.  At an order 1/k a kink b below T adds (b - u)^(j/k + 1)
    to level j, a power of w = (b - u)^order, so the panel left of b is
    one panel, tabulated in w instead of graded.  For an unbounded law a
    node integrates up to the first x with Fbar(x) <= _SPENT_LEVEL, or T
    if that comes first or is never reached: T, the doubling truncation
    in u = x^order, can lie up to 2^(1/order) times farther out.  With
    several ``scales`` the table nests: level k is scales[k-1] times
    I_-^order of level k-1's table, level 0 is Fbar; the last level is
    returned.
    """
    T = cut = X.support_upper
    reach = None  # T bounds the support
    if not math.isfinite(T):
        res = integrate_singular_power(X.survival, 0.0, order)
        res.require(f"I_-^{order:g} of {X.label} at 0")
        # tail panels follow where the survival is spent
        T = cut = res.truncation_point
        reach = min(T, quantile(X, 1.0 - _TAIL_LEVEL))
        try:
            cut = min(T, _survival_point(X, _SPENT_LEVEL))
        except DivergenceError:  # the level is not reached at any finite x
            pass
    smooth_in_w = order <= 1.0 and (1.0 / order).is_integer()
    mapped = [x for x in X.breakpoints if x < T] if smooth_in_w else []
    edges = _panel_edges(X.survival, X.breakpoints, T, reach, mapped)
    g = gamma(order)
    level = X.survival
    if order == 1.0:
        nodes = sorted({x for *_, xs in _panel_nodes(edges, mapped, order) for x in xs})
    for k, scale in enumerate(scales, 1):
        what = f"I_-^{order:g} at level {k}"
        if order == 1.0:  # a plain tail integral: every node from one sweep
            values = _swept(level, nodes, X.breakpoints, cut, what)
            weyl = lambda u, values=values, scale=scale: scale * values[u]
        else:
            def weyl(u: float, prev=level, scale=scale, what=what) -> float:
                res = integrate_singular_power(prev, u, order, upper=cut,
                                               breakpoints=X.breakpoints)
                return scale * res.require(what) / g
        level = _tabulate(weyl, edges, mapped, order)
    return level, T


_CHOP = 1e-13  # trailing coefficients this small, relative to the table, are noise
_GRADING = 0.2  # width ratio of successive table panels toward a kink
_GRADED_PANELS = 7  # table panels graded toward each kink
_TAIL_DOUBLINGS = 5  # panels of doubling width between the last kink and reach
_TAIL_LEVEL = 1e-15  # survival probability at which an unbounded law is spent
_SPENT_LEVEL = 2.0 ** -60  # survival beyond which a table node integrates nothing


def _chopped(values: Sequence[float], scale: float) -> bool:
    """Whether the last three Chebyshev coefficients of values are noise.

    values sit at the Chebyshev points of a panel (see _tabulate); a
    coefficient is noise at most _CHOP times ``scale``.
    """
    return all(abs(_coefficient(row, values)) <= _CHOP * scale
               for row in _CHEB_TRANSFORM[len(values) - 1][-3:])


def _panel_edges(survival: Callable[[float], float], kinks: Sequence[float], T: float,
                 reach: float | None, mapped: Sequence[float] = ()) -> list[float]:
    """Table panel edges on [0, T]: 0, the kinks below T and T.

    A Weyl integral at u depends on its integrand on [u, inf) only, so a
    kink makes every nested level singular on its left side alone: panels
    shrink geometrically toward each kink from the left.  When T bounds
    the support (reach is None) it is a kink too; otherwise panel widths
    double past the last kink, _TAIL_DOUBLINGS of them up to reach, where
    the survival function is spent, and on up to T.  No panels are graded
    toward the ``mapped`` kinks, whose left panels _tabulate maps.  Toward
    0 the panels shrink only while the law needs it (Weibull of a shape
    that is not an integer is not smooth there): while the survival
    function on the first panel [0, w] fails the table's chop rule at
    degree 24, w shrinks by _GRADING, _GRADED_PANELS - 1 times at most.
    """
    edges = {0.0, T}
    lo = 0.0
    for b in [x for x in kinks if x < T] + ([T] if reach is None else []):
        if b not in mapped:
            half = 0.5 * (b - lo)
            edges.update(b - half * _GRADING ** j for j in range(_GRADED_PANELS))
        edges.add(b)
        lo = b
    if reach is not None:
        width = ((reach if reach > lo else T) - lo) * 0.5 ** _TAIL_DOUBLINGS
        while lo + width < T:
            edges.add(lo + width)
            width *= 2.0
    first = min(edges - {0.0})
    for j in range(1, _GRADED_PANELS):
        half = 0.5 * first * _GRADING ** (j - 1)
        values = [survival(half - half * c) for c in _CHEB_POINTS]
        if _chopped(values, max(map(abs, values))):
            break
        edges.add(first * _GRADING ** j)
    return sorted(edges)


def _swept(f: Callable[[float], float], nodes: Sequence[float], kinks: Sequence[float],
           cut: float, what: str) -> dict[float, float]:
    """{x: int_x^cut f} for each of the sorted ``nodes``, 0 from cut on.

    One right-to-left sweep (numerics._tail_sums) over the nodes below
    cut, the ``kinks`` of f between the first node and cut, and cut.
    """
    points = sorted({x for x in nodes if x < cut}
                    | {x for x in kinks if nodes[0] < x < cut}) + [cut]
    values = dict.fromkeys(nodes, 0.0)
    values.update(zip(points, _tail_sums(f, points, what)))
    return values


def _panel_nodes(edges: Sequence[float], mapped: Sequence[float], power: float):
    """Per table panel [a, b]: (end, mid, half, xs), xs its 25 nodes from a to b.

    xs[i] is node i of degree 24; degree m keeps every (24 // m)-th one.
    A panel with b in ``mapped`` has end = b and its points in
    w = (b - x)^power, read back as x = -w; any other has end = None.
    """
    m_max = _CHEB_DEGREES[-1]
    for a, b in zip(edges, edges[1:]):
        if b in mapped:
            half = 0.5 * (b - a) ** power
            yield b, -half, half, ([a] + [b - (half + half * c) ** (1.0 / power)
                                          for c in _CHEB_POINTS[1:m_max]] + [b])
        else:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            yield None, mid, half, [a] + [mid - half * c for c in _CHEB_POINTS[1:m_max]] + [b]


def _tabulate(f: Callable[[float], float], edges: Sequence[float],
              mapped: Sequence[float] = (), power: float = 1.0) -> Callable[[float], float]:
    """Piecewise Chebyshev interpolant of f on [edges[0], edges[-1]], 0 beyond.

    Each panel holds f at the Chebyshev points of the second kind of
    degree 6, 12 or 24: the first of _CHEB_DEGREES whose last three Chebyshev
    coefficients are at most _CHOP times the largest |f| the table has
    seen (the chopping rule of Aurentz & Trefethen, ACM TOMS 43:33,
    2017), or 24.  The point sets are nested, so a higher degree reuses
    every value taken, and a shared panel edge is evaluated once: f is
    called once per distinct node.  A panel [a, b] with b in ``mapped``
    holds its points in w = (b - x)^power instead, at x = b - w^(1/power).
    A panel keeps the Chebyshev coefficients of its values, each summed
    by math.fsum, and is evaluated by Clenshaw's recurrence (Clenshaw,
    Math. Comp. 9:118, 1955).
    """
    m_max = _CHEB_DEGREES[-1]
    panels = []
    last = f(edges[0])
    scale = abs(last)
    for end, mid, half, xs in _panel_nodes(edges, mapped, power):
        values = {0: last, m_max: f(xs[-1])}
        for m in _CHEB_DEGREES:
            ids = range(0, m_max + 1, m_max // m)
            for i in ids:
                if i not in values:
                    values[i] = f(xs[i])
            fs = [values[i] for i in ids]
            scale = max(scale, max(map(abs, fs)))
            if m == m_max or _chopped(fs, scale):
                break
        last = fs[-1]
        # the points run from a, where T_k(cos pi) = (-1)^k, so the
        # interpolant is sum_k c_k T_k((mid - x) / half)
        coefs = [_coefficient(row, fs) for row in _CHEB_TRANSFORM[m]]
        panels.append((mid, 2.0 / half, coefs[0], coefs[:0:-1], end))
    top = edges[-1]

    def table(x: float) -> float:
        if x > top:
            return 0.0
        mid, two_by_half, c0, coefs, end = panels[bisect_right(edges, x, 1, len(panels)) - 1]
        if end is not None:
            x = -(end - x) ** power
        twice_y = (mid - x) * two_by_half
        b1 = b2 = 0.0
        for c in coefs:  # c_m down to c_1
            b1, b2 = c + twice_y * b1 - b2, b1
        return c0 + 0.5 * twice_y * b1 - b2

    return table


# ---------------------------------------------------------------------------
# expectations of power sums

def power_mean(g: PowerSum, X: DistributionModel) -> float:
    """E[g(X)] term by term through fractional moments."""
    return math.fsum(coef * fractional_moment(X, exp)
                     for coef, exp in g.terms)


def power_expectation(g: PowerSum, density: Callable[[float], float], *,
                      upper: float | None = None,
                      breakpoints: tuple[float, ...],
                      kink_power: float | None = None) -> float:
    """E[g(Z)] for Z with the given density.

    Integrates term by term with the singular-power rule, so exponents in
    (-1, 0) are handled exactly once.  Every term must converge, which
    certifies E[|g(Z)|] < inf.  ``upper`` declares where the density
    vanishes, and ``breakpoints`` the sorted kinks of the density, where
    the quadrature cuts; it has no default, so that every caller states
    whether its density has kinks.  ``kink_power`` q declares that the
    density behaves like A + B (b - z)^q left of each kink and of a
    finite ``upper``, and maps the piece there when 1/q is an integer
    (see integrate_singular_power).
    """
    value = 0.0
    for coef, exp in g.terms:
        if exp <= -1.0:
            raise DivergenceError(
                f"E[g(Z)] diverges: exponent {exp:g} <= -1 in {g.describe()}")
        res = integrate_singular_power(density, 0.0, exp + 1.0, upper=upper,
                                       breakpoints=breakpoints, kink_power=kink_power)
        value += coef * res.require(f"E[Z^{exp:g}] against numeric density")
    return value
