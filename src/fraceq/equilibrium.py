"""The n-th order fractional equilibrium distribution.

The primary path works through upper partial moments: survival
E[(X-t)_+^(n a)] / E[X^(n a)] and density
n a E[(X-t)_+^(n a - 1)] / E[X^(n a)].  The recursive definition
(n Weyl integrals, each level tabulated once) exists purely as an
independent oracle, and a fixed-point check operationalizes the
exponential characterization.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

from .distributions import (DistributionModel, _partial_fn, fractional_moment,
                            quantile, upper_partial_moment)
from .errors import DivergenceError, InvalidParameterError
from .fracops import weyl_table
from .numerics import beta, gamma, geomspace, integrate_singular_power

__all__ = [
    "EquilibriumView",
    "eq_survival",
    "eq_density",
    "eq_density_fn",
    "eq_survival_recursive",
    "eq_moment",
    "first_order_cdf_interpretation",
    "CharacterizationReport",
    "characterization_check",
]

_MAX_RECURSION_ORDER = 3


class EquilibriumView:
    """X seen through its order-(alpha, n) fractional equilibrium variable."""

    # not a NamedTuple: the constructor checks its arguments
    __slots__ = ("base", "alpha", "n", "norm")
    base: DistributionModel
    alpha: float
    n: int
    norm: float  # E[X^(n*alpha)], cached

    def __init__(self, base: DistributionModel, alpha: float, n: int) -> None:
        if alpha <= 0.0:
            raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
        if n < 1:
            raise InvalidParameterError("equilibrium views need n >= 1")
        self.base = base
        self.alpha = alpha
        self.n = n
        norm = fractional_moment(base, self.total)
        if not (0.0 < norm < math.inf):
            raise DivergenceError(
                f"E[X^{self.total:g}] must be finite and positive, got {norm}")
        self.norm = norm

    @property
    def total(self) -> float:
        """n * alpha."""
        return self.n * self.alpha


def eq_survival(view: EquilibriumView, t: float) -> float:
    """P(X_alpha^(n) > t) = E[(X-t)_+^(n alpha)] / E[X^(n alpha)]."""
    return upper_partial_moment(view.base, t, view.total) / view.norm


def eq_density(view: EquilibriumView, t: float) -> float:
    """Density n alpha E[(X-t)_+^(n alpha - 1)] / E[X^(n alpha)]."""
    na = view.total
    return na * upper_partial_moment(view.base, t, na - 1.0) / view.norm


def eq_density_fn(view: EquilibriumView) -> Callable[[float], float]:
    """The density as a plain callable of t >= 0, for use as an integrand.

    The partial moment of order n alpha - 1 is resolved once.  Where one
    value of it is not a closed form (Weibull, ``numeric`` and their
    wrappers) the callable is memoized, since integrals of it against
    several weights revisit the same nodes (adaptive panels are dyadic,
    so the seed panels of every doubling segment coincide); a closed form
    costs less than a memo lookup.
    """
    na, norm = view.total, view.norm
    partial = _partial_fn(view.base, na - 1.0)
    density = lambda t: na * partial(t) / norm
    return density if view.base.closed_form_partial is not None else functools.cache(density)


def eq_survival_recursive(X: DistributionModel, alpha: float, n: int,
                          ts: Sequence[float]) -> list[float]:
    """P(X_alpha^(n) > t) at each t of ts by the recursive definition.

    Level k is the order-alpha Weyl integral of level k-1, normalized to
    1 at 0; level 0 is the survival function of X.  Levels 1 to n-1 are
    tabulated once each on [0, T] by fracops.weyl_table; only level n is
    integrated at ts.  Exists solely as an independent oracle for
    eq_survival; depth is capped at n = 3.
    """
    if alpha <= 0.0 or n < 1:
        raise InvalidParameterError(
            f"recursive equilibrium needs alpha > 0 and n >= 1, got ({alpha}, {n})")
    if n > _MAX_RECURSION_ORDER:
        raise InvalidParameterError(
            f"recursive oracle capped at n = {_MAX_RECURSION_ORDER}, got {n}")
    coefs = [gamma(k * alpha + 1.0) / gamma((k - 1) * alpha + 1.0)
             * fractional_moment(X, (k - 1) * alpha)
             / fractional_moment(X, k * alpha) for k in range(1, n + 1)]
    # at n = 1, one quadrature of the survival function per point, split at
    # its kinks: the same integral as the direct path's for a law without
    # closed forms (ROADMAP item 4)
    prev, T = X.survival, X.support_upper
    if n > 1:
        prev, T = weyl_table(X, alpha, coefs[:-1])
    g_alpha = gamma(alpha)
    level_n = (integrate_singular_power(prev, t, alpha, upper=T,
                                        breakpoints=X.breakpoints)
               for t in ts)
    return [coefs[-1] * res.require(f"I_-^{alpha:g} at level {n}") / g_alpha
            for res in level_n]


def eq_moment(view: EquilibriumView, r: float) -> float:
    """E[(X_alpha^(n))^r] = n a B(n a, r+1) E[X^(n a + r)] / E[X^(n a)]."""
    if r <= 0.0:
        raise InvalidParameterError(f"moment order must be > 0, got {r}")
    na = view.total
    return na * beta(na, r + 1.0) * fractional_moment(view.base, na + r) / view.norm


def first_order_cdf_interpretation(X: DistributionModel, alpha: float,
                                   t: float) -> float:
    """P(X_alpha^(1) <= t) as the weighted integral of P(y < X <= y + t).

    Oracle for 1 - eq_survival at n = 1.  The quadrature cuts at the kinks
    of Fbar(y) - Fbar(y + t): each breakpoint b of X, and each b - t > 0.
    """
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    if t < 0.0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    kinks = X.breakpoints + tuple(b - t for b in X.breakpoints if b > t)
    res = integrate_singular_power(
        lambda y: X.survival(y) - X.survival(y + t), 0.0, alpha,
        upper=X.support_upper, breakpoints=tuple(sorted(set(kinks))))
    norm = fractional_moment(X, alpha)
    return alpha * res.require("interval-probability integral") / norm


class CharacterizationReport(NamedTuple):
    """Outcome of the exponential fixed-point scan."""

    is_fixed_point: bool
    max_deviation: float
    # (alpha, n, t) of the worst deviation; None for a fixed point (noise only)
    witness: tuple[float, int, float] | None
    deviations: dict  # (alpha, n) -> max deviation over the grid


def characterization_check(X: DistributionModel, alphas: Sequence[float],
                           ns: Sequence[int], grid: Sequence[float] | None = None,
                           tol: float = 1e-6) -> CharacterizationReport:
    """Scan |f_n^alpha(t) - f(t)| over an (alpha, n, t) product grid.

    The fixed-point property holds for exponential X and fails for
    everything else; the scan reports the worst deviation and never
    claims a converse proof beyond the family tested.
    """
    if X.density_ac is None:
        raise InvalidParameterError(f"{X.label} has no absolutely continuous density")
    if grid is None:
        hi = quantile(X, 0.99)
        grid = geomspace(hi * 1e-3, hi, 20)
    worst = 0.0
    witness = (float(alphas[0]), int(ns[0]), float(grid[0]))
    deviations: dict = {}
    for alpha in alphas:
        for n in ns:
            view = EquilibriumView(X, alpha, n)
            dev = 0.0
            for t in grid:
                gap = abs(eq_density(view, float(t)) - X.density_ac(float(t)))
                if gap > dev:
                    dev = gap
                if gap > worst:
                    worst = gap
                    witness = (float(alpha), int(n), float(t))
            deviations[(float(alpha), int(n))] = dev
    fixed = worst <= tol
    return CharacterizationReport(fixed, worst, None if fixed else witness, deviations)
