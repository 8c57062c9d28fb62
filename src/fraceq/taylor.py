"""Fractional probabilistic Taylor expansions about 0.

Series coefficients come from the exact PowerSum derivative rules; the
remainder is the expectation of the (n+1)-fold sequential derivative
under the order-(n+1) fractional equilibrium variable, computed by
quadrature against its density (never by sampling).  Both the
Riemann-Liouville and the Caputo flavors are provided.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .distributions import DistributionModel, fractional_moment
from .equilibrium import EquilibriumView, eq_density_fn, eq_moment
from .errors import DivergenceError, InvalidParameterError
from .fracops import (_EXP_TOL, PowerSum, extract_c0, power_caputo_derivative,
                      power_expectation, power_mean, power_rl_derivative)
from .numerics import gamma

__all__ = [
    "TaylorReport",
    "rl_taylor_coefficient",
    "rl_taylor_expectation",
    "fractional_moment_identity",
    "caputo_taylor_expectation",
]


class TaylorReport(NamedTuple):
    """E[g(X)] against its series terms and equilibrium remainder."""

    lhs: float
    terms: tuple[float, ...]
    remainder: float
    residual: float

    @property
    def rhs(self) -> float:
        return math.fsum(self.terms) + self.remainder


def rl_taylor_coefficient(g: PowerSum, j: int, alpha: float) -> float:
    """c_j = Gamma(alpha) [x^(1-alpha) D^(j alpha) g(x)] at 0+.

    Exact coefficient lookup of the x^(alpha-1) term of the j-fold
    sequential derivative; an exponent below alpha - 1 means the limit
    diverges.
    """
    return extract_c0(power_rl_derivative(g, j, alpha), alpha)


def _validate_order(alpha: float, n: int) -> None:
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"alpha must lie in (0, 1], got {alpha}")
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")


def _remainder(h: PowerSum, X: DistributionModel, alpha: float, n: int) -> float:
    """E[X^((n+1)a)] / Gamma((n+1)a + 1) * E[h(X_a^(n+1))] by quadrature.

    power_expectation requires every term to converge, so a violated
    E[|h(X_a^(n+1))|] < inf hypothesis surfaces as DivergenceError rather
    than a silently wrong residual.  The equilibrium density has kinks
    where the law's survival function has them, so the quadrature cuts
    at X's breakpoints.
    """
    if h.is_zero:
        return 0.0
    view = EquilibriumView(X, alpha, n + 1)
    value = power_expectation(h, eq_density_fn(view), upper=X.support_upper,
                              breakpoints=X.breakpoints)
    return view.norm / gamma(view.total + 1.0) * value


def rl_taylor_expectation(g: PowerSum, X: DistributionModel, alpha: float,
                          n: int) -> TaylorReport:
    """Expand E[g(X)] to order n with Riemann-Liouville coefficients.

    Terms are c_j / Gamma((j+1)a) * E[X^((j+1)a - 1)] for j = 0..n; the
    remainder expectation runs over the order-(n+1) equilibrium variable.
    """
    _validate_order(alpha, n)
    lhs = power_mean(g, X)
    terms = []
    for j in range(n + 1):
        cj = rl_taylor_coefficient(g, j, alpha)
        if cj == 0.0:
            terms.append(0.0)
            continue
        terms.append(cj / gamma((j + 1) * alpha)
                     * fractional_moment(X, (j + 1) * alpha - 1.0))
    remainder = _remainder(power_rl_derivative(g, n + 1, alpha), X, alpha, n)
    total = math.fsum(terms) + remainder
    return TaylorReport(lhs, tuple(terms), remainder, lhs - total)


def fractional_moment_identity(beta_exp: float, X: DistributionModel,
                               alpha: float, n: int) -> tuple[float, float]:
    """(E[X^beta], its series-free expansion through the equilibrium moment).

    Valid for beta >= alpha and n <= (beta - alpha)/alpha, where every
    series coefficient vanishes and only the remainder survives.
    """
    _validate_order(alpha, n)
    if beta_exp < alpha:
        raise InvalidParameterError(f"need beta >= alpha, got {beta_exp} < {alpha}")
    if n > (beta_exp - alpha) / alpha + _EXP_TOL:
        raise InvalidParameterError(
            f"need n <= (beta - alpha)/alpha = {(beta_exp - alpha) / alpha:g}, got {n}")
    top = (n + 1) * alpha
    lhs = fractional_moment(X, beta_exp)
    view = EquilibriumView(X, alpha, n + 1)
    residual_exp = beta_exp - top  # >= -_EXP_TOL * alpha by the guard on n
    eq_part = eq_moment(view, residual_exp) if residual_exp > _EXP_TOL else 1.0
    rhs = (view.norm / gamma(top + 1.0)
           * gamma(1.0 + beta_exp) / gamma(1.0 - top + beta_exp)
           * eq_part)
    return lhs, rhs


def caputo_taylor_expectation(g: PowerSum, X: DistributionModel, alpha: float,
                              n: int) -> TaylorReport:
    """Expand E[g(X)] with sequential Caputo derivatives.

    Series term i is the value at 0 of the i-fold derivative (the
    constant coefficient of its power sum) times E[X^(i a)] / Gamma(i a + 1);
    constants are annihilated, so polynomials terminate exactly.
    """
    _validate_order(alpha, n)
    if g.terms and g.min_exponent() < -_EXP_TOL:
        raise InvalidParameterError(
            f"Caputo expansion needs nonnegative exponents, got {g.describe()}")
    lhs = power_mean(g, X)
    terms = []
    for i in range(n + 1):
        di = power_caputo_derivative(g, i, alpha)
        at_zero = di.coefficient_at(0.0)
        if di.terms and di.min_exponent() < -_EXP_TOL:
            raise DivergenceError(
                f"Caputo derivative of order {i}a is singular at 0: {di.describe()}")
        if at_zero == 0.0:
            terms.append(0.0)
            continue
        terms.append(at_zero / gamma(i * alpha + 1.0)
                     * fractional_moment(X, i * alpha))
    remainder = _remainder(power_caputo_derivative(g, n + 1, alpha), X, alpha, n)
    total = math.fsum(terms) + remainder
    return TaylorReport(lhs, tuple(terms), remainder, lhs - total)
