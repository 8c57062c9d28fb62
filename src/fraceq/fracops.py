"""Fractional integral and derivative operators.

Survival functions go through the Weyl integral; test functions live in
the PowerSum family, where sequential Riemann-Liouville and Caputo
derivatives are closed-form (one Gamma-ratio per term).  Derivatives of
arbitrary callables are finite-difference only and flagged as
low-accuracy; they exist to cross-check the exact PowerSum path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .distributions import (DistributionModel, fractional_moment,
                            upper_partial_moment)
from .errors import (DivergenceError, InvalidParameterError,
                     SingularEvaluationError)
from .numerics import (DEFAULT_CONFIG, IntegralResult, QuadratureConfig,
                       gamma, integrate_interval, integrate_singular_power,
                       reciprocal_gamma)

__all__ = [
    "FracOrder",
    "PowerSum",
    "weyl_integral",
    "weyl_integral_result",
    "weyl_integral_via_moments",
    "weyl_of_function",
    "rl_integral",
    "rl_derivative_numeric",
    "power_rl_derivative",
    "power_rl_integral",
    "power_caputo_derivative",
    "evaluate",
    "power_mean",
    "power_expectation",
]

_EXP_TOL = 1e-12


@dataclass(frozen=True)
class FracOrder:
    """The pair (alpha, n) driving every fractional operator call.

    The equilibrium machinery accepts any alpha > 0; the Taylor theorems
    restrict themselves to alpha <= 1 at their own entry points.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise InvalidParameterError(f"alpha must be > 0, got {self.alpha}")
        if self.n < 0:
            raise InvalidParameterError(f"n must be >= 0, got {self.n}")

    @property
    def total(self) -> float:
        """n * alpha."""
        return self.n * self.alpha


@dataclass(frozen=True)
class PowerSum:
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

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum.from_terms(list(self.terms) + list(other.terms))

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> float:
        if not self.terms:
            return math.inf
        return self.terms[0][1]

    def coefficient_at(self, exponent: float, tol: float = _EXP_TOL) -> float:
        for coef, exp in self.terms:
            if abs(exp - exponent) <= tol:
                return coef
        return 0.0

    def to_json(self) -> list[dict]:
        return [{"coef": c, "exp": e} for c, e in self.terms]

    @classmethod
    def from_json(cls, obj: list) -> "PowerSum":
        try:
            return cls.from_terms([(float(t["coef"]), float(t["exp"])) for t in obj])
        except (TypeError, KeyError) as exc:
            raise InvalidParameterError(
                "power sum JSON must be a list of {'coef':…, 'exp':…}") from exc

    def describe(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c:g}*x^{e:g}" for c, e in self.terms)


def evaluate(g: PowerSum, x: float) -> float:
    """Evaluate a power sum; x = 0 needs all exponents >= 0."""
    if x < 0.0:
        raise InvalidParameterError(f"power sums are defined on x >= 0, got {x}")
    if x == 0.0:
        if g.terms and g.min_exponent() < -_EXP_TOL:
            raise SingularEvaluationError(
                f"{g.describe()} is singular at x = 0")
        return g.coefficient_at(0.0)
    return math.fsum(c * x ** e for c, e in g.terms)


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


def power_rl_integral(g: PowerSum, order: float) -> PowerSum:
    """Riemann-Liouville integral I^order on a power sum (exponents > -1)."""
    if order < 0.0:
        raise InvalidParameterError(f"integral order must be >= 0, got {order}")
    if order == 0.0:
        return g
    new_terms = []
    for coef, exp in g.terms:
        if exp <= -1.0:
            raise DivergenceError(f"I^{order:g} of x^{exp:g} diverges at 0")
        new_terms.append((coef * gamma(exp + 1.0) * reciprocal_gamma(exp + 1.0 + order),
                          exp + order))
    return PowerSum.from_terms(new_terms)


def power_caputo_derivative(g: PowerSum, i: int, alpha: float) -> PowerSum:
    """Sequential Caputo derivative applied i times.

    Constants are annihilated; positive exponents follow the same
    Gamma-ratio rule as the RL derivative.  The input (and every
    intermediate result) must have nonnegative exponents.
    """
    if i < 0:
        raise InvalidParameterError(f"derivative count must be >= 0, got {i}")
    out = g
    for _ in range(i):
        if out.terms and out.min_exponent() < -_EXP_TOL:
            raise InvalidParameterError(
                f"Caputo derivative needs nonnegative exponents, got {out.describe()}")
        new_terms = []
        for coef, exp in out.terms:
            if abs(exp) <= _EXP_TOL:
                continue  # constants die
            rg = _rgamma_snapped(exp + 1.0 - alpha)
            if rg == 0.0:
                continue
            new_terms.append((coef * gamma(exp + 1.0) * rg, exp - alpha))
        out = PowerSum.from_terms(new_terms)
    return out


# ---------------------------------------------------------------------------
# Weyl integral of survival functions

def weyl_integral_result(X: DistributionModel, order: float,
                         t: float) -> IntegralResult:
    """Quadrature form of I_-^order Fbar(t), with truncation metadata."""
    if order <= 0.0:
        raise InvalidParameterError(f"Weyl integral order must be > 0, got {order}")
    if t < 0.0:
        raise InvalidParameterError(f"Weyl integral requires t >= 0, got {t}")
    res = integrate_singular_power(X.survival, t, order, upper=X.support_upper)
    g = gamma(order)
    return IntegralResult(res.value / g, res.error_estimate / g, res.converged,
                          res.truncation_point)


def weyl_integral(X: DistributionModel, order: float, t: float) -> float:
    """I_-^order Fbar(t) = (1/Gamma(order)) int_t^inf (x-t)^(order-1) Fbar(x) dx."""
    return weyl_integral_result(X, order, t).require(
        f"Weyl integral of order {order:g} for {X.label}")


def weyl_integral_via_moments(X: DistributionModel, order: float, t: float) -> float:
    """Same transform through E[(X-t)_+^order] / Gamma(order + 1)."""
    if order <= 0.0:
        raise InvalidParameterError(f"Weyl integral order must be > 0, got {order}")
    return upper_partial_moment(X, t, order) / gamma(order + 1.0)


def weyl_of_function(h: Callable[[float], float], order: float, t: float, *,
                     upper: float | None = None) -> float:
    """I_-^order h(t) for an arbitrary integrable callable.

    Used to nest transforms (semigroup checks); survival functions should
    go through weyl_integral instead.  ``upper`` declares where h
    vanishes for good.
    """
    if order <= 0.0:
        raise InvalidParameterError(f"Weyl integral order must be > 0, got {order}")
    res = integrate_singular_power(h, t, order, upper=upper)
    return res.require(f"nested Weyl integral of order {order:g}") / gamma(order)


# ---------------------------------------------------------------------------
# RL integral / derivative of arbitrary callables

def rl_integral(g: Callable[[float], float], order: float, x: float,
                cfg: QuadratureConfig | None = None) -> float:
    """I^order g(x) = (1/Gamma(order)) int_0^x (x-t)^(order-1) g(t) dt.

    The interval is split at x/2: the right half removes the weight
    singularity with u = (x-t)^order, the left half substitutes t = v^4
    so that integrable singularities of g at 0 are tamed without knowing
    their exponent.
    """
    cfg = cfg or DEFAULT_CONFIG
    if order <= 0.0:
        raise InvalidParameterError(f"RL integral order must be > 0, got {order}")
    if x <= 0.0:
        raise InvalidParameterError(f"RL integral requires x > 0, got {x}")
    half = 0.5 * x
    q = order - 1.0

    def left(v: float) -> float:
        t = v ** 4
        return (x - t) ** q * g(t) * 4.0 * v ** 3

    left_res = integrate_interval(left, 0.0, half ** 0.25, cfg)

    if order >= 1.0:
        right_res = integrate_interval(lambda t: (x - t) ** q * g(t), half, x, cfg)
    else:
        inv = 1.0 / order

        def right(u: float) -> float:
            return g(x - u ** inv) / order

        right_res = integrate_interval(right, 0.0, half ** order, cfg)

    if not (left_res.converged and right_res.converged):
        raise DivergenceError(f"RL integral of order {order:g} failed at x={x:g}")
    return (left_res.value + right_res.value) / gamma(order)


def rl_derivative_numeric(g: Callable[[float], float], alpha: float, x: float) -> float:
    """D^alpha g(x) = d/dx I^(1-alpha) g(x) by central finite difference.

    Accuracy is O(step^2) plus quadrature noise; theorem verification
    should use the exact PowerSum path instead.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"numeric RL derivative needs alpha in (0,1), got {alpha}")
    step = 1e-5 * max(1.0, abs(x))
    if x < 10.0 * step:
        raise InvalidParameterError(f"x={x:g} too close to 0 for step {step:g}")
    tight = DEFAULT_CONFIG.scaled(1e-2)
    hi = rl_integral(g, 1.0 - alpha, x + step, tight)
    lo = rl_integral(g, 1.0 - alpha, x - step, tight)
    return (hi - lo) / (2.0 * step)


# ---------------------------------------------------------------------------
# expectations of power sums

def power_mean(g: PowerSum, X: DistributionModel) -> float:
    """E[g(X)] term by term through fractional moments."""
    return math.fsum(coef * fractional_moment(X, exp)
                     for coef, exp in g.terms)


def power_expectation(g: PowerSum, density: Callable[[float], float],
                      cfg: QuadratureConfig | None = None, *,
                      upper: float | None = None) -> tuple[float, float]:
    """(E[g(Z)], sum_k |a_k| E[Z^b_k]) for Z with the given density.

    Integrates term by term with the singular-power rule, so exponents in
    (-1, 0) are handled exactly once.  The second component bounds
    E[|g(Z)|] from above (triangle inequality) and certifies the
    absolute-integrability hypothesis of the Taylor remainder.  ``upper``
    declares where the density vanishes.
    """
    cfg = cfg or DEFAULT_CONFIG
    value = 0.0
    bound = 0.0
    for coef, exp in g.terms:
        if exp <= -1.0:
            raise DivergenceError(
                f"E[g(Z)] diverges: exponent {exp:g} <= -1 in {g.describe()}")
        res = integrate_singular_power(density, 0.0, exp + 1.0, cfg, upper=upper)
        term = res.require(f"E[Z^{exp:g}] against numeric density")
        value += coef * term
        bound += abs(coef) * abs(term)
    return value, bound
