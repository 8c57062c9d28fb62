"""Fractional integral and derivative operators.

Survival functions (and nested transforms of them) go through the Weyl
integral, computed by quadrature; test functions live in the PowerSum
family, where sequential Riemann-Liouville and Caputo derivatives are
closed-form (one Gamma-ratio per term).  Expectations of power sums run
term by term, through fractional moments or against a density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .distributions import DistributionModel, fractional_moment
from .errors import DivergenceError, InvalidParameterError
from .numerics import gamma, integrate_singular_power, reciprocal_gamma

__all__ = [
    "PowerSum",
    "weyl_integral",
    "weyl_of_function",
    "power_rl_derivative",
    "power_caputo_derivative",
    "extract_c0",
    "power_mean",
    "power_expectation",
]

_EXP_TOL = 1e-12  # exponents this close are one exponent


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
        try:
            terms = [(float(t["coef"]), float(t["exp"])) for t in obj]
        except (TypeError, KeyError) as exc:
            raise InvalidParameterError(
                "power sum JSON must be a list of {'coef':…, 'exp':…}") from exc
        if not all(math.isfinite(v) for term in terms for v in term):
            raise InvalidParameterError(f"power sum terms must be finite, got {terms}")
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
    return weyl_of_function(X.survival, order, t, upper=X.support_upper)


def weyl_of_function(h: Callable[[float], float], order: float, t: float, *,
                     upper: float | None = None) -> float:
    """I_-^order h(t) for an arbitrary integrable callable.

    weyl_integral applies it to a survival function; nested transforms
    (semigroup checks) apply it to another Weyl integral.  ``upper``
    declares where h vanishes for good.
    """
    if order <= 0.0:
        raise InvalidParameterError(f"Weyl integral order must be > 0, got {order}")
    res = integrate_singular_power(h, t, order, upper=upper)
    return res.require(f"Weyl integral of order {order:g}") / gamma(order)


# ---------------------------------------------------------------------------
# expectations of power sums

def power_mean(g: PowerSum, X: DistributionModel) -> float:
    """E[g(X)] term by term through fractional moments."""
    return math.fsum(coef * fractional_moment(X, exp)
                     for coef, exp in g.terms)


def power_expectation(g: PowerSum, density: Callable[[float], float], *,
                      upper: float | None = None) -> float:
    """E[g(Z)] for Z with the given density.

    Integrates term by term with the singular-power rule, so exponents in
    (-1, 0) are handled exactly once.  Every term must converge, which
    certifies E[|g(Z)|] < inf.  ``upper`` declares where the density
    vanishes.
    """
    value = 0.0
    for coef, exp in g.terms:
        if exp <= -1.0:
            raise DivergenceError(
                f"E[g(Z)] diverges: exponent {exp:g} <= -1 in {g.describe()}")
        res = integrate_singular_power(density, 0.0, exp + 1.0, upper=upper)
        value += coef * res.require(f"E[Z^{exp:g}] against numeric density")
    return value
