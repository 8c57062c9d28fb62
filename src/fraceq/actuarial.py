"""Deductible machinery: claim-amount variables and their mean value identity.

A policy with deductible d pays (X - d)_+, a mixed distribution with an
atom at zero.  For two deductibles r < s the payments are ordered in the
survival bounded sense and the mean value identity links the difference
of expected transformed payments to a single Z variable; for exponential
severities that Z is again exponential, which makes ratios of payment
differences independent of the transform g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import DistributionSpec, build, deductible
from .errors import InvalidParameterError
from .fracops import PowerSum, power_mean
from .order_mvt import (_C0_TOL, ZAlphaModel, expected_derivative_at_z,
                        normalized_moment, z_alpha_model)

__all__ = [
    "DeductibleMvtReport",
    "deductible_mvt",
    "RatioCheckReport",
    "exponential_ratio_check",
]

def _require_admissible(g: PowerSum, alpha: float) -> None:
    # the mean value corollary needs g ~ x^beta with beta > alpha - 1 near 0
    for _, exp in g.terms:
        if exp <= alpha - 1.0 + _C0_TOL:
            raise InvalidParameterError(
                f"g must have exponents > alpha - 1 = {alpha - 1.0:g}; "
                f"got {g.describe()}")


@dataclass(frozen=True)
class DeductibleMvtReport:
    """Both sides of the deductible mean value identity."""

    lhs: float  # E[g(X_r)] - E[g(X_s)]
    rhs: float
    residual: float
    z: ZAlphaModel  # built from (X_s, X_r): larger deductible is dominated


def deductible_mvt(g: PowerSum, severity: DistributionSpec, r: float, s: float,
                   alpha: float) -> DeductibleMvtReport:
    """Check E[g(X_r)] - E[g(X_s)] = [lambda_a(X_r) - lambda_a(X_s)] E[D^a g(Z_a)].

    The larger deductible gives pointwise smaller payments, so the Z
    construction orders the pair as (X, Y) = (X_s, X_r).
    """
    if not (0.0 < r < s):
        raise InvalidParameterError(f"need 0 < r < s, got r={r}, s={s}")
    _require_admissible(g, alpha)
    base = build(severity)
    if s >= base.support_upper:
        raise InvalidParameterError(
            f"s={s} must lie below the severity support bound {base.support_upper}")
    x_r = build(deductible(r, severity))
    x_s = build(deductible(s, severity))
    lam_r = normalized_moment(x_r, alpha)
    lam_s = normalized_moment(x_s, alpha)
    if not (lam_s < lam_r < math.inf):
        raise InvalidParameterError(
            f"need lambda_a(X_s) < lambda_a(X_r) < inf, got {lam_s:g} vs {lam_r:g}")
    z = z_alpha_model(x_s, x_r, alpha, require_order=True)
    lhs = power_mean(g, x_r) - power_mean(g, x_s)
    rhs = (lam_r - lam_s) * expected_derivative_at_z(g, z, alpha)
    return DeductibleMvtReport(lhs, rhs, lhs - rhs, z)


@dataclass(frozen=True)
class RatioCheckReport:
    """Per-g payment-difference ratios against the closed exponential form."""

    ratios: tuple[float, ...]
    reference_ratio: float
    max_spread: float


def exponential_ratio_check(lam: float, r: float, s: float, u: float, v: float,
                            gs: list[PowerSum], alpha: float) -> RatioCheckReport:
    """Ratios (E[g(X_r)] - E[g(X_s)]) / (E[g(X_u)] - E[g(X_v)]) for Exp(lam).

    Every admissible g must give the same ratio
    (e^(-lam r) - e^(-lam s)) / (e^(-lam u) - e^(-lam v)).
    """
    if lam <= 0.0:
        raise InvalidParameterError(f"rate must be > 0, got {lam}")
    if not (0.0 < r < s and 0.0 < u < v):
        raise InvalidParameterError("need 0 < r < s and 0 < u < v")
    sev = DistributionSpec("exponential", {"lambda": lam})
    models = {d: build(deductible(d, sev)) for d in {r, s, u, v}}
    reference = ((math.exp(-lam * r) - math.exp(-lam * s))
                 / (math.exp(-lam * u) - math.exp(-lam * v)))
    ratios = []
    spread = 0.0
    for g in gs:
        _require_admissible(g, alpha)
        num = power_mean(g, models[r]) - power_mean(g, models[s])
        den = power_mean(g, models[u]) - power_mean(g, models[v])
        if den == 0.0:
            raise InvalidParameterError(
                f"zero denominator for g = {g.describe()} with (u, v) = ({u}, {v})")
        ratio = num / den
        ratios.append(ratio)
        spread = max(spread, abs(ratio - reference))
    return RatioCheckReport(tuple(ratios), reference, spread)
