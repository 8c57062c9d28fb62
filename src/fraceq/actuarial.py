"""Deductible machinery: claim-amount variables and their mean value identity.

A policy with deductible d pays (X - d)_+, a mixed distribution with an
atom at zero.  For two deductibles r < s the payments are ordered in the
survival bounded sense, so ``deductible_mvt`` is ``mvt_verify`` on the
pair (X, Y) = (X_s, X_r): the difference of expected transformed
payments goes through a single Z variable.  For exponential severities
that Z is again exponential, which makes ratios of payment differences
independent of the transform g.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from .distributions import DistributionModel, deductible, exponential
from .errors import DivergenceError, InvalidParameterError
from .fracops import _EXP_TOL, PowerSum, power_mean
from .order_mvt import MvtReport, mvt_verify, z_alpha_model

__all__ = [
    "deductible_mvt",
    "RatioCheckReport",
    "exponential_ratio_check",
]


def _require_admissible(g: PowerSum, alpha: float) -> None:
    # the corollary has no c0 term: g ~ x^beta with beta > alpha - 1 near 0;
    # a payment has an atom at 0, so E[X_d^beta] diverges for every beta < 0
    if g.min_exponent() <= alpha - 1.0 + _EXP_TOL or g.min_exponent() < 0.0:
        raise InvalidParameterError(
            f"g must have exponents >= 0 and > alpha - 1 = {alpha - 1.0:g}; "
            f"got {g.describe()}")


def _deductible_reports(gs: Sequence[PowerSum], severity: DistributionModel,
                        r: float, s: float, alpha: float) -> Iterator[MvtReport]:
    """deductible_mvt's reports, lazily, in the order of gs.

    The Z_alpha model is built at the first g, after that g's admissibility
    check, so the errors come in the order of a loop that builds a model per g.
    """
    if not (0.0 < r < s):
        raise InvalidParameterError(f"need 0 < r < s, got r={r}, s={s}")
    z = None
    for g in gs:
        _require_admissible(g, alpha)
        if z is None:
            z = z_alpha_model(deductible(s, severity), deductible(r, severity), alpha)
        yield mvt_verify(g, z)


def deductible_mvt(gs: Sequence[PowerSum], severity: DistributionModel, r: float,
                   s: float, alpha: float) -> list[MvtReport]:
    """Check E[g(X_r)] - E[g(X_s)] = [lambda_a(X_r) - lambda_a(X_s)] E[D^a g(Z_a)]
    for each g of gs.

    The larger deductible gives pointwise smaller payments, so this is
    ``mvt_verify`` with (X, Y) = (X_s, X_r) and the order required; the
    Z_alpha model is built once for all of gs.
    """
    if isinstance(gs, PowerSum):  # a NamedTuple: the loop would run over its fields
        raise InvalidParameterError(
            f"deductible_mvt takes a sequence of g's; pass [g], not the PowerSum "
            f"{gs.describe()}")
    return list(_deductible_reports(gs, severity, r, s, alpha))


class RatioCheckReport(NamedTuple):
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
    if not (0.0 < r < s and 0.0 < u < v):
        raise InvalidParameterError("need 0 < r < s and 0 < u < v")
    sev = exponential(lam)  # checks lam > 0
    models = {d: deductible(d, sev) for d in {r, s, u, v}}
    gap_uv = math.exp(-lam * u) - math.exp(-lam * v)
    if gap_uv == 0.0:  # both terms underflow
        raise InvalidParameterError(f"e^(-lam u) = e^(-lam v) at lam={lam}, u={u}, v={v}")
    reference = (math.exp(-lam * r) - math.exp(-lam * s)) / gap_uv
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
    # an overflowed ratio is no report value: |inf - inf| is NaN, which max drops
    if not all(map(math.isfinite, [reference, *ratios])):
        raise DivergenceError(f"payment ratios overflow: reference {reference}, per g {ratios}")
    return RatioCheckReport(tuple(ratios), reference, spread)
