"""Survival bounded order, the mean-value variable Z_alpha, and the MVT.

Z_alpha carries the normalized difference of the two upper-partial-moment
transforms of an ordered pair (X, Y).  Its density is defined even when
the order fails (it may then go negative), so the order criterion itself
stays testable; models built with verification keep a ``verified`` flag.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

from .distributions import (DistributionModel, _partial_fn, _survival_point,
                            fractional_moment, quantile, upper_partial_moment)
from .equilibrium import EquilibriumView, eq_density_fn
from .errors import DivergenceError, InvalidParameterError
from .fracops import (PowerSum, extract_c0, power_expectation, power_mean,
                      power_rl_derivative)
from .numerics import beta, gamma, geomspace

__all__ = [
    "OrderCheckResult",
    "ZAlphaModel",
    "alpha_survival_transform",
    "default_order_grid",
    "check_survival_bounded_order",
    "z_alpha_model",
    "z_density",
    "z_mixture_identity",
    "z_moment",
    "normalized_moment",
    "fractional_variance",
    "MeanLocationReport",
    "classify_mean_location",
    "MvtReport",
    "mvt_verify",
]

_ORDER_SLACK = 1e-10


def alpha_survival_transform(X: DistributionModel, alpha: float, t: float) -> float:
    """E[(X - t)_+^(alpha - 1)] / Gamma(alpha); 0 at or past the support top."""
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    return upper_partial_moment(X, t, alpha - 1.0) / gamma(alpha)


class OrderCheckResult(NamedTuple):
    """Worst violation of the survival bounded order over a grid."""

    holds: bool
    worst_t: float
    worst_gap: float  # max of Fbar_X^(a) - Fbar_Y^(a); positive means violation
    # per grid point: (t, Fbar_X^(a)(t), Fbar_Y^(a)(t), |gap|)
    points: tuple[tuple[float, float, float, float], ...]


def default_order_grid(X: DistributionModel, Y: DistributionModel,
                       size: int = 64) -> list[float]:
    """0 plus log-spaced points up to the top of supp{X, Y}."""
    if size < 8:
        raise InvalidParameterError(f"order grid needs at least 8 points, got {size}")
    upper = max(X.support_upper, Y.support_upper)
    if not math.isfinite(upper):
        upper = 2.0 * max(quantile(X, 0.999), quantile(Y, 0.999))
    if upper == 0.0:
        # both laws keep over 99.9% of their mass at 0 (a deep deductible):
        # take the quantiles of the mass above 0 instead, as survival levels,
        # because 1 minus such a level can round to 1
        target = 1e-3 * max(X.survival(0.0), Y.survival(0.0))
        upper = 2.0 * max(_survival_point(X, target), _survival_point(Y, target))
    return [0.0] + geomspace(upper * 1e-7, upper, size - 1)


def check_survival_bounded_order(X: DistributionModel, Y: DistributionModel,
                                 alpha: float,
                                 grid: Sequence[float] | None = None) -> OrderCheckResult:
    """Does X dominate Y in the survival bounded order of level alpha?

    Holds iff the alpha-transform of X stays below that of Y on the grid,
    up to numerical slack.
    """
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    if grid is None:
        grid = default_order_grid(X, Y)
    worst_t = float(grid[0])
    worst_gap = -math.inf
    points = []
    px, py, g = _partial_fn(X, alpha - 1.0), _partial_fn(Y, alpha - 1.0), gamma(alpha)
    for t in grid:
        t = float(t)
        if t < 0.0:
            raise InvalidParameterError(f"upper partial moment requires t >= 0, got {t}")
        fx, fy = px(t) / g, py(t) / g  # alpha_survival_transform of X and Y
        gap = fx - fy
        if gap > worst_gap:
            worst_gap = gap
            worst_t = t
        points.append((t, fx, fy, abs(gap)))
    return OrderCheckResult(worst_gap <= _ORDER_SLACK, worst_t, worst_gap,
                            tuple(points))


class ZAlphaModel:
    """The mean-value variable built from the ordered pair (X, Y)."""

    # not a NamedTuple: z_density reads these fields, and CPython specializes only slot reads
    __slots__ = ("x", "y", "alpha", "denom", "mix_c", "verified")
    x: DistributionModel
    y: DistributionModel
    alpha: float
    denom: float  # E[Y^alpha] - E[X^alpha]
    mix_c: float  # E[Y^alpha] / denom
    verified: bool

    def __init__(self, x: DistributionModel, y: DistributionModel, alpha: float,
                 denom: float, mix_c: float, verified: bool) -> None:
        self.x = x
        self.y = y
        self.alpha = alpha
        self.denom = denom
        self.mix_c = mix_c
        self.verified = verified


def z_alpha_model(X: DistributionModel, Y: DistributionModel, alpha: float,
                  require_order: bool = True) -> ZAlphaModel:
    """Build Z_alpha; with require_order the survival bounded order is checked.

    Pass require_order=False to waive the check (the density may then go
    negative; the result carries verified=False).
    """
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    ex = fractional_moment(X, alpha)
    ey = fractional_moment(Y, alpha)
    denom = ey - ex
    if denom <= 0.0:
        raise InvalidParameterError(
            f"E[Y^a] - E[X^a] must be positive, got {denom:.6g}")
    verified = False
    if require_order:
        check = check_survival_bounded_order(X, Y, alpha)
        if not check.holds:
            raise InvalidParameterError(
                f"survival bounded order fails at t={check.worst_t:.6g} "
                f"(gap {check.worst_gap:.3g})")
        verified = True
    return ZAlphaModel(X, Y, alpha, denom, ey / denom, verified)


def _z_density_fn(z: ZAlphaModel) -> Callable[[float], float]:
    """z_density(z, .), with both partial moments resolved once."""
    a, denom = z.alpha, z.denom
    py, px = _partial_fn(z.y, a - 1.0), _partial_fn(z.x, a - 1.0)
    return lambda t: 0.0 if t < 0.0 else a * (py(t) - px(t)) / denom


def z_density(z: ZAlphaModel, t: float) -> float:
    """alpha (E[(Y-t)_+^(a-1)] - E[(X-t)_+^(a-1)]) / (E[Y^a] - E[X^a])."""
    return _z_density_fn(z)(t)


def z_mixture_identity(z: ZAlphaModel,
                       ts: Sequence[float]) -> list[tuple[float, float]]:
    """(direct density, generalized mixture c f_Y1 + (1-c) f_X1) at each t of ts."""
    lhs = _z_density_fn(z)
    fy = eq_density_fn(EquilibriumView(z.y, z.alpha, 1))
    fx = eq_density_fn(EquilibriumView(z.x, z.alpha, 1))
    c = z.mix_c
    return [(lhs(t), c * fy(t) + (1.0 - c) * fx(t)) for t in map(float, ts)]


def z_moment(z: ZAlphaModel, r: float) -> float:
    """E[Z_a^r] = a B(a, r+1) (E[Y^(a+r)] - E[X^(a+r)]) / (E[Y^a] - E[X^a])."""
    if r <= 0.0:
        raise InvalidParameterError(f"moment order must be > 0, got {r}")
    a = z.alpha
    diff = fractional_moment(z.y, a + r) - fractional_moment(z.x, a + r)
    return a * beta(a, r + 1.0) * diff / z.denom


def normalized_moment(X: DistributionModel, alpha: float) -> float:
    """E[X^alpha] / Gamma(alpha + 1)."""
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    return fractional_moment(X, alpha) / gamma(alpha + 1.0)


def fractional_variance(X: DistributionModel, alpha: float) -> float:
    """E[X^(alpha+1)] - alpha * E[X^alpha]^2; the variance at alpha = 1."""
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    m1 = fractional_moment(X, alpha)
    m2 = fractional_moment(X, alpha + 1.0)
    return m2 - alpha * m1 * m1


class MeanLocationReport(NamedTuple):
    """Where E[Z_alpha] sits relative to E[X^alpha] and E[Y^alpha]."""

    case: str  # below_X | between | above_Y
    e_z: float
    e_x_alpha: float
    e_y_alpha: float
    threshold_low: float  # V gap at the E[Z] = E[X^a] boundary
    threshold_high: float  # V gap at the E[Z] = E[Y^a] boundary
    variance_gap: float  # V_a(Y) - V_a(X)
    identity_residual: float
    balanced_mean_residual: float  # |E[Z] - 2a/(a+1) * (E[X^a]+E[Y^a])/2|
    balanced_variance_residual: float  # |V_a(Y) - V_a(X)|


def classify_mean_location(z: ZAlphaModel) -> MeanLocationReport:
    """Classify E[Z_alpha] through the fractional-variance inequalities.

    Also evaluates the identity behind the classification,
    (E[Z]-E[X^a])/(E[Y^a]-E[X^a]) =
        {(a E[Y^a]-E[X^a])/(E[Y^a]-E[X^a]) + (V_a(Y)-V_a(X))/(E[Y^a]-E[X^a])^2}/(a+1),
    and both residuals of the balanced case E[Z] = 2a/(a+1) * mean iff
    the fractional variances agree.
    """
    a = z.alpha
    ex = fractional_moment(z.x, a)
    ey = fractional_moment(z.y, a)
    ez = z_moment(z, 1.0)
    delta = ey - ex
    v_gap = fractional_variance(z.y, a) - fractional_variance(z.x, a)
    lhs = (ez - ex) / delta
    rhs = ((a * ey - ex) / delta + v_gap / (delta * delta)) / (a + 1.0)
    thr_low = -delta * (a * ey - ex)
    thr_high = delta * (ey - a * ex)
    if ez <= ex:
        case = "below_X"
    elif ez >= ey:
        case = "above_Y"
    else:
        case = "between"
    balanced = 2.0 * a / (a + 1.0) * 0.5 * (ex + ey)
    return MeanLocationReport(
        case=case, e_z=ez, e_x_alpha=ex, e_y_alpha=ey,
        threshold_low=thr_low, threshold_high=thr_high,
        variance_gap=v_gap, identity_residual=lhs - rhs,
        balanced_mean_residual=abs(ez - balanced),
        balanced_variance_residual=abs(v_gap))


class MvtReport(NamedTuple):
    """Both sides of the fractional mean value identity."""

    lhs: float  # E[g(Y)] - E[g(X)]
    term_c0: float
    term_main: float
    residual: float
    c0: float
    z: ZAlphaModel

    @property
    def rhs(self) -> float:
        return self.term_c0 + self.term_main


def _c0(g: PowerSum, alpha: float) -> float:
    try:
        return extract_c0(g, alpha)
    except DivergenceError as exc:  # an exponent below alpha - 1 breaks a hypothesis
        raise InvalidParameterError(str(exc)) from exc


def mvt_verify(g: PowerSum, z: ZAlphaModel) -> MvtReport:
    """Check E[g(Y)] - E[g(X)] against the fractional mean value identity.

    The right side is c0/Gamma(a) {E[Y^(a-1)] - E[X^(a-1)]} plus
    {lambda_a(Y) - lambda_a(X)} E[D^a g(Z_a)], the derivative expectation
    integrated against the Z density by quadrature.  X, Y and a come from
    the model, so one model serves every g of its pair and order.
    """
    X, Y, alpha = z.x, z.y, z.alpha
    c0 = _c0(g, alpha)
    lhs = power_mean(g, Y) - power_mean(g, X)
    if c0 != 0.0:
        term_c0 = (c0 / gamma(alpha)
                   * (fractional_moment(Y, alpha - 1.0)
                      - fractional_moment(X, alpha - 1.0)))
    else:
        term_c0 = 0.0
    lam_gap = normalized_moment(Y, alpha) - normalized_moment(X, alpha)
    dg = power_rl_derivative(g, 1, alpha)
    # the Z density has the kinks of both laws
    e_dg = 0.0 if dg.is_zero else power_expectation(
        dg, _z_density_fn(z), upper=max(X.support_upper, Y.support_upper),
        breakpoints=tuple(sorted(set(X.breakpoints + Y.breakpoints))))
    term_main = lam_gap * e_dg
    return MvtReport(lhs, term_c0, term_main, lhs - term_c0 - term_main, c0, z)


def _mvt_reports(gs: Sequence[PowerSum], X: DistributionModel, Y: DistributionModel,
                 alpha: float, require_order: bool = True) -> Iterator[MvtReport]:
    """mvt_verify of each g at one order, lazily, against one Z_alpha model.

    The model is built at the first g, after that g's c0 check, so the
    errors come in the order of a loop that builds a model per g.
    """
    z = None
    for g in gs:
        if z is None:
            _c0(g, alpha)
            z = z_alpha_model(X, Y, alpha, require_order=require_order)
        yield mvt_verify(g, z)
