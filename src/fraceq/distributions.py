"""Catalog of nonnegative random variables.

A model exposes exactly what the rest of the package consumes: the
survival function, fractional moments E[X^s], upper partial moments
E[(X-t)_+^s] and the atom at 0, of mass 1 - survival(0).  Closed forms
are attached where they exist; otherwise positive orders integrate the
survival function and negative orders the density, so mixed
distributions need no special cases downstream.  Every survival function
returns 1 for negative arguments; that contract is the only guard
callers rely on for t < 0.  The catalog constructors return models;
``build`` reads the command line's JSON form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable

from .errors import DivergenceError, InvalidParameterError
from .numerics import integrate_singular_power, scaled_upper_gamma

__all__ = [
    "DistributionModel",
    "exponential",
    "uniform",
    "weibull",
    "hyperexp2",
    "zero_inflated",
    "deductible",
    "numeric",
    "build",
    "fractional_moment",
    "upper_partial_moment",
    "quantile",
]


class DistributionModel:
    """A nonnegative random variable, seen through its survival function.

    ``survival`` must be nonincreasing, right-continuous, and equal to 1
    for negative arguments; callers evaluate it at negative t without a
    guard of their own.  The only atom a model may carry sits at 0, so
    its mass is 1 - survival(0); every constructor keeps to this.
    ``support_upper`` is sup{x : F(x) < 1} (may be inf), and every
    partial moment at or past it is exactly 0.
    ``closed_form_moment`` is set only where no closed partial moment
    exists, since E[X^s] is the partial moment at t = 0.
    Both partial forms are factories s -> (t -> E[(X-t)_+^s]), which work
    out what depends on s alone once: callers integrate one order over
    many t.  ``negative_partial``, set by the ``numeric`` kind, serves
    s in (-1, 0) only.  A model with neither partial form (Weibull and its
    wrappers) must carry ``density_ac``: its negative orders integrate
    (x-t)^s against it.  ``breakpoints`` is the sorted tuple of positive
    points where the survival function has a kink, for quadrature to
    split its panels at.  ``zero_inflated`` and
    ``deductible`` derive all of these from their inner law by one rule,
    ``_lifted``.
    """

    # not a NamedTuple: hot loops read these fields, and CPython specializes only slot reads
    __slots__ = ("label", "survival", "support_upper", "closed_form_moment",
                 "closed_form_partial", "negative_partial", "density_ac", "breakpoints")
    label: str
    survival: Callable[[float], float]
    support_upper: float
    closed_form_moment: Callable[[float], float] | None
    closed_form_partial: Callable[[float], Callable[[float], float]] | None
    negative_partial: Callable[[float], Callable[[float], float]] | None
    density_ac: Callable[[float], float] | None
    breakpoints: tuple[float, ...]

    def __init__(self, label: str, survival: Callable[[float], float],
                 support_upper: float = math.inf,
                 closed_form_moment: Callable[[float], float] | None = None,
                 closed_form_partial: Callable[[float], Callable[[float], float]] | None = None,
                 negative_partial: Callable[[float], Callable[[float], float]] | None = None,
                 density_ac: Callable[[float], float] | None = None,
                 breakpoints: tuple[float, ...] = ()) -> None:
        self.label = label
        self.survival = survival
        self.support_upper = support_upper
        self.closed_form_moment = closed_form_moment
        self.closed_form_partial = closed_form_partial
        self.negative_partial = negative_partial
        self.density_ac = density_ac
        self.breakpoints = breakpoints


# ---------------------------------------------------------------------------
# constructors

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)


def exponential(lam: float) -> DistributionModel:
    _require(lam > 0, f"exponential: lambda must be > 0, got {lam}")
    log_lam = math.log(lam)

    def partial(s: float) -> Callable[[float], float]:
        log_gamma, s_log_lam = math.lgamma(s + 1.0), s * log_lam
        return lambda t: math.exp(log_gamma - lam * t - s_log_lam)

    return DistributionModel(
        label=f"Exp(rate={lam:g})",
        survival=lambda t: 1.0 if t < 0.0 else math.exp(-lam * t),
        closed_form_partial=partial,
        density_ac=lambda t: lam * math.exp(-lam * t) if t >= 0.0 else 0.0,
    )


def uniform(a: float, b: float) -> DistributionModel:
    _require(0.0 <= a < b, f"uniform: need 0 <= a < b, got ({a}, {b})")
    width = b - a

    def survival(t: float) -> float:
        if t < a:
            return 1.0
        if t >= b:
            return 0.0
        return (b - t) / width

    def partial(s: float) -> Callable[[float], float]:
        p, denom = s + 1.0, (s + 1.0) * width
        def at(t: float) -> float:
            if t >= b:
                return 0.0
            return ((b - t) ** p - (max(a, t) - t) ** p) / denom
        return at

    return DistributionModel(
        label=f"Uniform({a:g},{b:g})",
        survival=survival,
        support_upper=b,
        closed_form_partial=partial,
        density_ac=lambda t: 1.0 / width if a <= t <= b else 0.0,
        breakpoints=(a, b) if a > 0.0 else (b,),
    )


def weibull(k: float, lam: float) -> DistributionModel:
    _require(k > 0 and lam > 0, f"weibull: shape and scale must be > 0, got ({k}, {lam})")

    def survival(t: float) -> float:
        if t < 0.0:
            return 1.0
        return math.exp(-((t / lam) ** k))

    def moment(s: float) -> float:
        if s <= -k:
            raise DivergenceError(f"E[X^{s}] diverges for weibull with shape {k}")
        return lam ** s * math.gamma(1.0 + s / k)

    def density(t: float) -> float:
        if t < 0.0:
            return 0.0
        if t == 0.0:
            return 0.0 if k > 1.0 else (1.0 / lam if k == 1.0 else math.inf)
        z = t / lam
        return (k / lam) * z ** (k - 1.0) * math.exp(-(z ** k))

    return DistributionModel(
        label=f"Weibull(k={k:g},scale={lam:g})",
        survival=survival,
        closed_form_moment=moment,
        density_ac=density,
    )


def hyperexp2(p: float, lam1: float, lam2: float) -> DistributionModel:
    _require(0.0 < p < 1.0, f"hyperexp2: p must lie in (0,1), got {p}")
    _require(lam1 > 0 and lam2 > 0, "hyperexp2: rates must be > 0")
    q = 1.0 - p

    def survival(t: float) -> float:
        if t < 0.0:
            return 1.0
        return p * math.exp(-lam1 * t) + q * math.exp(-lam2 * t)

    def partial(s: float) -> Callable[[float], float]:
        g, w1, w2 = math.gamma(s + 1.0), lam1 ** -s, lam2 ** -s
        return lambda t: g * (p * math.exp(-lam1 * t) * w1 + q * math.exp(-lam2 * t) * w2)

    return DistributionModel(
        label=f"HyperExp2(p={p:g},{lam1:g},{lam2:g})",
        survival=survival,
        closed_form_partial=partial,
        density_ac=lambda t: (p * lam1 * math.exp(-lam1 * t)
                              + q * lam2 * math.exp(-lam2 * t)) if t >= 0.0 else 0.0,
    )


def _lifted(label: str, inner: DistributionModel, shift: float, scale: float,
             moment: Callable[[float], float] | None = None) -> DistributionModel:
    """The law with survival scale * Fbar(shift + t) for t >= 0, and 1 below 0.

    Fbar is ``inner``'s survival, and every field that depends on t
    follows from it: each partial-moment factory s -> f becomes
    s -> (t -> scale * f(shift + t)), calling ``inner``'s once per order;
    the density likewise for t >= 0, and the support and breakpoints move
    down by ``shift``.  A field ``inner`` lacks stays unset.
    ``zero_inflated`` is (0, 1 - p) and ``deductible`` is (d, 1); both are
    exact, since 0.0 + t is t and 1.0 * v is v.
    """
    def lift(factory):  # (X' - t)_+ = (X - (shift + t))_+ with probability scale
        def lifted(s: float) -> Callable[[float], float]:
            f = factory(s)
            return lambda t: scale * f(shift + t)
        return None if factory is None else lifted

    density = inner.density_ac
    upper = inner.support_upper - shift
    while upper + shift < inner.support_upper:  # rounded low: shift + t must reach the top
        upper = math.nextafter(upper, math.inf)
    return DistributionModel(
        label=label,
        survival=lambda t: 1.0 if t < 0.0 else scale * inner.survival(shift + t),
        support_upper=upper,
        closed_form_moment=moment,
        closed_form_partial=lift(inner.closed_form_partial),
        negative_partial=lift(inner.negative_partial),
        density_ac=None if density is None else (
            lambda t: scale * density(shift + t) if t >= 0.0 else 0.0),
        breakpoints=tuple(x - shift for x in inner.breakpoints if x > shift),
    )


def zero_inflated(p: float, inner: DistributionModel) -> DistributionModel:
    _require(0.0 < p < 1.0, f"zero_inflated: p must lie in (0,1), got {p}")
    q = 1.0 - p
    moment = inner.closed_form_moment
    return _lifted(f"ZeroInflated(p={p:g})[{inner.label}]", inner, 0.0, q,
                   moment=None if moment is None else (lambda s: q * moment(s)))


def deductible(d: float, inner: DistributionModel) -> DistributionModel:
    _require(d > 0, f"deductible: d must be > 0, got {d}")
    _require(d < inner.support_upper,
             f"deductible: d={d} not below the support upper bound {inner.support_upper}")
    return _lifted(f"Deductible(d={d:g})[{inner.label}]", inner, d, 1.0)


def numeric(knots: list[tuple[float, float]]) -> DistributionModel:
    _require(len(knots) >= 2, "numeric: need at least two knots")
    ts = [float(t) for t, _ in knots]
    ss = [float(s) for _, s in knots]
    _require(all(ts[i] < ts[i + 1] for i in range(len(ts) - 1)),
             "numeric: knot abscissae must be strictly increasing")
    _require(all(0.0 <= s <= 1.0 for s in ss), "numeric: survival values must lie in [0,1]")
    _require(all(ss[i] >= ss[i + 1] for i in range(len(ss) - 1)),
             "numeric: survival values must be nonincreasing")
    _require(ts[0] >= 0.0, "numeric: knots must be nonnegative")
    if ts[0] > 0.0:
        ts = [0.0] + ts
        ss = [1.0] + ss

    t_last, s_last = ts[-1], ss[-1]

    if s_last == 0.0:
        upper = ts[next(i for i, s in enumerate(ss) if s == 0.0)]
        decay = 1.0
    else:
        upper = math.inf
        # exponential tail fitted to the last two knots
        if ss[-2] > s_last > 0.0:
            decay = math.log(ss[-2] / s_last) / (ts[-1] - ts[-2])
        else:
            decay = 1.0

    def survival(t: float) -> float:
        if t < 0.0:
            return 1.0
        if t <= t_last:
            i = bisect_right(ts, t)
            if i >= len(ts):
                return s_last
            lo_t, hi_t = ts[i - 1], ts[i]
            lo_s, hi_s = ss[i - 1], ss[i]
            return lo_s + (hi_s - lo_s) * (t - lo_t) / (hi_t - lo_t)
        if s_last == 0.0:
            return 0.0
        return s_last * math.exp(-decay * (t - t_last))

    # (left, right, density) of each linear segment [ts[i], ts[i+1]]
    segments = [(ts[i], ts[i + 1], (ss[i] - ss[i + 1]) / (ts[i + 1] - ts[i]))
                for i in range(len(ts) - 1)]

    def negative_partial(s: float) -> Callable[[float], float]:
        # int (x-t)^s f(x) dx over x > t: one power term per segment, and
        # Gamma(s+1, x) for the exponential tail; the atom at 0 is never above t
        p, tail = s + 1.0, s_last * decay ** -s
        def at(t: float) -> float:
            terms = [c * ((hi - t) ** p - (max(lo, t) - t) ** p) / p
                     for lo, hi, c in segments if hi > t]
            if s_last > 0.0:
                terms.append(tail * math.exp(-decay * max(t - t_last, 0.0))
                             * scaled_upper_gamma(p, decay * max(t_last - t, 0.0)))
            return math.fsum(terms)
        return at

    return DistributionModel(
        label=f"Numeric({len(ts)} knots)",
        survival=survival,
        support_upper=upper,
        negative_partial=negative_partial,
        breakpoints=tuple(ts[1:]),
    )


# JSON kind -> (constructor, parameter names); "inner" is the nested spec
_KINDS = {
    "exponential": (exponential, ("lambda",)),
    "uniform": (uniform, ("a", "b")),
    "weibull": (weibull, ("k", "lambda")),
    "hyperexp2": (hyperexp2, ("p", "lambda1", "lambda2")),
    "zero_inflated": (zero_inflated, ("p", "inner")),
    "deductible": (deductible, ("d", "inner")),
    "numeric": (numeric, ("knots",)),
}


# the deepest chain of "inner" specs ``build`` accepts: every wrapper level
# adds a call frame to each survival, density and partial-moment evaluation
_MAX_NESTING = 32


def _finite_numbers(value) -> bool:
    """True unless a boolean, NaN or infinity sits anywhere in ``value``."""
    stack = [value]  # not recursive, so no nesting depth can overflow it
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list)):
            stack.extend(value.values() if isinstance(value, dict) else value)
        # bool is an int subclass, so JSON true would otherwise run as 1
        elif isinstance(value, bool) or (isinstance(value, float)
                                         and not math.isfinite(value)):
            return False
    return True


def build(obj: dict) -> DistributionModel:
    """The model described by parsed JSON {"kind", "params", "inner"?}."""
    _require(isinstance(obj, dict) and isinstance(obj.get("kind"), str),
             "distribution JSON needs a string 'kind' field")
    depth, spec = 0, obj
    while isinstance(spec, dict) and spec.get("inner") is not None:
        depth, spec = depth + 1, spec["inner"]
    _require(depth <= _MAX_NESTING,
             f"distribution JSON nests {depth} 'inner' specs; at most {_MAX_NESTING} are allowed")
    kind = obj["kind"]
    _require(kind in _KINDS, f"unknown distribution kind '{kind}'")
    params = obj.get("params", {})
    _require(isinstance(params, dict), f"{kind}: 'params' must be an object")
    _require(_finite_numbers(obj),
             f"{kind}: parameters must be finite numbers, not booleans, NaN or infinity")
    constructor, names = _KINDS[kind]
    try:
        args = [params[name] for name in names if name != "inner"]
        if "inner" in names:  # always the last argument
            _require(obj.get("inner") is not None, f"{kind}: missing inner spec")
            args.append(build(obj["inner"]))
        return constructor(*args)
    except KeyError as exc:
        raise InvalidParameterError(f"{kind}: missing parameter {exc}") from exc
    except InvalidParameterError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. a string where a number belongs
        raise InvalidParameterError(f"{kind}: bad parameter ({exc})") from exc


# ---------------------------------------------------------------------------
# moments

_ROUNDING = 2.0 ** -52  # a share of the mass that quadrature cannot see


def _partial_by_quadrature(X: DistributionModel, t: float, s: float) -> float:
    """E[(X-t)_+^s] of a model with neither partial form, by quadrature.

    s > 0 uses the layer-cake identity s * int_t^inf (x-t)^(s-1) Fbar(x) dx,
    valid for mixed distributions.  s in (-1, 0) integrates the density,
    int_t^inf (x-t)^s f(x) dx, in x = t + h y with h halved from 1 until
    Fbar(t + h) > _ROUNDING * Fbar(t): the nodes of the quadrature's unit
    first panel would miss a law of scale 1e-10.  At t = 0, where the
    density may be infinite (Weibull with k < 1), it is the closed E[X^s]
    when the model has one.  The s > 0 branch splits at the model's
    breakpoints, the kinks of its survival function.  Weibull and its
    wrappers, which have none, take both branches; ``numeric`` and its
    wrappers take only the s > 0 one, as their ``negative_partial``
    answers s < 0.
    """
    what = f"E[(X-t)_+^{s:g}] for {X.label}"
    if s > 0.0:
        return s * integrate_singular_power(X.survival, t, s, upper=X.support_upper,
                                            breakpoints=X.breakpoints).require(what)
    if t == 0.0 and X.closed_form_moment is not None:
        return X.closed_form_moment(s)
    mass, h = X.survival(t), 1.0
    while mass > 0.0 and X.survival(t + h) <= _ROUNDING * mass:
        h *= 0.5
    density = X.density_ac
    res = integrate_singular_power(lambda y: density(t + h * y), 0.0, s + 1.0,
                                   upper=(X.support_upper - t) / h)
    return h ** (s + 1.0) * res.require(what)


def _partial_fn(X: DistributionModel, s: float) -> Callable[[float], float]:
    """t -> upper_partial_moment(X, t, s), branch chosen once; callers check t >= 0."""
    if s <= -1.0:
        raise DivergenceError(f"E[(X-t)_+^{s:g}] diverges (exponent <= -1)")
    if s == 0.0:
        return X.survival
    if X.closed_form_partial is not None:
        return X.closed_form_partial(s)
    if s < 0.0 and X.negative_partial is not None:
        return X.negative_partial(s)
    return lambda t: _partial_by_quadrature(X, t, s)


def upper_partial_moment(X: DistributionModel, t: float, s: float) -> float:
    """E[(X - t)_+^s] with the convention (x)_+^s = x^s * 1{x > 0}.

    The atom at 0 of mass 1 - survival(0) therefore contributes nothing
    for t >= 0, and no model has an atom above 0, so every s in (-1, 0)
    gives a finite value for t > 0; at t = 0 it can diverge (Weibull for
    s <= -k).  At or past ``support_upper`` the value is 0.
    """
    if t < 0.0:
        raise InvalidParameterError(f"upper partial moment requires t >= 0, got {t}")
    return _partial_fn(X, s)(t)


def fractional_moment(X: DistributionModel, s: float) -> float:
    """E[X^s].  E[X^0] is 1 exactly (0^0 = 1 convention)."""
    if s == 0.0:
        return 1.0
    if s <= -1.0:
        raise DivergenceError(f"E[X^{s:g}] diverges (exponent <= -1)")
    if s < 0.0 and X.survival(0.0) < 1.0:
        raise DivergenceError(f"E[X^{s:g}] diverges: {X.label} has an atom at 0")
    if X.closed_form_moment is not None:
        return X.closed_form_moment(s)
    return upper_partial_moment(X, 0.0, s)


def quantile(X: DistributionModel, q: float) -> float:
    """Smallest t with F(t) >= q, by bisection on the survival function."""
    _require(0.0 < q < 1.0, f"quantile level must lie in (0,1), got {q}")
    return _survival_point(X, 1.0 - q)


def _survival_point(X: DistributionModel, target: float) -> float:
    """Smallest t with P(X > t) <= target, by bisection.

    Takes the survival level itself, so a target far below the float
    spacing near 1 (the tail of a deep deductible) stays exact.
    """
    if X.survival(0.0) <= target:
        return 0.0
    if math.isfinite(X.support_upper):
        hi = X.support_upper
    else:
        hi = 1.0
        while X.survival(hi) > target:
            hi *= 2.0
            if hi == math.inf:
                raise DivergenceError(
                    f"survival level {target:g} not reached at any finite t for {X.label}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # once mid rounds onto the end it would replace, that end is fixed
        # for every later step: stop with the same result
        if X.survival(mid) > target:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)
