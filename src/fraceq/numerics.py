"""Special functions and adaptive quadrature.

Everything else in the package integrates through this module: a 7/15
Gauss-Kronrod pair refined by interval bisection in one adaptive pass
(_refine_pieces) that serves a single interval and every finite piece of
a split integral alike, a semi-infinite driver that truncates by
geometric doubling and starts each doubling segment past the first with
one 10/21 Gauss-Kronrod panel, a sweep that integrates f from each of
many points to the last one, and two treatments of a power-law weight
(x - t)^(p-1) at an endpoint: a change of variables that removes it for
p = 1/k, and for any other p that is not an integer a Clenshaw-Curtis
panel built on the weight's modified Chebyshev moments, whose Chebyshev
kernel fracops's oracle tables share.  All operations are pure.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Callable

from .errors import DivergenceError, InvalidParameterError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "gamma",
    "reciprocal_gamma",
    "beta",
    "scaled_upper_gamma",
    "integrate_interval",
    "integrate_semi_infinite",
    "integrate_singular_power",
    "linspace",
    "geomspace",
]


class QuadratureConfig:
    """Tolerances shared by every quadrature call; each finite and > 0.

    An infinite tolerance passes every error estimate, and a NaN one
    stops refinement before it starts, so either let a quadrature report
    converged=True from its seed panels alone.
    """

    # not a NamedTuple: the constructor checks its arguments
    __slots__ = ("abs_tol", "rel_tol")
    abs_tol: float
    rel_tol: float

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> None:
        if not (0.0 < abs_tol < math.inf and 0.0 < rel_tol < math.inf):
            raise InvalidParameterError(
                f"tolerances must be finite and > 0, got ({abs_tol}, {rel_tol})")
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol


class IntegralResult:
    """Value, error estimate and convergence flag of a quadrature.

    ``truncation_point`` is the upper limit actually used for a
    semi-infinite integral (in the original variable), or None for a
    finite interval.
    """

    # not a NamedTuple: one is built per quadrature, and a NamedTuple measured 1% slower
    __slots__ = ("value", "error_estimate", "converged", "truncation_point")
    value: float
    error_estimate: float
    converged: bool
    truncation_point: float | None

    def __init__(self, value: float, error_estimate: float, converged: bool,
                 truncation_point: float | None = None) -> None:
        self.value = value
        self.error_estimate = error_estimate
        self.converged = converged
        self.truncation_point = truncation_point

    def __eq__(self, other: object) -> bool:
        return other.__class__ is IntegralResult and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def require(self, what: str = "integral") -> float:
        if not self.converged:
            raise DivergenceError(
                f"{what} did not converge "
                f"(value={self.value:.6g}, error={self.error_estimate:.3g})")
        return self.value


DEFAULT_CONFIG = QuadratureConfig()

_EPS = 2.220446049250313e-16
_MAX_DEPTH = 60  # bisections of one panel before _refine_pieces gives up
_MIN_PANEL_ULPS = 1024  # a panel this few ulps of its midpoint wide is not bisected
_TAIL_EPSILON = 1e-14  # relative size of the doubling increment that ends a tail

# ---------------------------------------------------------------------------
# special functions

def gamma(x: float) -> float:
    """Gamma function; raises InvalidParameterError at nonpositive integers."""
    if x <= 0.0 and x == math.floor(x):
        raise InvalidParameterError(f"gamma pole at x={x}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) as a total function: exactly 0 at the poles of Gamma."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x > 0.0:
        if x > 170.0:
            return math.exp(-math.lgamma(x))
        return 1.0 / math.gamma(x)
    # Gamma alternates sign between consecutive negative integers.
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return sign * math.exp(-math.lgamma(x))


def beta(a: float, b: float) -> float:
    """Beta function via log-gamma; requires a > 0 and b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise InvalidParameterError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


_GAMMA_MAX_TERMS = 500  # series terms or continued-fraction levels
_LENTZ_TINY = 1e-300  # stands in for a zero denominator in Lentz's method
_SMALL_A = 0.2  # below it the gamma series cancels from x = 0.5 to a + 1
_SQRT_PI = math.sqrt(math.pi)
# erfc(sqrt(x)) has a condition number of about 2x, so rounding sqrt(x)
# costs about x * eps: against mpmath, at 1,500 random x per window, the
# erfc form is off by at most 1.6e-15 below x = 10 but 4.1e-15 from 10 to
# 20, where the continued fraction stays within 1.3e-15 in at most 14 levels
_ERFC_MAX_X = 10.0


def scaled_upper_gamma(a: float, x: float) -> float:
    """e^x * Gamma(a, x), the scaled upper incomplete gamma, for finite a > 0, x >= 0.

    For x < a + 1 it is e^x Gamma(a) minus the series
    x^a sum_k x^k / (a (a+1) ... (a+k)) of the lower function; otherwise
    x^a times the continued fraction for Gamma(a, x), evaluated by the
    modified Lentz method (Numerical Recipes 3e, section 6.2).  Both
    branches keep the e^-x factor out, so the result stays finite far
    into the tail.  For a < _SMALL_A the two terms of the series branch
    nearly cancel, 2.3e-12 relative at (0.001, 0.9), so the continued
    fraction takes over from x = 0.5, where it needs at most about 170
    levels and stays within 2.4e-14.  At a = 1/2 and 0 < x < _ERFC_MAX_X
    it is sqrt(pi) e^x erfc(sqrt(x)) (DiDonato & Morris, ACM TOMS 12:377,
    1986), one math.erfc call in place of up to about 60 continued
    fraction levels; past x = 10 the error of sqrt(x), magnified about
    2x-fold by erfc, outgrows the continued fraction's.  A result too
    large for a float raises DivergenceError.
    """
    if not (0.0 < a < math.inf and 0.0 <= x < math.inf):  # NaN fails too
        raise InvalidParameterError(
            f"scaled upper gamma needs finite a > 0 and x >= 0, got ({a}, {x})")
    if a == 0.5 and x < _ERFC_MAX_X:  # at x = 0 this is Gamma(1/2) to the bit
        return _SQRT_PI * math.exp(x) * math.erfc(math.sqrt(x))
    try:
        value = _gamma_series_or_fraction(a, x) if x > 0.0 else math.gamma(a)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):  # inf, or inf - inf in the series
        raise DivergenceError(f"scaled upper gamma at ({a}, {x}) overflows")
    return value


def _gamma_series_or_fraction(a: float, x: float) -> float:
    """scaled_upper_gamma's two branches at x > 0; may overflow."""
    if x < a + 1.0 and (a >= _SMALL_A or x < 0.5):
        term = total = 1.0 / a
        ap = a
        for _ in range(_GAMMA_MAX_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                return math.exp(x) * math.gamma(a) - x ** a * total
    else:
        b = x + 1.0 - a
        c = 1.0 / _LENTZ_TINY
        d = 1.0 / b
        h = d
        for i in range(1, _GAMMA_MAX_TERMS + 1):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _LENTZ_TINY:
                d = _LENTZ_TINY
            c = b + an / c
            if abs(c) < _LENTZ_TINY:
                c = _LENTZ_TINY
            d = 1.0 / d
            step = d * c
            h *= step
            if abs(step - 1.0) <= _EPS:
                try:
                    return x ** a * h
                except OverflowError:  # x^a alone overflows where x^a h may not
                    return x ** (0.5 * a) * (x ** (0.5 * a) * h)
    raise DivergenceError(f"scaled upper gamma at ({a}, {x}) did not converge")


# ---------------------------------------------------------------------------
# grids

def linspace(a: float, b: float, num: int) -> list[float]:
    """num evenly spaced points from a to b inclusive.

    Same arithmetic as numpy.linspace: point i is i * step + a and the
    last point is b exactly, so grids (and reports) match it bit for bit.
    """
    if num < 2:
        raise InvalidParameterError(f"linspace needs num >= 2, got {num}")
    step = (b - a) / (num - 1)
    out = [i * step + a for i in range(num)]
    out[-1] = float(b)
    return out


def geomspace(a: float, b: float, num: int) -> list[float]:
    """num log-spaced points from a to b inclusive; a and b must be > 0.

    numpy.geomspace's recipe: 10 ** x over a linspace of log10, with both
    endpoints pinned to a and b.
    """
    if a <= 0.0 or b <= 0.0:
        raise InvalidParameterError(f"geomspace needs positive endpoints, got ({a}, {b})")
    out = [10.0 ** x for x in linspace(math.log10(a), math.log10(b), num)]
    out[0] = float(a)
    out[-1] = float(b)
    return out


# ---------------------------------------------------------------------------
# Gauss-Kronrod panels

# Positive Kronrod abscissae (x=0 handled separately); every other entry,
# starting from index 1, is also a Gauss node.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_CENTER = 0.209482141084728
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_WG_CENTER = 0.417959183673469


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 15-point Kronrod panel on [a, b]: (integral, error estimate).

    Unrolled over the 7 node pairs; f is called and the sums accumulate
    in node order, outermost pair first.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x1, x2, x3, x4, x5, x6, x7 = _XGK
    w1, w2, w3, w4, w5, w6, w7 = _WGK
    g2, g4, g6 = _WG
    fc = f(center)
    dx = half * x1
    f1 = f(center - dx)
    f2 = f(center + dx)
    dx = half * x2
    f3 = f(center - dx)
    f4 = f(center + dx)
    dx = half * x3
    f5 = f(center - dx)
    f6 = f(center + dx)
    dx = half * x4
    f7 = f(center - dx)
    f8 = f(center + dx)
    dx = half * x5
    f9 = f(center - dx)
    f10 = f(center + dx)
    dx = half * x6
    f11 = f(center - dx)
    f12 = f(center + dx)
    dx = half * x7
    f13 = f(center - dx)
    f14 = f(center + dx)
    s2 = f3 + f4
    s4 = f7 + f8
    s6 = f11 + f12
    kron = (_WGK_CENTER * fc + w1 * (f1 + f2) + w2 * s2 + w3 * (f5 + f6)
            + w4 * s4 + w5 * (f9 + f10) + w6 * s6 + w7 * (f13 + f14))
    gauss = _WG_CENTER * fc + g2 * s2 + g4 * s4 + g6 * s6
    resabs = (_WGK_CENTER * abs(fc) + w1 * (abs(f1) + abs(f2))
              + w2 * (abs(f3) + abs(f4)) + w3 * (abs(f5) + abs(f6))
              + w4 * (abs(f7) + abs(f8)) + w5 * (abs(f9) + abs(f10))
              + w6 * (abs(f11) + abs(f12)) + w7 * (abs(f13) + abs(f14)))
    return _estimate(kron, gauss, resabs, half)


def _estimate(kron: float, gauss: float, resabs: float, half: float) -> tuple[float, float]:
    """A Kronrod panel's (integral, error estimate) from its sums on [-1, 1]."""
    value = kron * half
    scale = resabs * abs(half)
    delta = abs(kron - gauss) * abs(half)
    if scale > 0.0 and delta > 0.0:
        err = scale * min(1.0, (200.0 * delta / scale) ** 1.5)
    else:
        err = delta
    err = max(err, 50.0 * _EPS * scale)
    return value, err


# Gauss-Kronrod 10/21 panel, QUADPACK's dqk21 (Piessens et al., 1983):
# positive Kronrod abscissae, outermost first, every other entry from
# index 1 a Gauss node; the 10-point Gauss rule has no node at x = 0.
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980059509, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK21_CENTER = 0.149445554002916905664936468389821
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 21-point Kronrod panel on [a, b]: (integral, error estimate).

    Unrolled as _gk15 is, over 10 node pairs, with its error estimate.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = _XGK21
    w1, w2, w3, w4, w5, w6, w7, w8, w9, w10 = _WGK21
    g2, g4, g6, g8, g10 = _WG10
    fc = f(center)
    f1, f2 = f(center - half * x1), f(center + half * x1)
    f3, f4 = f(center - half * x2), f(center + half * x2)
    f5, f6 = f(center - half * x3), f(center + half * x3)
    f7, f8 = f(center - half * x4), f(center + half * x4)
    f9, f10 = f(center - half * x5), f(center + half * x5)
    f11, f12 = f(center - half * x6), f(center + half * x6)
    f13, f14 = f(center - half * x7), f(center + half * x7)
    f15, f16 = f(center - half * x8), f(center + half * x8)
    f17, f18 = f(center - half * x9), f(center + half * x9)
    f19, f20 = f(center - half * x10), f(center + half * x10)
    s2 = f3 + f4
    s4 = f7 + f8
    s6 = f11 + f12
    s8 = f15 + f16
    s10 = f19 + f20
    kron = (_WGK21_CENTER * fc + w1 * (f1 + f2) + w2 * s2 + w3 * (f5 + f6)
            + w4 * s4 + w5 * (f9 + f10) + w6 * s6 + w7 * (f13 + f14)
            + w8 * s8 + w9 * (f17 + f18) + w10 * s10)
    gauss = g2 * s2 + g4 * s4 + g6 * s6 + g8 * s8 + g10 * s10
    resabs = (_WGK21_CENTER * abs(fc) + w1 * (abs(f1) + abs(f2))
              + w2 * (abs(f3) + abs(f4)) + w3 * (abs(f5) + abs(f6))
              + w4 * (abs(f7) + abs(f8)) + w5 * (abs(f9) + abs(f10))
              + w6 * (abs(f11) + abs(f12)) + w7 * (abs(f13) + abs(f14))
              + w8 * (abs(f15) + abs(f16)) + w9 * (abs(f17) + abs(f18))
              + w10 * (abs(f19) + abs(f20)))
    return _estimate(kron, gauss, resabs, half)


_Panel = tuple[float, float, float, float]  # evaluated: (left, right, value, error)


def _seed(f: Callable[[float], float], a: float, b: float) -> list[_Panel]:
    """The two halves integrate_interval seeds [a, b] with, as evaluated panels.

    Two panels give the refinement an error signal even when a feature
    hides between the nodes of a single panel.
    """
    mid = 0.5 * (a + b)
    lv, le = _gk15(f, a, mid)
    rv, re = _gk15(f, mid, b)
    return [(a, mid, lv, le), (mid, b, rv, re)]


def integrate_interval(f: Callable[[float], float], a: float, b: float,
                       cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of f over the finite [a, b].

    Seeds [a, b] with its two halves and returns them when their summed
    estimate meets max(abs_tol, rel_tol * |value|); otherwise the two
    panels are refined as one piece by _refine_pieces, whose bisection
    order, and hence the result, is fixed bit for bit.
    """
    cfg = cfg or DEFAULT_CONFIG
    if a == b:
        return IntegralResult(0.0, 0.0, True)
    if b < a:
        res = integrate_interval(f, b, a, cfg)
        return IntegralResult(-res.value, res.error_estimate, res.converged)
    seed = _seed(f, a, b)
    (_, _, lv, le), (_, _, rv, re) = seed
    value = math.fsum((lv, rv))
    err = math.fsum((le, re))
    if err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        return IntegralResult(value, err, True)
    return _refine_pieces(f, [seed], [], cfg)


def _bisect(f: Callable[[float], float], heap: list, values: list[float],
            errs: list[float]) -> tuple[float, float] | None:
    """Bisect the worst panel of ``heap``: the change in value and in error.

    ``heap`` holds (-error, index, left, right, depth) entries whose index
    points into ``values`` and ``errs``; the left half keeps the index and
    the right half takes the next free one.  Returns None, bisecting
    nothing, when the panel has had _MAX_DEPTH bisections or is at most
    _MIN_PANEL_ULPS ulps of its midpoint wide.
    """
    _, i, lo, hi, depth = heap[0]
    mid = 0.5 * (lo + hi)
    if depth >= _MAX_DEPTH or hi - lo <= _MIN_PANEL_ULPS * math.ulp(mid):
        return None
    lv, le = _gk15(f, lo, mid)
    rv, re = _gk15(f, mid, hi)
    change = (lv + rv - values[i], le + re - errs[i])
    values[i] = lv
    errs[i] = le
    heapq.heapreplace(heap, (-le, i, lo, mid, depth + 1))
    heapq.heappush(heap, (-re, len(values), mid, hi, depth + 1))
    values.append(rv)
    errs.append(re)
    return change


def _refine_pieces(f: Callable[[float], float], pieces: list[list[_Panel]],
                   outside: list[IntegralResult],
                   cfg: QuadratureConfig) -> IntegralResult:
    """Sum of the integrals of f over ``pieces`` and of the ``outside`` results.

    The one loop that bisects Gauss-Kronrod panels, in QUADPACK dqagp's
    order (Piessens et al., 1983).  Each piece is a list of panels
    (left, right, value, error) the caller has already evaluated: one
    panel, or the two halves of _seed.  First, while a piece misses
    max(abs_tol, rel_tol * |piece|), its worst panel is bisected; a piece
    that meets it at its seed is left as it is.  Then the panels and the
    ``outside`` results (pieces integrated elsewhere) are summed once,
    and while that sum misses its tolerance the worst panel of any piece
    is bisected, at most once per panel held when this step began, and
    not at all when the ``outside`` errors alone miss it.

    The worst panel is the one with the largest error estimate.  Ties go
    to the lowest index: the seed panels are numbered in order, and a
    bisected panel's left half keeps its index while its right half
    takes the next free one, so the bisection order, hence the result, is
    fixed bit for bit.  A panel is not bisected after _MAX_DEPTH
    bisections, a seed half counting one, nor when it is at most
    _MIN_PANEL_ULPS ulps of its midpoint wide, where floats no longer
    resolve it and its nodes crowd onto any singular point inside; its
    piece then stops, unconverged, and the summed step is skipped.
    A piece is re-summed after each of its bisections, so a single piece
    stops exactly where a loop that re-sums every panel would; running
    sums steer only the summed step, and the result is summed afresh.
    """
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    values: list[float] = []
    errs: list[float] = []
    done = []  # per piece: where its panels start in values, and its heap (indices within it)
    converged = all([r.converged for r in outside])
    for piece in pieces:
        pv, pe, panels = [], [], []
        for a, b, v, e in piece:
            panels.append((-e, len(pv), a, b, len(piece) - 1))
            pv.append(v)
            pe.append(e)
        v, e = math.fsum(pv), math.fsum(pe)
        if e > max(abs_tol, rel_tol * abs(v)):
            heapq.heapify(panels)
            while e > max(abs_tol, rel_tol * abs(v)):
                if _bisect(f, panels, pv, pe) is None:
                    converged = False
                    break
                v, e = math.fsum(pv), math.fsum(pe)
        done.append((len(values), panels))
        values += pv
        errs += pe
    if len(pieces) == 1 and not outside:  # its own phase summed a lone piece last
        return IntegralResult(v, e, converged)
    value = math.fsum(values + [r.value for r in outside])
    err = math.fsum(errs + [r.error_estimate for r in outside])
    if converged and err > max(abs_tol, rel_tol * abs(value)):
        # the pass cannot make up for outside pieces that miss the tolerance alone
        out_err = math.fsum(r.error_estimate for r in outside)
        budget = len(values) if out_err < max(abs_tol, rel_tol * abs(value)) else 0
        heap = [(e, first + i, a, b, depth)
                for first, panels in done for e, i, a, b, depth in panels]
        heapq.heapify(heap)
        while budget and err > max(abs_tol, rel_tol * abs(value)):
            change = _bisect(f, heap, values, errs)
            if change is None:
                converged = False
                break
            value += change[0]
            err += change[1]
            budget -= 1
        value = math.fsum(values + [r.value for r in outside])
        err = math.fsum(errs + [r.error_estimate for r in outside])
    converged = converged and err <= max(abs_tol, rel_tol * abs(value))
    return IntegralResult(value, err, converged)


def _one_panel(kernel: Callable, f: Callable[[float], float], a: float, b: float,
               cfg: QuadratureConfig) -> IntegralResult:
    """f over [a, b] from one ``kernel`` panel (_gk15 or _gk21).

    The panel stands when it meets max(abs_tol, rel_tol * |value|);
    otherwise it is the one panel of a piece refined by _refine_pieces.
    """
    value, err = kernel(f, a, b)
    if err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        return IntegralResult(value, err, True)
    return _refine_pieces(f, [[(a, b, value, err)]], [], cfg)


def _tail_sums(f: Callable[[float], float], points: list[float], what: str) -> list[float]:
    """int_x^points[-1] f for each x of the sorted ``points``, in one sweep.

    Each gap between neighbouring points is one _gk15 panel, refined
    only when it misses the default tolerance, and the integral from a
    point is the math.fsum of the gaps to its right.  A gap that does
    not converge raises DivergenceError, naming ``what``.
    """
    gaps: list[float] = []
    sums = [0.0]
    for a, b in zip(points[-2::-1], points[:0:-1]):  # right to left
        gaps.append(_one_panel(_gk15, f, a, b, DEFAULT_CONFIG).require(what))
        sums.append(math.fsum(gaps))
    return sums[::-1]


def integrate_semi_infinite(f: Callable[[float], float], a: float,
                            cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integral of f over [a, +inf).

    integrate_interval takes [a, a + 1], where a law's mass and kinks
    sit; each doubling segment after it starts as one _gk21 panel,
    refined only when it misses the segment tolerance (see _one_panel).
    Truncates at T found by geometric doubling from T0 = a + 1: doubling
    stops once the last increment falls below _TAIL_EPSILON * |value|, a
    test that means the same at every scale, or once the increment and
    the value are both exactly 0; unconverged, it stops when the next T
    would overflow.  The final T is reported as ``truncation_point``.
    """
    cfg = cfg or DEFAULT_CONFIG
    seg_cfg = QuadratureConfig(cfg.abs_tol / 32.0, cfg.rel_tol / 8.0)
    width = 1.0
    first = integrate_interval(f, a, a + width, seg_cfg)
    value = first.value
    err = first.error_estimate
    converged = first.converged
    t_hi = a + width
    while math.isfinite(t_next := a + 2.0 * (t_hi - a)):
        try:
            seg = _one_panel(_gk21, f, t_hi, t_next, seg_cfg)
        except OverflowError:  # f itself overflows this far out
            converged = False
            break
        value += seg.value
        err += seg.error_estimate
        converged = converged and seg.converged
        t_hi = t_next
        if abs(seg.value) <= _TAIL_EPSILON * abs(value) or seg.value == value == 0.0:
            break
    else:
        converged = False  # the tail never stabilized
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        converged = False
    return IntegralResult(value, err, converged, truncation_point=t_hi)


# ---------------------------------------------------------------------------
# Chebyshev interpolation, shared by the head panel and fracops's oracle tables

_CHEB_DEGREES = (6, 12, 24)  # interpolant degrees; degree m takes every (24 // m)-th point
_CHEB_POINTS = tuple(math.cos(math.pi * j / 24) for j in range(25))  # of the second kind
# Row k of _CHEB_TRANSFORM[m] takes the values at cos(j pi / m), j = 0..m, to
# the coefficient of T_k in their interpolant (a type-I discrete cosine
# transform, both ends of either index halved).  The argument j k pi / m is
# reduced mod 2 pi before it rounds, so the matrix is exactly symmetric and
# row j dotted with a weight's moments on T_0..T_m is the weight of point j
# in its degree-m rule.
_CHEB_TRANSFORM = {m: tuple(tuple((1.0 if 0 < j < m else 0.5) * (1.0 if 0 < k < m else 0.5)
                                  * 2.0 / m * math.cos(math.pi * (j * k % (2 * m)) / m)
                                  for j in range(m + 1)) for k in range(m + 1))
                   for m in _CHEB_DEGREES}


def _coefficient(row: tuple[float, ...], values: list[float]) -> float:
    return math.fsum(map(operator.mul, row, values))


# Clenshaw-Curtis head panel for the weight (x - t)^(p-1) (QUADPACK's dqc25s):
# f is sampled at the 25 _CHEB_POINTS, the degree-12 rule at every other one.
_CC_TAIL = _CHEB_TRANSFORM[24][22:]  # values -> coefficients of T_22..T_24


def _chebyshev_moments(p: float) -> list[float]:
    """ri_k = int_{-1}^{1} (1+y)^(p-1) T_k(y) dy for k = 0, ..., 24.

    QUADPACK's dqmomo forward recurrence (Piessens, de Doncker-Kapenga,
    Ueberhuber & Kahaner, QUADPACK, 1983, section 2.2; Piessens &
    Branders, BIT 13:443, 1973).
    """
    two_p = 2.0 ** p
    ri = [two_p / p, two_p / p * (p - 1.0) / (p + 1.0)]
    for k in range(2, 25):
        ri.append(-(two_p + k * (k - p - 1.0) * ri[k - 1]) / ((k - 1) * (k + p)))
    return ri


@functools.lru_cache(maxsize=128)  # a pass asks for about 30 p; tuples, shared safely
def _head_weights(p: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Clenshaw-Curtis weights on 25 and on 13 nested points for (1+y)^(p-1)."""
    ri = _chebyshev_moments(p)
    return tuple(tuple(_coefficient(row, ri) for row in _CHEB_TRANSFORM[n]) for n in (24, 12))


def _singular_head(f: Callable[[float], float], integrand: Callable[[float], float],
                   t: float, b: float, p: float, cfg: QuadratureConfig
                   ) -> tuple[IntegralResult, list[list[_Panel]]] | None:
    """Head panel of int_t^b (x - t)^(p-1) f(x) dx for p neither k nor 1/k.

    The panel at t is the Clenshaw-Curtis rule of degree 24 for the
    weight.  Its error estimate is |I_24 - I_12|, but at least twice the
    weight's mass times the summed size of f's last three Chebyshev
    coefficients, and at least the rounding floor of _gk15.  A kink
    inside the panel keeps those coefficients large while I_12 and I_24
    can agree: on e^-x plus (a - x)_+, (a - x)_+^1.5 or |x - a| over
    [0, 1], with a = k/200 and p from 1.2 to 3.5, |I_24 - I_12| fell
    below the true error by up to 115-fold, the coefficient term never
    below 1.6 times it.  While the estimate misses the tolerance the
    panel is halved and its right half is split off, seeded by _seed on
    ``integrand``, the weighted f, for the caller's _refine_pieces; it
    stops unconverged after _MAX_DEPTH halvings or at a panel at most
    _MIN_PANEL_ULPS ulps of its midpoint wide.  Returns the head's
    result and the seeded halves.  f is sampled at t itself; where f(t)
    is not finite it returns None, and the caller integrates the weight
    directly.
    """
    w24, w12 = _head_weights(p)
    mass = 2.0 ** p / p  # int_{-1}^{1} (1+y)^(p-1) dy
    halves = []
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (b - t)
        fx = [f(t + half * (1.0 + y)) for y in _CHEB_POINTS]
        if not math.isfinite(fx[-1]):  # f(t): a singular f needs rules that avoid t
            return None
        scale = half ** p
        # sums inline, not by _coefficient: a call per sum costs this hot loop
        value = scale * math.fsum(map(operator.mul, w24, fx))
        gap = abs(value - scale * math.fsum(map(operator.mul, w12, fx[::2])))
        tail = 2.0 * mass * sum(abs(math.fsum(map(operator.mul, row, fx)))
                                for row in _CC_TAIL)
        rounding = 50.0 * _EPS * math.fsum(abs(w * v) for w, v in zip(w24, fx))
        err = max(gap, scale * max(tail, rounding))
        if err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            converged = True
            break
        mid = t + half
        converged = False
        if depth == _MAX_DEPTH or b - t <= _MIN_PANEL_ULPS * math.ulp(mid):
            break
        halves.append(_seed(integrand, mid, b))
        b = mid
    return IntegralResult(value, err, converged), halves


def integrate_singular_power(f: Callable[[float], float], t: float, p: float,
                             cfg: QuadratureConfig | None = None, *,
                             upper: float | None = None,
                             breakpoints: tuple[float, ...] = ()) -> IntegralResult:
    """Integral of (x - t)^(p-1) * f(x) over [t, +inf), p > 0.

    For p = 1/k, k an integer above 1, the endpoint singularity is
    removed with u = (x - t)^p, which turns the integrand into
    f(t + u^k) / p on [0, +inf), as smooth as f.  For integer p the
    weight is a polynomial and is integrated directly.  For any other p
    a head panel [t, t + h], with h = min(1, first breakpoint - t,
    upper - t), is integrated by a Clenshaw-Curtis rule for the weight
    (see _singular_head), and the weight is integrated directly beyond
    it: u = (x - t)^p would leave a factor u^(1/p - 1) that is not
    smooth at u = 0.  That rule samples f at t itself; where f(t) is not
    finite, the weight is integrated directly from t when p > 1, and
    removed by u = (x - t)^p when p < 1.  A finite ``upper`` declares
    that f vanishes beyond it: the integral then ends at max(t, upper),
    reported as ``truncation_point``.  Each of the sorted
    ``breakpoints`` (kinks of f) strictly between t and ``upper``
    becomes a cut, mapped into u when u is the variable.

    An integral with a cut or a head panel is split, and every finite
    piece of it is refined in one pass (see _refine_pieces): the halves
    the head splits off and the piece between each pair of cuts, seeded
    with one panel, and the piece from the last cut to a finite
    ``upper``, seeded with two halves as integrate_interval seeds it.
    Only the head panel itself and, past the last cut, an unbounded
    tail, which runs as it would from t, stay outside the pass.  A split
    integral converges only if every piece does and their summed error
    meets the tolerance.  An unsplit integral is integrate_interval's up
    to a finite ``upper``, and integrate_semi_infinite's otherwise.
    """
    cfg = cfg or DEFAULT_CONFIG
    if p <= 0.0:
        raise InvalidParameterError(f"singular power requires p > 0, got {p}")
    finite = upper is not None and math.isfinite(upper)
    edges = [x for x in breakpoints if x > t and not (finite and x >= upper)]
    start = t
    outside, pieces = [], []
    substitute = p < 1.0 and (1.0 / p).is_integer()
    integrand = f
    to_var = lambda x: x
    if p != 1.0 and not substitute:
        q = p - 1.0
        integrand = lambda x: (x - t) ** q * f(x)
        if p != math.floor(p):
            b = min([t + 1.0] + edges[:1] + ([upper] if finite else []))
            split = _singular_head(f, integrand, t, b, p, cfg) if b > t else None
            if split:
                head, pieces = split
                outside = [head]
                start = b
                edges = [x for x in edges if x > b]
            else:
                substitute = p < 1.0
    if substitute:
        inv_p = 1.0 / p
        integrand = lambda u: f(t + u ** inv_p) / p
        to_var = lambda x: max(x - t, 0.0) ** p
    cuts = [to_var(x) for x in [start] + edges]
    lo = cuts[-1]
    tail = None if finite else integrate_semi_infinite(integrand, lo, cfg)
    trunc = max(lo, to_var(upper)) if finite else tail.truncation_point
    if not (edges or outside):
        res = integrate_interval(integrand, lo, trunc, cfg) if finite else tail
    else:
        pieces += [[(a, b, *_gk15(integrand, a, b))] for a, b in zip(cuts, cuts[1:])]
        if not finite:
            outside.append(tail)
        elif trunc > lo:
            # seeded with two halves: f decays there, and one panel rarely holds a decay
            pieces.append(_seed(integrand, lo, trunc))
        res = _refine_pieces(integrand, pieces, outside, cfg)
    if substitute:
        try:
            trunc = t + trunc ** inv_p
        except OverflowError:  # an unconverged tail can end past the float range
            trunc = math.inf
    return IntegralResult(res.value, res.error_estimate, res.converged, trunc)
