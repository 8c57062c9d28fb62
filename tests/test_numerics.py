import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from kronrod_panels import counting_panels
import fraceq
from fraceq import numerics
from fraceq.errors import DivergenceError, InvalidParameterError
from fraceq.numerics import (IntegralResult, QuadratureConfig, beta, gamma,
                             geomspace, integrate_interval,
                             integrate_semi_infinite, integrate_singular_power,
                             linspace, reciprocal_gamma)

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        # Gamma(3/2) = sqrt(pi)/2
        assert abs(gamma(1.5) - SQRT_PI / 2.0) <= 1e-13 * gamma(1.5)

    def test_half_integer_ladder(self):
        # Gamma(1/2 + k) = (2k)! / (4^k k!) sqrt(pi); the rational factor is
        # carried exactly so the reference is correct to a couple of ulp
        for k in (0, 1, 2, 3, 5, 10, 40, 80, 160):
            ratio = float(Fraction(math.factorial(2 * k),
                                   4 ** k * math.factorial(k)))
            exact = ratio * SQRT_PI
            assert abs(gamma(0.5 + k) - exact) <= 1e-13 * exact, k

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.7, 10.3])
    def test_recurrence(self, x):
        assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * abs(gamma(x + 1.0))

    def test_extreme_arguments(self):
        assert gamma(1e-3) > 999.0  # ~ 1/x near zero
        assert math.isfinite(gamma(170.0))

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_error(self, x):
        with pytest.raises(InvalidParameterError):
            gamma(x)

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            gamma(200.0)


class TestReciprocalGamma:
    def test_poles_map_to_zero(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-1.0) == 0.0
        assert reciprocal_gamma(-12.0) == 0.0

    def test_positive_values(self):
        assert reciprocal_gamma(2.0) == 1.0
        assert abs(reciprocal_gamma(0.5) - 1.0 / SQRT_PI) < 1e-14

    def test_negative_noninteger_sign(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert abs(reciprocal_gamma(-0.5) - (-1.0 / (2.0 * SQRT_PI))) < 1e-14
        # Gamma is positive on (-2, -1)
        assert reciprocal_gamma(-1.5) > 0.0

    def test_huge_argument_underflows_to_zero(self):
        assert reciprocal_gamma(400.0) == 0.0


class TestBeta:
    def test_trivial(self):
        assert beta(1.0, 1.0) == 1.0

    def test_half_two(self):
        # Gamma(1/2) Gamma(2) / Gamma(5/2) = 4/3
        assert abs(beta(0.5, 2.0) - 4.0 / 3.0) < 1e-12

    def test_against_bruteforce_integral(self):
        # oracle: B(2,3) = int_0^1 x (1-x)^2 dx
        oracle = integrate_interval(lambda x: x * (1.0 - x) ** 2, 0.0, 1.0)
        assert oracle.converged
        assert abs(oracle.value - 1.0 / 12.0) < 1e-12
        assert abs(beta(2.0, 3.0) - oracle.value) < 1e-12

    def test_symmetry_is_exact(self):
        for a, b in [(0.3, 2.7), (1.0, 9.5), (0.25, 0.125)]:
            assert beta(a, b) == beta(b, a)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, -0.5)])
    def test_domain_error(self, a, b):
        with pytest.raises(InvalidParameterError):
            beta(a, b)


class TestScaledUpperGamma:
    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (0.5, -1.0), (0.5, math.inf),
                                     (0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0)])
    def test_domain_error(self, a, x):
        # NaN and infinite arguments are rejected up front, not after the
        # continued fraction has run out of levels
        with pytest.raises(InvalidParameterError):
            numerics.scaled_upper_gamma(a, x)

    @pytest.mark.parametrize("a,x", [(2.05, 1e300), (3.0, 1e300), (2.5, 1e250),
                                     (172.0, 0.0), (200.0, 50.0), (171.5, 2.0)])
    def test_overflow_is_a_divergence(self, a, x):
        # the continued fraction's x^a (at 2.05 only after its split into
        # two halves), Gamma(a) at x = 0 and e^x Gamma(a) in the series
        # each exceed the largest float here
        with pytest.raises(DivergenceError, match="overflows"):
            numerics.scaled_upper_gamma(a, x)

    @pytest.mark.parametrize("a,x,expected", [(171.0, 0.0, math.gamma(171.0)),
                                              (1.5, 1e300, 1.0000000000000002e150),
                                              (2.0, 1e250, 1e250)])
    def test_largest_finite_results(self, a, x, expected):
        assert numerics.scaled_upper_gamma(a, x) == expected


class TestChebyshevTransform:
    @pytest.mark.parametrize("m", [6, 12, 24])
    def test_maps_chebyshev_polynomials_to_unit_vectors(self, m):
        # T_k sampled at cos(j pi / m) has the single coefficient 1 at T_k.
        # Each entry's cosine argument is reduced below 2 pi before it
        # rounds, so the coefficients are within a few ulps of exact
        rows = numerics._CHEB_TRANSFORM[m]
        assert len(rows) == m + 1
        for k in range(m + 1):
            tk = [math.cos(math.pi * (k * j % (2 * m)) / m) for j in range(m + 1)]
            for i, row in enumerate(rows):
                assert abs(numerics._coefficient(row, tk) - (i == k)) <= 5e-16

    @pytest.mark.parametrize("m", [6, 12, 24])
    def test_is_symmetric(self, m):
        # _head_weights dots rows, not columns, with the moments; entry
        # (j, k) takes the cosine of the same reduced argument as (k, j)
        rows = numerics._CHEB_TRANSFORM[m]
        assert all(rows[j][k] == rows[k][j] for j in range(m + 1) for k in range(m + 1))


class TestSemiInfinite:
    @pytest.mark.parametrize("c", [1.0, 1e-12, 1e-16, 1e-20], ids=lambda c: f"c{c:g}")
    def test_exponential(self, c):
        # the tail test is relative: a tiny integral is not cut off early
        res = integrate_semi_infinite(lambda x: c * math.exp(-x), 0.0)
        assert res.converged
        assert abs(res.value - c) <= 1e-13 * c

    def test_shifted_exponential(self):
        res = integrate_semi_infinite(lambda x: math.exp(-x), 1.0)
        assert abs(res.value - math.exp(-1.0)) < 1e-10

    def test_gamma_two_integrand(self):
        res = integrate_semi_infinite(lambda x: x * math.exp(-x), 0.0)
        assert abs(res.value - 1.0) < 1e-10

    def test_truncation_point_reported(self):
        res = integrate_semi_infinite(lambda x: math.exp(-x), 0.0)
        assert res.truncation_point is not None
        assert math.exp(-res.truncation_point) < 1e-12

    def test_slow_tail_doubles_past_64_times(self):
        # int_0^inf (1+x)^-1.1 dx = 10; the increments fall like 2^(-k/10)
        res = integrate_semi_infinite(lambda x: (1.0 + x) ** -1.1, 0.0)
        assert res.converged
        assert abs(res.value - 10.0) < 1e-10
        assert res.truncation_point > 2.0 ** 64

    def test_divergent_tail_stops_before_overflow(self):
        res = integrate_semi_infinite(lambda x: (1.0 + x) ** -0.9, 0.0)
        assert not res.converged
        assert math.isfinite(res.truncation_point)

    # a finite upper limit on [a, inf) is integrate_singular_power's, at p = 1
    def test_explicit_upper_bound(self):
        res = integrate_singular_power(lambda x: 1.0 if x < 1.0 else 0.0, 0.0, 1.0,
                                       upper=1.0)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-12
        assert res.truncation_point == 1.0

    def test_narrow_feature_behind_upper_hint(self):
        # without the hint a bump occupying 0.1% of the first panel is invisible
        res = integrate_singular_power(lambda x: 1.0 if x < 1.0 else 0.0, 0.999, 1.0,
                                       upper=1.0)
        assert abs(res.value - 0.001) < 1e-12

    def test_nonconvergence_flagged(self):
        # integrable only marginally; the doubling never stabilizes
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 0.0)
        assert not res.converged


class TestSingularPower:
    def test_gamma_half_by_substitution(self):
        res = integrate_singular_power(lambda x: math.exp(-x), 0.0, 0.5)
        assert res.converged
        assert abs(res.value - SQRT_PI) < 1e-9

    def test_weight_one_delegates_exactly(self):
        f = lambda x: math.exp(-x)
        direct = integrate_semi_infinite(f, 1.0)
        weighted = integrate_singular_power(f, 1.0, 1.0)
        assert weighted.value == direct.value
        assert abs(weighted.value - math.exp(-1.0)) < 1e-10

    def test_linear_weight_on_indicator(self):
        res = integrate_singular_power(lambda x: 1.0 if x < 1.0 else 0.0, 0.0, 2.0,
                                       upper=1.0)
        assert abs(res.value - 0.5) < 1e-12

    def test_head_rules_integrate_chebyshev_polynomials(self):
        # the degree-24 rule on 25 points is exact for T_0..T_24 against
        # (1+y)^(p-1), and the degree-12 rule on every other point for T_0..T_12
        for p in (1.3, 2.5):
            ri = numerics._chebyshev_moments(p)
            w24, w12 = numerics._head_weights(p)
            for k in range(25):
                tk = [math.cos(k * j * math.pi / 24.0) for j in range(25)]
                assert (math.fsum(map(operator.mul, w24, tk))
                        == pytest.approx(ri[k], abs=1e-14))
                if k <= 12:
                    assert (math.fsum(map(operator.mul, w12, tk[::2]))
                            == pytest.approx(ri[k], abs=1e-14))

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.5])
    def test_head_is_exact_on_polynomials(self, p):
        # (x - t)^(p-1) (1 + (x - t) + (x - t)^2) on [t, t + 1]
        t = 0.3
        res = integrate_singular_power(lambda x: 1.0 + (x - t) + (x - t) ** 2, t, p,
                                       upper=t + 1.0)
        exact = 1.0 / p + 1.0 / (p + 1.0) + 1.0 / (p + 2.0)
        assert res.converged
        assert abs(res.value - exact) <= 1e-15 * exact

    def test_infinite_integrand_at_t_skips_the_head(self):
        # the head samples f at t; x^-0.5 e^-x is infinite there, so the
        # weight x^0.5 is integrated directly and x^0.5 x^-0.5 e^-x gives 1
        f = lambda x: math.inf if x == 0.0 else math.exp(-x) / math.sqrt(x)
        res = integrate_singular_power(f, 0.0, 1.5)
        direct = integrate_semi_infinite(lambda x: x ** 0.5 * f(x), 0.0)
        assert res == direct
        assert res.converged and abs(res.value - 1.0) < 1e-9

    def test_head_error_estimate_sees_a_kink(self):
        # e^-x + (a - x)_+ on [0, 1] at p = 1.5: for 7 of these 39 kinks
        # |I_24 - I_12| alone falls below the head's true error
        p = 1.5
        lower_gamma = math.gamma(p) - math.exp(-1.0) * numerics.scaled_upper_gamma(p, 1.0)
        for k in range(1, 40):
            a = k / 40.0
            f = lambda x: math.exp(-x) + max(a - x, 0.0)
            # a tolerance of 1 accepts the first panel, [0, 1] itself
            head, halves = numerics._singular_head(f, lambda x: math.sqrt(x) * f(x), 0.0,
                                                   1.0, p, QuadratureConfig(1.0, 1.0))
            assert halves == []
            exact = lower_gamma + a ** (p + 1.0) / (p * (p + 1.0))
            assert abs(head.value - exact) <= head.error_estimate, a

    def test_invalid_exponent(self):
        with pytest.raises(InvalidParameterError):
            integrate_singular_power(lambda x: 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_no_breakpoints_is_the_plain_path_bit_for_bit(self, p):
        f = lambda x: math.exp(-x) * (1.0 + math.sin(3.0 * x) ** 2)
        t = 0.3
        for upper in (None, 2.5, 0.2, t):
            # the substitution each exponent used before breakpoints existed;
            # a finite upper limit is integrate_interval's
            if upper is not None and upper <= t:
                plain = IntegralResult(0.0, 0.0, True, t)  # nothing to integrate
            elif p <= 1.0:
                g, lo, end = f, t, upper
                if p < 1.0:
                    g = lambda u: f(t + u ** (1.0 / p)) / p
                    lo, end = 0.0, None if upper is None else (upper - t) ** p
                if end is None:
                    plain = integrate_semi_infinite(g, lo)
                    end = plain.truncation_point
                else:
                    plain = integrate_interval(g, lo, end)
                if p < 1.0:
                    end = t + end ** (1.0 / p)
                plain = IntegralResult(plain.value, plain.error_estimate, plain.converged, end)
            else:
                # the moment-based head panel on [t, t + 1], or on [t, upper];
                # its halves and a finite tail refined in one pass, an
                # unbounded tail integrated directly outside it
                weighted = lambda x: (x - t) ** (p - 1.0) * f(x)
                b = t + 1.0 if upper is None else min(t + 1.0, upper)
                head, pieces = numerics._singular_head(f, weighted, t, b, p,
                                                       numerics.DEFAULT_CONFIG)
                if upper is None:
                    tail = integrate_semi_infinite(weighted, b)
                    outside, trunc = [head, tail], tail.truncation_point
                else:
                    pieces = pieces + [_reference_seed(weighted, b, upper)]
                    outside, trunc = [head], upper
                value, err, converged, _ = _reference_refine(weighted, pieces, outside,
                                                             numerics.DEFAULT_CONFIG)
                plain = IntegralResult(value, err, converged, trunc)
            assert integrate_singular_power(f, t, p, upper=upper, breakpoints=()) == plain
        # breakpoints at or below t, or at or past the upper limit, are not edges
        outside = (0.1, t, 2.5, 3.0)
        assert (integrate_singular_power(f, t, p, upper=2.5, breakpoints=outside)
                == integrate_singular_power(f, t, p, upper=2.5))

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_breakpoints_are_panel_edges(self, p):
        # a ramp with kinks at 1 and 2: (x - t)^(p-1) (k - x)_+ integrates
        # to (k - t)^(p+1) / (p (p + 1)) for each ramp
        t = 0.25
        f = lambda x: 0.5 * max(1.0 - x, 0.0) + 0.25 * max(2.0 - x, 0.0)
        exact = sum(c * (k - t) ** (p + 1.0) for c, k in ((0.5, 1.0), (0.25, 2.0)))
        exact /= p * (p + 1.0)
        # each panel sees a polynomial, and at p = 1.5 the head panel's rule
        # is built for the (x - t)^0.5 weight
        tol = 1e-13
        res = integrate_singular_power(f, t, p, upper=2.0, breakpoints=(1.0, 2.0))
        assert res.converged
        assert abs(res.value - exact) <= tol * exact
        unbounded = integrate_singular_power(f, t, p, breakpoints=(1.0, 2.0))
        assert abs(unbounded.value - exact) <= tol * exact
        assert unbounded.truncation_point > 2.0

    def test_summed_error_of_the_pieces_meets_the_tolerance(self):
        # sqrt(x - floor(x)) repeats one singular tooth on each of 10 unit
        # pieces; e is the error estimate of one tooth integrated alone, so
        # a tolerance of 2e is met by each piece but not by ten of them
        # unless the pieces are refined on together
        f = lambda x: math.sqrt(x - math.floor(x))
        kinks = tuple(float(k) for k in range(1, 10))
        e = integrate_interval(f, 0.0, 1.0, QuadratureConfig(1.0, 1e-300)).error_estimate
        loose = integrate_singular_power(f, 0.0, 1.0, QuadratureConfig(20.0 * e, 1e-300),
                                         upper=10.0, breakpoints=kinks)
        assert loose.converged
        tight = integrate_singular_power(f, 0.0, 1.0, QuadratureConfig(2.0 * e, 1e-300),
                                         upper=10.0, breakpoints=kinks)
        assert tight.converged
        assert tight.error_estimate <= 2.0 * e
        assert abs(tight.value - 20.0 / 3.0) <= abs(loose.value - 20.0 / 3.0)

    def test_head_and_finite_tail_meet_the_summed_tolerance_together(self):
        # the head panel's halves and the finite tail [1, 10], whose teeth
        # are not cuts, are refined in one pass: each meets its own
        # tolerance, and the summed step brings their sum within 1e-10
        f = lambda x: math.sqrt(x - math.floor(x))
        res = integrate_singular_power(f, 0.0, 1.5, QuadratureConfig(1e-10, 1e-300),
                                       upper=10.0)
        assert res.converged
        assert res.error_estimate <= 1e-10
        # sum over k < 10 of int_0^1 sqrt(k + u) sqrt(u) du, 30-digit mpmath
        assert abs(res.value - 14.254567754866229218) <= res.error_estimate


HONESTY_CASES = [
    (lambda x: math.exp(-x), 0.0, None, 1.0),
    (lambda x: math.exp(-x), 1.0, None, math.exp(-1.0)),
    (lambda x: x * math.exp(-x), 0.0, None, 1.0),
    (lambda x: math.exp(-x), 0.0, 0.5, SQRT_PI),
    (lambda x: math.exp(-x), 1.0, 1.0, math.exp(-1.0)),
]


@pytest.mark.parametrize("f,a,p,reference", HONESTY_CASES)
def test_error_estimates_are_honest(f, a, p, reference):
    if p is None:
        res = integrate_semi_infinite(f, a)
    else:
        res = integrate_singular_power(f, a, p)
    assert res.converged
    assert abs(res.value - reference) <= 10.0 * res.error_estimate


def test_catalog_density_mass(catalog):
    for model in catalog.values():
        if model.density_ac is None:
            continue
        expected = model.survival(0.0)  # the mass above the atom at 0
        res = integrate_semi_infinite(model.density_ac, 0.0)
        assert res.converged, model.label
        assert abs(res.value - expected) <= res.error_estimate + 1e-12, model.label


def test_converged_respects_tolerances():
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    res = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, cfg)
    assert res.converged
    assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


# Reference kernels: rolled 15- and 21-point panels; a refinement loop
# that finds the worst panel by linear scan and re-sums after every
# bisection, which integrate_interval must reproduce bit for bit; a
# refinement pass over seeded pieces, which every split integral must
# reproduce; and the semi-infinite driver built on them.
def _reference_panel(f, a, b, xgk, wgk, wgk_center, wg, wg_center):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    kron = wgk_center * fc
    gauss = 0.0 if wg_center is None else wg_center * fc
    resabs = wgk_center * abs(fc)
    for i in range(len(xgk)):
        dx = half * xgk[i]
        f1 = f(center - dx)
        f2 = f(center + dx)
        kron += wgk[i] * (f1 + f2)
        resabs += wgk[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            gauss += wg[i // 2] * (f1 + f2)
    value = kron * half
    scale = resabs * abs(half)
    delta = abs(kron - gauss) * abs(half)
    if scale > 0.0 and delta > 0.0:
        err = scale * min(1.0, (200.0 * delta / scale) ** 1.5)
    else:
        err = delta
    err = max(err, 50.0 * numerics._EPS * scale)
    return value, err


def _reference_gk15(f, a, b):
    return _reference_panel(f, a, b, numerics._XGK, numerics._WGK, numerics._WGK_CENTER,
                            numerics._WG, numerics._WG_CENTER)


def _reference_gk21(f, a, b):  # the 10-point Gauss rule has no center node
    return _reference_panel(f, a, b, numerics._XGK21, numerics._WGK21,
                            numerics._WGK21_CENTER, numerics._WG10, None)


def _reference_seed(f, a, b):
    mid = 0.5 * (a + b)
    return [(a, mid, *_reference_gk15(f, a, mid)), (mid, b, *_reference_gk15(f, mid, b))]


def _reference_refine(f, pieces, outside, cfg):
    """(value, error, converged, whether the summed step ran) of the pass."""
    # [error, left, right, depth, value]: a bisected panel's left half
    # keeps its place and its right half is appended
    panels = []
    tol = lambda value: max(cfg.abs_tol, cfg.rel_tol * abs(value))

    def bisect(candidates):
        worst = max(candidates, key=lambda i: panels[i][0])  # the lowest index on ties
        err, lo, hi, depth, value = panels[worst]
        mid = 0.5 * (lo + hi)
        if (depth >= numerics._MAX_DEPTH
                or hi - lo <= numerics._MIN_PANEL_ULPS * math.ulp(mid)):
            return None
        lv, le = _reference_gk15(f, lo, mid)
        rv, re = _reference_gk15(f, mid, hi)
        panels[worst] = [le, lo, mid, depth + 1, lv]
        panels.append([re, mid, hi, depth + 1, rv])
        return lv + rv - value, le + re - err

    def total():
        return (math.fsum([p[4] for p in panels] + [r.value for r in outside]),
                math.fsum([p[0] for p in panels] + [r.error_estimate for r in outside]))

    converged = all(r.converged for r in outside)
    for piece in pieces:
        first = len(panels)
        panels += [[err, lo, hi, len(piece) - 1, value] for lo, hi, value, err in piece]
        while True:  # the piece re-summed after each bisection
            value = math.fsum(p[4] for p in panels[first:])
            err = math.fsum(p[0] for p in panels[first:])
            if err <= tol(value):
                break
            if bisect(range(first, len(panels))) is None:
                converged = False
                break
    value, err = total()
    summed = converged and err > tol(value)
    if summed:
        out_err = math.fsum(r.error_estimate for r in outside)
        budget = len(panels) if out_err < tol(value) else 0
        while budget and err > tol(value):
            change = bisect(range(len(panels)))
            if change is None:
                converged = False
                break
            value += change[0]
            err += change[1]
            budget -= 1
        value, err = total()
    return value, err, converged and err <= tol(value), summed


def _reference_integrate_interval(f, a, b, cfg):
    if a == b:
        return 0.0, 0.0, True
    if b < a:
        value, err, converged = _reference_integrate_interval(f, b, a, cfg)
        return -value, err, converged
    mid0 = 0.5 * (a + b)
    lv0, le0 = _reference_gk15(f, a, mid0)
    rv0, re0 = _reference_gk15(f, mid0, b)
    panels = [(le0, a, mid0, 1, lv0), (re0, mid0, b, 1, rv0)]
    converged = True
    while True:
        total_value = math.fsum(p[4] for p in panels)
        total_err = math.fsum(p[0] for p in panels)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_value))
        if total_err <= tol:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, lo, hi, depth, _ = panels[worst]
        mid = 0.5 * (lo + hi)
        if (depth >= numerics._MAX_DEPTH
                or hi - lo <= numerics._MIN_PANEL_ULPS * math.ulp(mid)):
            converged = False
            break
        lv, le = _reference_gk15(f, lo, mid)
        rv, re = _reference_gk15(f, mid, hi)
        panels[worst] = (le, lo, mid, depth + 1, lv)
        panels.append((re, mid, hi, depth + 1, rv))
    total_value = math.fsum(p[4] for p in panels)
    total_err = math.fsum(p[0] for p in panels)
    if total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_value)):
        converged = False
    return total_value, total_err, converged


def _reference_semi_infinite(f, a, cfg):
    """(value, error, converged, truncation point) of integrate_semi_infinite.

    [a, a + 1] is integrate_interval's; each doubling segment after it is
    one 21-point panel, refined as a one-panel piece when it misses the
    segment tolerance.
    """
    seg_cfg = QuadratureConfig(cfg.abs_tol / 32.0, cfg.rel_tol / 8.0)
    value, err, converged = _reference_integrate_interval(f, a, a + 1.0, seg_cfg)
    lo = a + 1.0
    while math.isfinite(hi := a + 2.0 * (lo - a)):
        v, e = _reference_gk21(f, lo, hi)
        if e > max(seg_cfg.abs_tol, seg_cfg.rel_tol * abs(v)):
            v, e, ok, _ = _reference_refine(f, [[(lo, hi, v, e)]], [], seg_cfg)
            converged = converged and ok
        value += v
        err += e
        lo = hi
        if abs(v) <= numerics._TAIL_EPSILON * abs(value) or v == value == 0.0:
            break
    else:
        converged = False
    return value, err, converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)), lo


def _kernel_battery(count):
    """(label, f, a, b, cfg) cases: ties, steps, singularities, depth limit."""
    rng = random.Random(20161018)

    def cfg():
        return QuadratureConfig(10.0 ** rng.uniform(-14.0, -6.0),
                                10.0 ** rng.uniform(-12.0, -4.0))

    def family(k):
        h = rng.uniform(0.1, 3.0)
        c = rng.uniform(-1.0, 1.0)
        q = rng.uniform(0.5, 5.0)
        if k == 0:  # symmetric: equal errors on mirrored panels
            return "|x|", (lambda x: abs(x)), -h, h
        if k == 1:
            return "x^2", (lambda x: x * x), -h, h
        if k == 2:
            return "cos", (lambda x: math.cos(q * x)), -h, h
        if k == 3:
            return "step", (lambda x: 1.0 if x >= c else -0.5), -2.0, 2.0
        if k == 4:
            return "|x|^-0.3", (lambda x: abs(x) ** -0.3), -h, 2.0 * h
        if k == 5:  # not integrable: refinement stops at _MAX_DEPTH
            return "1/|x|", (lambda x: 1.0 / abs(x)), -h, 2.0 * h
        if k == 6:
            return "exp", (lambda x: math.exp(q * x)), c - h, c + h
        if k == 7:
            return "sin", (lambda x: math.sin(q * q * x)), c, c - h  # reversed
        return "zero", (lambda x: 0.0), c, c + h

    for _ in range(count):
        label, f, a, b = family(rng.randrange(9))
        yield label, f, a, b, cfg()
    yield "empty", math.exp, 0.5, 0.5, cfg()


def test_integrate_interval_matches_reference_loop():
    nonconverged = 0
    labels = set()
    for label, f, a, b, cfg in _kernel_battery(300):
        calls, ref_calls = [], []
        res = integrate_interval(lambda x: calls.append(x) or f(x), a, b, cfg)
        ref = _reference_integrate_interval(
            lambda x: ref_calls.append(x) or f(x), a, b, cfg)
        assert (res.value, res.error_estimate, res.converged) == ref, (label, a, b)
        assert calls == ref_calls, (label, a, b)
        nonconverged += not res.converged
        labels.add(label)
    assert nonconverged > 0 and len(labels) == 10


def test_gk21_matches_reference_loop():
    for label, f, a, b, _ in _kernel_battery(300):
        calls, ref_calls = [], []
        got = numerics._gk21(lambda x: calls.append(x) or f(x), a, b)
        assert got == _reference_gk21(lambda x: ref_calls.append(x) or f(x), a, b), label
        assert calls == ref_calls, (label, a, b)


@pytest.mark.parametrize("d", range(32))
def test_gk21_rules_are_exact_on_monomials(d):
    # the 21-point Kronrod rule integrates x^d exactly for d <= 31 and its
    # 10-point Gauss rule for d <= 19
    exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
    kron, _ = numerics._gk21(lambda x: x ** d, -1.0, 1.0)
    assert abs(kron - exact) <= 1e-15
    if d <= 19:
        gauss = math.fsum(w * (x ** d + (-x) ** d)
                          for x, w in zip(numerics._XGK21[1::2], numerics._WG10))
        assert abs(gauss - exact) <= 1e-15


@pytest.mark.parametrize("f,a", [
    (lambda x: math.exp(-x), 0.0),
    (lambda x: x * math.exp(-0.5 * x), 0.3),
    (lambda x: math.exp(-x) * (1.0 + abs(x - 3.3)), 0.0),
    (lambda x: math.exp(-0.3 * x) * (1.0 if x < 5.7 else 0.25), -0.5),
    (lambda x: (1.0 + x) ** -1.1, 0.0),
    (lambda x: 1.0 / (1.0 + x), 0.0),  # never converges
])
def test_semi_infinite_matches_reference_driver(f, a):
    for cfg in (numerics.DEFAULT_CONFIG, QuadratureConfig(1e-14, 1e-12)):
        res = integrate_semi_infinite(f, a, cfg)
        assert (res.value, res.error_estimate, res.converged,
                res.truncation_point) == _reference_semi_infinite(f, a, cfg)


def test_tail_segment_is_refined_only_when_it_misses():
    # e^-x: [0, 1] in two 15-point halves, then one 21-point panel for
    # each of the 7 doublings to 128; a kink at 3.3 sends [2, 4] alone on
    # to 15-point bisection
    with counting_panels() as smooth:
        integrate_semi_infinite(lambda x: math.exp(-x), 0.0)
    assert smooth == {15: 2, 21: 7}
    with counting_panels() as kinked:
        integrate_semi_infinite(lambda x: math.exp(-x) * (1.0 + abs(x - 3.3)), 0.0)
    assert kinked[21] == 7 and kinked[15] > 2


def test_bisection_stops_where_floats_run_out():
    # the singular point 0.3 is not dyadic: bisection toward it reaches
    # panels a few ulps wide, and at depth 49 a Kronrod node hit 0.3 itself
    f = lambda x: abs(x - 0.3) ** -0.3
    cfg = QuadratureConfig(1e-12, 1e-10)
    calls = []
    res = integrate_interval(lambda x: calls.append(x) or f(x), -2.0, 2.0, cfg)
    assert not res.converged
    assert 0.3 not in calls
    assert (res.value, res.error_estimate, res.converged) == \
        _reference_integrate_interval(f, -2.0, 2.0, cfg)
    with pytest.raises(DivergenceError):
        res.require()
    # the default tolerances converge before the panels get that narrow
    assert integrate_interval(f, -2.0, 2.0).converged


def _split_battery(count):
    """(label, f, t, upper, cuts, cfg) cases at p = 1, with 1-4 cuts inside (t, upper)."""
    rng = random.Random(20161019)

    def family(k, cuts):
        c = rng.choice(cuts)
        if k == 0:  # a singular derivative at every integer
            return "teeth", lambda x: math.sqrt(x - math.floor(x))
        if k == 1:
            return "kinks", lambda x: math.exp(-x) * sum(abs(x - u) for u in cuts)
        if k == 2:  # a jump where no cut is
            s = rng.uniform(cuts[0] - 1.0, cuts[-1] + 1.0)
            return "step", lambda x: 1.0 if x >= s else -0.5
        if k == 3:
            return "|x-c|^-0.3", lambda x: abs(x - c) ** -0.3
        return "1/|x-c|", lambda x: 1.0 / abs(x - c)  # not integrable

    for _ in range(count):
        t = rng.uniform(-1.0, 1.0)
        upper = t + rng.uniform(0.5, 8.0)
        cuts = tuple(sorted(rng.uniform(t, upper) for _ in range(rng.randint(1, 4))))
        label, f = family(rng.randrange(5), cuts)
        cfg = QuadratureConfig(10.0 ** rng.uniform(-14.0, -6.0),
                               10.0 ** rng.uniform(-12.0, -4.0))
        yield label, f, t, upper, cuts, cfg


def test_split_integrals_match_reference_pass():
    # every finite piece joins the pass: one panel between cuts, two halves
    # from the last cut to upper
    summed = nonconverged = 0
    labels = set()
    for label, f, t, upper, cuts, cfg in _split_battery(200):
        calls, ref_calls = [], []
        res = integrate_singular_power(lambda x: calls.append(x) or f(x), t, 1.0, cfg,
                                       upper=upper, breakpoints=cuts)
        g = lambda x: ref_calls.append(x) or f(x)
        edges = (t,) + cuts
        pieces = [[(a, b, *_reference_gk15(g, a, b))] for a, b in zip(edges, edges[1:])]
        pieces.append(_reference_seed(g, cuts[-1], upper))
        *ref, ran = _reference_refine(g, pieces, [], cfg)
        assert (res.value, res.error_estimate, res.converged) == tuple(ref), (label, cuts)
        assert res.truncation_point == upper
        assert calls == ref_calls, (label, cuts)
        summed += ran
        nonconverged += not res.converged
        labels.add(label)
    assert summed > 0 and nonconverged > 0 and len(labels) == 5


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        QuadratureConfig(abs_tol=0.0)


@pytest.mark.parametrize("abs_tol,rel_tol", [
    (0, 1), (1e-10, 0.0), (-1.0, 1e-8),
    # not finite: an infinite or NaN tolerance can end a quadrature at its seed panels
    (math.nan, 1e-8), (math.inf, 1e-8), (1e-10, math.nan), (1e-10, math.inf)])
def test_config_rejects_each_nonpositive_tolerance(abs_tol, rel_tol):
    with pytest.raises(InvalidParameterError):
        QuadratureConfig(abs_tol, rel_tol)


def test_integral_results_compare_by_value():
    assert IntegralResult(0.5, 1e-12, True) == IntegralResult(0.5, 1e-12, True, None)
    assert IntegralResult(0.5, 1e-12, True) != IntegralResult(0.5, 1e-12, False)
    assert IntegralResult(0.5, 1e-12, True, 8.0) != IntegralResult(0.5, 1e-12, True)


def test_head_weights_are_one_shared_tuple_per_p():
    w24, w12 = weights = numerics._head_weights(1.5)
    assert numerics._head_weights(1.5) is weights
    assert (len(w24), len(w12)) == (25, 13)
    assert all(type(w) is tuple for w in weights)


class TestGrids:
    @pytest.mark.parametrize("a,b,num", [(0.0, 1.0, 2), (0.0, 8.0 / 3.0, 30),
                                         (-1.5, 7.1, 17), (0.3, 0.3, 5)])
    def test_linspace_endpoints_length_order(self, a, b, num):
        pts = linspace(a, b, num)
        assert len(pts) == num
        assert pts[0] == a and pts[-1] == b
        assert all(x <= y for x, y in zip(pts, pts[1:]))

    @pytest.mark.parametrize("a,b,num", [(1e-7, 1.0, 63), (2.0e-3, 2.0, 20),
                                         (0.1, 1e4, 9)])
    def test_geomspace_endpoints_length_order(self, a, b, num):
        pts = geomspace(a, b, num)
        assert len(pts) == num
        assert pts[0] == a and pts[-1] == b
        assert all(x < y for x, y in zip(pts, pts[1:]))
        ratios = [y / x for x, y in zip(pts, pts[1:])]
        assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            linspace(0.0, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            geomspace(0.0, 1.0, 5)

    def test_linspace_matches_numpy_bit_for_bit(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(1611)
        for _ in range(2000):
            a, b = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
            num = rng.randint(2, 70)
            assert linspace(a, b, num) == np.linspace(a, b, num).tolist()


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraceq.__file__)))
    probe = "import sys, fraceq.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_dataclasses():
    # dataclasses (and the inspect it pulls in) cost about 9 ms of every
    # command's start-up; -S keeps site's own imports out of sys.modules
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraceq.__file__)))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import fraceq.cli; "
             "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
