import math

import pytest

from conftest import exp_knots, rel_diff
from fraceq import distributions as dist
from fraceq import numerics, suite
from fraceq.distributions import (build, fractional_moment, quantile,
                                  upper_partial_moment)
from fraceq.errors import DivergenceError, InvalidParameterError


def strip_closed(model):
    """Force the quadrature fallbacks."""
    return dist.DistributionModel(model.label, model.survival, model.support_upper,
                                  density_ac=model.density_ac,
                                  breakpoints=model.breakpoints)


EXP1 = {"kind": "exponential", "params": {"lambda": 1.0}}


class TestBuild:
    def test_exponential(self):
        X = dist.exponential(1.0)
        assert X.survival(0.0) == 1.0  # no atom at 0
        assert abs(X.survival(1.0) - math.exp(-1.0)) < 1e-15
        assert X.support_upper == math.inf

    def test_deductible_over_exponential(self):
        X = dist.deductible(1.0, dist.exponential(1.0))
        mass = 1.0 - X.survival(0.0)  # the atom at 0
        assert abs(mass - (1.0 - math.exp(-1.0))) < 1e-12  # 0.6321206...
        for t in (0.0, 0.5, 2.0):
            assert abs(X.survival(t) - math.exp(-(1.0 + t))) < 1e-15

    def test_zero_inflated(self):
        X = dist.zero_inflated(0.3, dist.exponential(1.0))
        assert abs((1.0 - X.survival(0.0)) - 0.3) < 1e-15
        assert abs(X.survival(1.0) - 0.7 * math.exp(-1.0)) < 1e-15

    def test_numeric_interpolation(self):
        X = dist.numeric(exp_knots())
        # knot values are exact, interior points interpolate monotonically
        assert X.survival(0.5) == math.exp(-0.5)
        assert math.exp(-0.8) < X.survival(0.75) < math.exp(-0.7)
        # exponential extrapolation beyond the last knot keeps decaying
        assert 0.0 < X.survival(6.0) < X.survival(4.0)

    def test_numeric_first_knot_above_zero(self):
        # (0, 1) is prepended, so the law has no atom at 0
        X = dist.numeric([(1.0, 0.5), (2.0, 0.25)])
        assert X.label == "Numeric(3 knots)"
        assert X.survival(0.0) == 1.0
        assert X.survival(0.5) == 0.75

    def test_numeric_ending_at_survival_zero(self):
        # the support ends at the first knot with survival 0: no tail
        X = dist.numeric([(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
        assert X.support_upper == 2.0
        assert X.survival(3.0) == 0.0
        assert abs(fractional_moment(X, 1.0) - 1.0) < 1e-10
        assert abs(fractional_moment(X, 2.0) - 4.0 / 3.0) < 1e-10

    def test_numeric_flat_last_knots_fall_back_to_rate_one(self):
        # equal survival at the last two knots fits no decay rate
        X = dist.numeric([(0.0, 1.0), (1.0, 0.5), (2.0, 0.5)])
        assert X.support_upper == math.inf
        assert X.survival(3.0) == 0.5 * math.exp(-1.0)

    @pytest.mark.parametrize("spec", [
        {"kind": "exponential", "params": {"lambda": 0.0}},
        {"kind": "exponential", "params": {"lambda": -2.0}},
        {"kind": "uniform", "params": {"a": 1.0, "b": 1.0}},
        {"kind": "weibull", "params": {"k": 2.0, "lambda": 0.0}},
        {"kind": "hyperexp2", "params": {"p": 1.5, "lambda1": 1.0, "lambda2": 2.0}},
        {"kind": "zero_inflated", "params": {"p": 0.0}, "inner": EXP1},
        {"kind": "deductible", "params": {"d": 0.0}, "inner": EXP1},
        {"kind": "deductible", "params": {"d": 2.0},
         "inner": {"kind": "uniform", "params": {"a": 0.0, "b": 1.0}}},
        {"kind": "numeric", "params": {"knots": [[0.0, 1.0]]}},
        {"kind": "numeric", "params": {"knots": [[0.0, 0.4], [1.0, 0.6]]}},
        {"kind": "frobnicate"},
        {"kind": 1, "params": {"lambda": 1.0}},
        [EXP1],
        {"kind": "exponential", "params": {"lambda": True}},
        {"kind": "exponential", "params": {"lambda": "fast"}},
        {"kind": "exponential", "params": {}},
        {"kind": "exponential", "params": [1.0]},
        {"kind": "deductible", "params": {"d": 1.0}},
        {"kind": "exponential", "params": {"lambda": math.inf}},
        {"kind": "uniform", "params": {"a": 0.0, "b": math.inf}},
        {"kind": "weibull", "params": {"k": math.inf, "lambda": 1.0}},
        {"kind": "weibull", "params": {"k": 2.0, "lambda": math.nan}},
        {"kind": "numeric", "params": {"knots": [[0.0, 1.0], [math.inf, 0.5]]}},
        {"kind": "deductible", "params": {"d": 1.0},
         "inner": {"kind": "exponential", "params": {"lambda": math.nan}}},
    ])
    def test_invalid_parameters(self, spec):
        with pytest.raises(InvalidParameterError):
            build(spec)

    @staticmethod
    def nested(levels):
        spec = EXP1
        for _ in range(levels):
            spec = {"kind": "zero_inflated", "params": {"p": 0.01}, "inner": spec}
        return spec

    def test_nesting_up_to_the_cap(self):
        X = build(self.nested(dist._MAX_NESTING))
        assert rel_diff(X.survival(1.0), 0.99 ** dist._MAX_NESTING * math.exp(-1.0)) < 1e-14
        with pytest.raises(InvalidParameterError, match="nests"):
            build(self.nested(dist._MAX_NESTING + 1))

    def test_deeply_nested_parameter_is_rejected_without_recursion(self):
        deep = 1.0
        for _ in range(5000):  # far past the interpreter's recursion limit
            deep = [deep]
        with pytest.raises(InvalidParameterError):
            build({"kind": "exponential", "params": {"lambda": deep}})

    @pytest.mark.parametrize("obj,model", [
        (EXP1, dist.exponential(1.0)),
        ({"kind": "deductible", "params": {"d": 1.0},
          "inner": {"kind": "hyperexp2",
                    "params": {"p": 0.4, "lambda1": 1.0, "lambda2": 3.0}}},
         dist.deductible(1.0, dist.hyperexp2(0.4, 1.0, 3.0))),
        ({"kind": "numeric", "params": {"knots": [list(k) for k in exp_knots()]}},
         dist.numeric(exp_knots())),
    ], ids=["exponential", "deductible", "numeric"])
    def test_build_matches_constructor(self, obj, model):
        X = build(obj)
        assert X.label == model.label
        assert X.support_upper == model.support_upper
        for t in (0.0, 0.5, 2.0):
            assert X.survival(t) == model.survival(t)
            assert upper_partial_moment(X, t, 0.5) == upper_partial_moment(model, t, 0.5)


class TestBreakpoints:
    def test_smooth_kinds_have_none(self):
        for X in (dist.exponential(1.0), dist.weibull(0.7, 1.0),
                  dist.hyperexp2(0.4, 1.0, 3.0)):
            assert X.breakpoints == (), X.label

    def test_uniform(self):
        assert dist.uniform(0.0, 1.0).breakpoints == (1.0,)
        assert dist.uniform(0.25, 2.0).breakpoints == (0.25, 2.0)

    def test_numeric_knots_above_zero(self):
        assert dist.numeric(exp_knots()).breakpoints == (
            0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
        # the prepended (0, 1) knot is not a breakpoint; the first given one is
        X = dist.numeric([(0.5, 0.9), (1.5, 0.3), (2.5, 0.05)])
        assert X.breakpoints == (0.5, 1.5, 2.5)

    def test_zero_inflated_keeps_inner(self):
        X = dist.zero_inflated(0.3, dist.uniform(0.25, 2.0))
        assert X.breakpoints == (0.25, 2.0)
        assert dist.zero_inflated(0.3, dist.exponential(1.0)).breakpoints == ()

    def test_deductible_shifts_inner(self):
        inner = dist.numeric([(0.5, 0.9), (1.5, 0.3), (2.5, 0.05)])
        # 0.5 - 1 is not above 0 and is dropped
        assert dist.deductible(1.0, inner).breakpoints == (0.5, 1.5)
        assert dist.deductible(0.5, inner).breakpoints == (1.0, 2.0)
        assert dist.deductible(1.0, dist.exponential(1.0)).breakpoints == ()


KINKS = [(0.5, 0.9), (1.5, 0.3), (2.5, 0.05)]
# every callable field of a model, and a law that carries it; a field added
# without an entry here, and so without a tested lifting rule, fails
CALLABLE_FIELDS = [name for name, kind in dist.DistributionModel.__annotations__.items()
                   if "Callable" in kind]
CARRIERS = {
    "survival": dist.weibull(0.7, 1.0),
    "closed_form_moment": dist.weibull(0.7, 1.0),
    "closed_form_partial": dist.hyperexp2(0.4, 1.0, 3.0),
    "negative_partial": dist.numeric(KINKS),
    "density_ac": dist.weibull(0.7, 1.0),
}


def wrappers_of(inner):
    """(model, shift, scale): both wrappers, as survival scale * Fbar(shift + t)."""
    return [(dist.zero_inflated(0.3, inner), 0.0, 1.0 - 0.3),
            (dist.deductible(0.5, inner), 0.5, 1.0)]


class TestLiftingRule:
    @pytest.mark.parametrize("name", CALLABLE_FIELDS)
    def test_both_wrappers_lift_the_field(self, name):
        assert name in CARRIERS, f"no lifting rule under test for {name}"
        inner = CARRIERS[name]
        f = getattr(inner, name)
        assert f is not None
        for X, shift, scale in wrappers_of(inner):
            lifted = getattr(X, name)
            if name == "closed_form_moment":
                # E[(X-d)_+^s] is no moment of X: only the zero-inflated law keeps it
                assert (lifted is None) == (shift > 0.0), X.label
                if lifted is not None:
                    assert all(lifted(s) == scale * f(s) for s in (-0.5, 0.5, 1.5))
                continue
            assert lifted is not None, X.label
            if "partial" in name:  # factories: s -> (t -> value)
                lifted, inner_at = lifted(-0.5), f(-0.5)
            else:
                inner_at = f
            for t in (0.0, 0.3, 2.0):
                assert lifted(t) == scale * inner_at(shift + t), (X.label, t)
        if name in ("survival", "density_ac"):
            below = 1.0 if name == "survival" else 0.0
            assert all(getattr(X, name)(-0.25) == below for X, _, _ in wrappers_of(inner))

    @pytest.mark.parametrize("inner", list(CARRIERS.values()) + [dist.uniform(0.25, 2.0)],
                             ids=lambda X: X.label)
    def test_a_field_the_inner_law_lacks_stays_unset(self, inner):
        for X, shift, _ in wrappers_of(inner):
            for name in CALLABLE_FIELDS:
                lacks = getattr(inner, name) is None
                if name == "closed_form_moment" and shift > 0.0:
                    lacks = True
                assert (getattr(X, name) is None) == lacks, (X.label, name)

    def test_zero_inflated_around_a_deductible_table(self):
        N = dist.numeric(KINKS)
        X = dist.zero_inflated(0.3, dist.deductible(1.0, N))
        for t in (0.0, 0.3, 2.0):
            assert X.survival(t) == 0.7 * N.survival(1.0 + t)
            assert X.negative_partial(-0.5)(t) == 0.7 * N.negative_partial(-0.5)(1.0 + t)
        assert X.breakpoints == (0.5, 1.5)
        assert X.closed_form_partial is X.density_ac is X.closed_form_moment is None

    def test_deductible_around_a_zero_inflated_weibull(self):
        W = dist.weibull(0.7, 1.0)
        X = dist.deductible(0.5, dist.zero_inflated(0.3, W))
        for t in (0.0, 0.3, 2.0):
            assert X.survival(t) == 0.7 * W.survival(0.5 + t)
            assert X.density_ac(t) == 0.7 * W.density_ac(0.5 + t)
            for s in (-0.5, 1.5):
                assert rel_diff(upper_partial_moment(X, t, s),
                                0.7 * upper_partial_moment(W, 0.5 + t, s)) < 1e-12
        assert X.closed_form_moment is None and X.support_upper == math.inf


# each kind's partial moment as one expression in (t, s), with nothing
# hoisted: a factory must reproduce these bits, so any reordering of the
# arithmetic it hoists shows
def _exponential_partial(lam):
    log_lam = math.log(lam)
    return lambda t, s: math.exp(math.lgamma(s + 1.0) - lam * t - s * log_lam)


def _uniform_partial(a, b):
    width = b - a

    def partial(t, s):
        if t >= b:
            return 0.0
        lo = max(a, t)
        return ((b - t) ** (s + 1.0) - (lo - t) ** (s + 1.0)) / ((s + 1.0) * width)
    return partial


def _hyperexp2_partial(p, lam1, lam2):
    q = 1.0 - p

    def partial(t, s):
        g = math.gamma(s + 1.0)
        return g * (p * math.exp(-lam1 * t) * lam1 ** -s
                    + q * math.exp(-lam2 * t) * lam2 ** -s)
    return partial


def _numeric_negative_partial(knots):
    ts = [float(t) for t, _ in knots]
    ss = [float(s) for _, s in knots]
    if ts[0] > 0.0:
        ts, ss = [0.0] + ts, [1.0] + ss
    t_last, s_last = ts[-1], ss[-1]
    decay = (math.log(ss[-2] / s_last) / (ts[-1] - ts[-2])
             if ss[-2] > s_last > 0.0 else 1.0)
    segments = [(ts[i], ts[i + 1], (ss[i] - ss[i + 1]) / (ts[i + 1] - ts[i]))
                for i in range(len(ts) - 1)]

    def partial(t, s):
        if s >= 0.0:
            return None  # the s > 0 orders are quadratures
        p = s + 1.0
        terms = [c * ((hi - t) ** p - (max(lo, t) - t) ** p) / p
                 for lo, hi, c in segments if hi > t]
        if s_last > 0.0:
            terms.append(s_last * decay ** -s * math.exp(-decay * max(t - t_last, 0.0))
                         * numerics.scaled_upper_gamma(p, decay * max(t_last - t, 0.0)))
        return math.fsum(terms)
    return partial


def _lifted_partial(shift, scale, inner):
    if inner is None:
        return None

    def partial(t, s):
        value = inner(shift + t, s)
        return None if value is None else scale * value
    return partial


def _laws_and_expressions():
    """(model, written-out expression or None) for every kind and wrapper.

    Each base law is wrapped in ``zero_inflated`` and ``deductible``, which
    covers the suite catalog; a table is also wrapped twice.
    """
    base = [(dist.exponential(1.0), _exponential_partial(1.0)),
            (dist.exponential(2.5), _exponential_partial(2.5)),
            (dist.uniform(0.0, 1.0), _uniform_partial(0.0, 1.0)),
            (dist.uniform(0.2, 1.3), _uniform_partial(0.2, 1.3)),
            (dist.weibull(2.0, 1.0), None),
            (dist.weibull(0.7, 1.0), None),
            (dist.hyperexp2(0.4, 1.0, 3.0), _hyperexp2_partial(0.4, 1.0, 3.0)),
            (dist.hyperexp2(0.3, 0.7, 2.9), _hyperexp2_partial(0.3, 0.7, 2.9))]
    base += [(dist.numeric(knots), _numeric_negative_partial(knots))
             for knots in (exp_knots(), KINKS, [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])]
    out = list(base)
    for inner, expr in base:
        d = 1.0 if inner.support_upper > 1.0 else 0.5
        out.append((dist.zero_inflated(0.3, inner), _lifted_partial(0.0, 1.0 - 0.3, expr)))
        out.append((dist.deductible(d, inner), _lifted_partial(d, 1.0, expr)))
    nested = _lifted_partial(1.0, 1.0, _numeric_negative_partial(KINKS))
    out.append((dist.zero_inflated(0.3, dist.deductible(1.0, dist.numeric(KINKS))),
                _lifted_partial(0.0, 1.0 - 0.3, nested)))
    return out


LAWS_AND_EXPRESSIONS = _laws_and_expressions()


def _outcome(f, *args):
    try:
        return f(*args)
    except (DivergenceError, InvalidParameterError) as exc:
        return type(exc)


class TestPartialPerOrder:
    ORDERS = (-0.7, -0.5, -0.2, 0.0, 0.5, 1.0, 1.5, 2.5)

    def test_every_catalog_law_is_covered(self):
        labels = {X.label for X, _ in LAWS_AND_EXPRESSIONS}
        assert all(X.label in labels for X in suite._catalog())

    @pytest.mark.parametrize("X,expr", LAWS_AND_EXPRESSIONS,
                             ids=[X.label for X, _ in LAWS_AND_EXPRESSIONS])
    def test_resolved_function_is_bit_identical(self, X, expr):
        # 0, interior points, each kink, the support end and points past it
        ts = [0.0, 0.3, 1.0, 2.7, *X.breakpoints]
        top = X.support_upper
        ts += [top, math.nextafter(top, math.inf), 1.5 * top] if math.isfinite(top) else [7.5]
        for s in self.ORDERS:
            at = dist._partial_fn(X, s)
            for t in ts:
                got = _outcome(at, t)
                assert got == _outcome(upper_partial_moment, X, t, s), (s, t)
                if s != 0.0 and expr is not None and expr(t, s) is not None:
                    assert got == expr(t, s), (s, t)
        assert dist._partial_fn(X, 0.0) is X.survival

    def test_divergent_order_raises_before_any_evaluation(self, catalog):
        for X in catalog.values():
            with pytest.raises(DivergenceError):
                dist._partial_fn(X, -1.0)


class TestFractionalMoment:
    def test_exponential_half_moment(self):
        # E[X^s] = Gamma(s+1) / lambda^s for the exponential
        X = dist.exponential(1.0)
        assert abs(fractional_moment(X, 0.5) - math.gamma(1.5)) < 1e-14
        assert abs(fractional_moment(X, 1.0) - 1.0) < 1e-14

    def test_uniform_second_moment(self):
        X = dist.uniform(0.0, 1.0)
        assert abs(fractional_moment(X, 2.0) - 1.0 / 3.0) < 1e-14

    def test_zeroth_moment_is_one(self, catalog):
        for model in catalog.values():
            assert fractional_moment(model, 0.0) == 1.0

    def test_negative_exponent_against_closed_form(self):
        X = dist.exponential(1.0)
        bare = strip_closed(X)
        for s in (-0.5, -0.25):
            assert rel_diff(fractional_moment(bare, s), math.gamma(s + 1.0)) < 1e-8

    @pytest.mark.parametrize("X,mass", [
        (dist.zero_inflated(0.3, dist.exponential(1.0)), 0.3),
        (dist.deductible(1.0, dist.exponential(1.0)), 1.0 - math.exp(-1.0)),
        (dist.numeric([(0.0, 0.8), (1.0, 0.4), (2.0, 0.1)]), 0.2),
        (dist.zero_inflated(0.5, dist.deductible(1.0, dist.exponential(1.0))),
         0.5 + 0.5 * (1.0 - math.exp(-1.0))),
    ], ids=["zero_inflated", "deductible", "numeric", "zero_inflated_deductible"])
    def test_negative_exponent_with_atom_at_zero_diverges(self, X, mass):
        # the atom at 0 is what survival(0) leaves short of 1
        assert abs((1.0 - X.survival(0.0)) - mass) < 1e-15
        with pytest.raises(DivergenceError):
            fractional_moment(X, -0.5)

    @pytest.mark.parametrize("X", [
        dist.exponential(1.0), dist.uniform(0.0, 1.0), dist.weibull(2.0, 1.0),
        dist.hyperexp2(0.4, 1.0, 3.0),
        dist.numeric([(0.0, 1.0), (1.0, 0.4), (2.0, 0.1)]),
    ], ids=["exponential", "uniform", "weibull", "hyperexp2", "numeric"])
    def test_negative_exponent_without_atom_is_finite(self, X):
        assert X.survival(0.0) == 1.0
        value = fractional_moment(X, -0.5)
        assert math.isfinite(value) and value > 0.0

    def test_exponent_at_or_below_minus_one_diverges(self, catalog):
        with pytest.raises(DivergenceError):
            fractional_moment(catalog["exp1"], -1.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_closed_form_matches_quadrature(self, catalog, s):
        for model in catalog.values():
            if model.closed_form_moment is None and model.closed_form_partial is None:
                continue
            closed = fractional_moment(model, s)
            quad = fractional_moment(strip_closed(model), s)
            assert rel_diff(closed, quad) < 1e-6, (model.label, s)


class TestUpperPartialMoment:
    def test_exponential_tail_formula(self):
        # E[(X-t)_+^s] = Gamma(s+1) e^(-t) for the unit exponential
        X = dist.exponential(1.0)
        got = upper_partial_moment(X, 2.0, 0.5)
        assert abs(got - math.exp(-2.0) * math.gamma(1.5)) < 1e-12  # 0.1199377...

    def test_zero_threshold_gives_mean(self, catalog):
        for model in catalog.values():
            lhs = upper_partial_moment(model, 0.0, 1.0)
            rhs = fractional_moment(model, 1.0)
            assert rel_diff(lhs, rhs) < 1e-8, model.label

    def test_uniform_excess(self):
        X = dist.uniform(0.0, 1.0)
        # int_{1/2}^1 (x - 1/2) dx = 1/8
        assert abs(upper_partial_moment(X, 0.5, 1.0) - 0.125) < 1e-14

    def test_matches_moment_at_zero(self, catalog):
        for model in catalog.values():
            for s in (0.5, 1.0, 2.0):
                assert rel_diff(upper_partial_moment(model, 0.0, s),
                                fractional_moment(model, s)) < 1e-8

    def test_exponent_zero_is_survival(self, catalog):
        for model in catalog.values():
            assert upper_partial_moment(model, 0.7, 0.0) == model.survival(0.7)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    def test_nonincreasing_in_threshold(self, catalog, s):
        for model in catalog.values():
            hi = model.support_upper if math.isfinite(model.support_upper) else 5.0
            prev = math.inf
            for k in range(50):
                t = hi * k / 49.0
                value = upper_partial_moment(model, t, s)
                assert value <= prev + 1e-12, (model.label, s, t)
                prev = value

    def test_negative_exponent_quadrature_vs_closed(self):
        X = dist.exponential(1.0)
        bare = strip_closed(X)
        for t in (0.0, 0.5, 2.0):
            closed = upper_partial_moment(X, t, -0.5)
            quad = upper_partial_moment(bare, t, -0.5)
            assert rel_diff(closed, quad) < 1e-10, t

    def test_deeply_negative_exponents_stay_accurate(self):
        # the density route has no cancellation: (x-t)^s f(x) with the
        # weight removed by the u = (x-t)^(s+1) substitution
        bare = strip_closed(dist.exponential(1.0))
        for s in (-0.7, -0.9, -0.99):
            got = upper_partial_moment(bare, 0.5, s)
            exact = math.gamma(s + 1.0) * math.exp(-0.5)
            assert rel_diff(got, exact) < 1e-9, s

    def test_weibull_negative_order_at_zero_is_its_moment(self):
        # the density of Weibull(0.3) is infinite at 0, and E[X^s] diverges for s <= -k
        X = dist.weibull(0.3, 1.0)
        assert rel_diff(upper_partial_moment(X, 0.0, -0.2), math.gamma(1.0 / 3.0)) < 1e-15
        with pytest.raises(DivergenceError):
            upper_partial_moment(X, 0.0, -0.5)
        got = upper_partial_moment(dist.weibull(0.05, 1.0), 0.0, -0.03)
        assert rel_diff(got, math.gamma(0.4)) < 1e-15

    @pytest.mark.parametrize("scale", [1e-10, 1e-30, 1e30])
    @pytest.mark.parametrize("k", [0.7, 2.0])
    def test_negative_order_at_every_scale(self, k, scale):
        # E[(X-t)_+^s] of scale * Y is scale^s E[(Y - t/scale)_+^s]; at
        # scale 1e-10 the unit first panel alone sees none of the mass
        got = upper_partial_moment(dist.weibull(k, scale), 0.5 * scale, -0.5)
        unit = upper_partial_moment(dist.weibull(k, 1.0), 0.5, -0.5)
        assert rel_diff(got, scale ** -0.5 * unit) < 1e-13

    def test_negative_exponent_uniform_closed_form(self):
        X = dist.uniform(0.0, 1.0)
        # int_t^1 (x-t)^(-1/2) dx = 2 sqrt(1-t)
        for t in (0.0, 0.25, 0.75):
            assert abs(upper_partial_moment(X, t, -0.5)
                       - 2.0 * math.sqrt(1.0 - t)) < 1e-13

    def test_atom_at_threshold_is_allowed(self):
        # the (x)_+ convention nullifies mass sitting exactly at t
        X = dist.deductible(1.0, dist.exponential(1.0))
        got = upper_partial_moment(X, 0.0, -0.5)
        assert abs(got - math.exp(-1.0) * math.gamma(0.5)) < 1e-12

    @pytest.mark.parametrize("inner", [
        dist.uniform(0.0, 6.222267195697184),
        dist.numeric([(0.0, 1.0), (6.222267195697184, 0.0)]),
    ], ids=["uniform", "numeric"])
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5])
    def test_zero_at_and_past_the_deductible_support_top(self, inner, s):
        # 6.2222... - 0.5002... rounds low, so adding d back falls short
        # of the inner top; support_upper is raised until it does not
        d = 0.5002150188621628
        X = dist.deductible(d, inner)
        top = X.support_upper
        assert top >= inner.support_upper - d and top + d >= inner.support_upper
        for t in (top, math.nextafter(top, math.inf), top + 1.0):
            assert upper_partial_moment(X, t, s) == 0.0, t

    def test_negative_threshold_rejected(self, catalog):
        with pytest.raises(InvalidParameterError):
            upper_partial_moment(catalog["exp1"], -1.0, 1.0)

    @pytest.mark.parametrize("s,budget", [(0.5, 183), (1.0, 283)])
    def test_positive_order_panel_budget_on_a_knot_table(self, monkeypatch, s, budget):
        # the benchmark's unjittered 5-knot table over its 16-point grid:
        # cut at the knots, every piece is smooth, where integrating across
        # them bisected toward each kink for 630 (s = 0.5) and 708 (s = 1)
        # Gauss-Kronrod panels
        X = dist.numeric([(0.0, 1.0), (0.5, 0.6065), (1.0, 0.3679),
                          (2.0, 0.1353), (4.0, 0.0183)])
        ts = numerics.linspace(0.0, quantile(X, 0.99), 16)
        panels = 0
        gk15 = numerics._gk15

        def counted(f, a, b):
            nonlocal panels
            panels += 1
            return gk15(f, a, b)

        monkeypatch.setattr(numerics, "_gk15", counted)
        for t in ts:
            upper_partial_moment(X, t, s)
        assert panels == budget


class TestSurvival:
    def test_examples(self):
        X = dist.exponential(1.0)
        assert X.survival(0.0) == 1.0
        assert abs(X.survival(1.0) - math.exp(-1.0)) < 1e-15
        X_d = dist.deductible(1.0, dist.exponential(1.0))
        assert abs(X_d.survival(0.0) - math.exp(-1.0)) < 1e-15

    def test_negative_arguments(self, catalog):
        for model in catalog.values():
            assert model.survival(-0.5) == 1.0

    def test_monotone_and_bounded(self, catalog):
        for model in catalog.values():
            hi = model.support_upper if math.isfinite(model.support_upper) else 8.0
            prev = 1.0
            for k in range(200):
                t = hi * k / 199.0
                value = model.survival(t)
                assert 0.0 <= value <= 1.0, model.label
                assert value <= prev + 1e-12, model.label
                prev = value


def test_zero_inflated_partial_identity(catalog):
    # the atom at zero contributes nothing above t = 0
    zi = catalog["zero_inflated"]
    inner = catalog["exp1"]
    for t in (0.1, 1.0, 2.5):
        for s in (0.5, 1.0, 2.0):
            assert rel_diff(upper_partial_moment(zi, t, s),
                            0.7 * upper_partial_moment(inner, t, s)) < 1e-12


def test_quantile():
    X = dist.exponential(1.0)
    assert abs(quantile(X, 1.0 - math.exp(-1.0)) - 1.0) < 1e-9
    U = dist.uniform(0.0, 1.0)
    assert abs(quantile(U, 0.25) - 0.25) < 1e-9
    # -ln(0.01) / 1e300, far below the 2^-200 that 200 steps from [0, 1] reach
    assert quantile(dist.exponential(1e300), 0.99) == 4.6051701859880905e-300
    # heavy tails: the doubling search runs until t overflows
    W = dist.weibull(0.05, 1.0)
    assert rel_diff(quantile(W, 0.999), math.log(1000.0) ** 20) < 1e-12
    with pytest.raises(DivergenceError):
        quantile(dist.weibull(0.001, 1.0), 0.999)


def test_quantile_stops_at_the_fixed_point_of_the_full_bisection(catalog):
    # 200 bisection steps, run to the end, give the same float
    def full(X, target):
        lo = 0.0
        hi = X.support_upper if math.isfinite(X.support_upper) else 1.0
        while X.survival(hi) > target:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if X.survival(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for X in catalog.values():
        for q in (1e-6, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-12):
            if X.survival(0.0) > 1.0 - q:
                assert quantile(X, q) == full(X, 1.0 - q), (X.label, q)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_quantile_at_any_scale(scale):
    # the bracket is halved down to the answer before bisecting, so 200
    # steps reach full precision however far below 1 the quantile lies
    assert rel_diff(quantile(dist.exponential(scale), 0.99),
                    -math.log(0.01) / scale) < 1e-15
    assert rel_diff(quantile(dist.uniform(0.0, 1.0 / scale), 0.25),
                    0.25 / scale) < 1e-15


def test_numeric_moments_near_exponential(catalog):
    # the knot table samples Exp(1); chords of a convex survival overshoot
    # slightly, so the piecewise-linear moments land close but above
    X = catalog["numeric"]
    assert 1.0 < fractional_moment(X, 1.0) < 1.05
    assert rel_diff(upper_partial_moment(X, 0.5, 1.0), math.exp(-0.5)) < 0.05
