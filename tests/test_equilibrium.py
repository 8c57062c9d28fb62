import math

import pytest

from conftest import rel_diff
from kronrod_panels import counting_panels
from fraceq import equilibrium, suite
from fraceq.distributions import (deductible, exponential, numeric, quantile, uniform,
                                  weibull)
from fraceq.equilibrium import (EquilibriumView, characterization_check,
                                eq_density, eq_density_fn, eq_moment,
                                eq_survival, eq_survival_recursive,
                                first_order_cdf_interpretation)
from fraceq.errors import InvalidParameterError
from fraceq.fracops import PowerSum, power_expectation
from fraceq.numerics import (beta, geomspace, integrate_semi_infinite,
                             integrate_singular_power, linspace)


class TestEquilibriumView:
    def test_accessors(self):
        view = EquilibriumView(exponential(2.0), 0.5, 3)
        assert (view.alpha, view.n, view.total) == (0.5, 3, 1.5)
        assert rel_diff(view.norm, math.gamma(2.5) / 2.0 ** 1.5) < 1e-14

    def test_validation(self):
        X = exponential(1.0)
        # checked before E[X^(n alpha)]: alpha = -0.6, n = 2 would diverge
        for alpha, n in ((0.0, 1), (-0.6, 2), (0.5, 0), (0.5, -1)):
            with pytest.raises(InvalidParameterError):
                EquilibriumView(X, alpha, n)
        with pytest.raises(InvalidParameterError):
            eq_survival_recursive(X, 0.0, 1, [0.5])

    def test_norm_is_computed_once(self, monkeypatch):
        orders = []
        moment = equilibrium.fractional_moment
        monkeypatch.setattr(equilibrium, "fractional_moment",
                            lambda X, s: orders.append(s) or moment(X, s))
        view = EquilibriumView(exponential(2.0), 0.5, 3)
        assert eq_survival(view, 0.0) == 1.0 and eq_survival(view, 1.0) < 1.0
        assert orders == [1.5]


class TestEqSurvival:
    def test_exponential_fixed_point_value(self):
        X = exponential(1.0)
        view = EquilibriumView(X, 0.5, 2)
        assert abs(eq_survival(view, 1.0) - math.exp(-1.0)) < 1e-12

    def test_starts_at_one(self, catalog):
        for model in catalog.values():
            for alpha, n in ((0.5, 1), (1.0, 2)):
                view = EquilibriumView(model, alpha, n)
                assert abs(eq_survival(view, 0.0) - 1.0) < 1e-9, model.label

    def test_uniform_value(self):
        view = EquilibriumView(uniform(0.0, 1.0), 1.0, 1)
        # E[(X-t)_+]/E[X] = (1-t)^2 at t = 1/2
        assert abs(eq_survival(view, 0.5) - 0.25) < 1e-14

    def test_nonincreasing(self, catalog):
        for model in catalog.values():
            view = EquilibriumView(model, 0.7, 1)
            hi = model.support_upper if math.isfinite(model.support_upper) else 6.0
            values = [eq_survival(view, hi * k / 29.0) for k in range(30)]
            assert all(a >= b - 1e-10 for a, b in zip(values, values[1:])), model.label

    def test_vanishes_at_truncation_scale(self):
        X = exponential(1.0)
        view = EquilibriumView(X, 0.5, 1)
        res = integrate_semi_infinite(X.survival, 0.0)
        assert eq_survival(view, res.truncation_point) < 1e-6


class TestEqDensity:
    def test_exponential_fixed_point_value(self):
        X = exponential(1.0)
        assert abs(eq_density(EquilibriumView(X, 0.5, 1), 2.0)
                   - math.exp(-2.0)) < 1e-12
        assert abs(eq_density(EquilibriumView(X, 1.0, 1), 0.0) - 1.0) < 1e-14

    def test_uniform_linear_density(self):
        view = EquilibriumView(uniform(0.0, 1.0), 1.0, 1)
        assert abs(eq_density(view, 0.25) - 1.5) < 1e-14

    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (1.0, 1), (0.7, 2)])
    def test_density_fn_matches_eq_density_bit_for_bit(self, catalog, alpha, n):
        for X in catalog.values():
            view = EquilibriumView(X, alpha, n)
            density = eq_density_fn(view)
            # memoized only where one value is not a closed form
            assert hasattr(density, "cache_info") == (X.closed_form_partial is None)
            for t in (0.0, 0.25, 1.0, 1.5, 3.5):
                assert density(t) == eq_density(view, t), (X.label, t)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_fixed_point_sweep(self, lam):
        X = exponential(lam)
        for alpha in (0.3, 0.9):
            for n in (1, 3):
                view = EquilibriumView(X, alpha, n)
                for t in linspace(0.0, 5.0 / lam, 12):
                    assert abs(eq_density(view, float(t))
                               - lam * math.exp(-lam * float(t))) < 1e-9

    def test_integrates_back_to_survival(self, catalog):
        for name in ("exp1", "uniform01", "hyperexp"):
            model = catalog[name]
            view = EquilibriumView(model, 0.5, 1)
            for t in (0.0, 0.4):
                res = integrate_singular_power(eq_density_fn(view), t, 1.0,
                                               upper=model.support_upper)
                assert res.converged
                assert abs(res.value - eq_survival(view, t)) < 1e-7, (name, t)


    def test_density_fn_evaluates_each_node_once(self, catalog, monkeypatch):
        # criterion 5's oracle for the knot table at alpha=1, n=1: three
        # powers integrated against one density revisit the same nodes
        # (876 evaluations of 555 distinct nodes without the memo)
        model = catalog["numeric"]
        view = EquilibriumView(model, 1.0, 1)
        nodes = []
        resolve = equilibrium._partial_fn

        def counted_fn(X, s):
            partial = resolve(X, s)

            def counted(t):
                nodes.append(t)
                return partial(t)
            return counted

        monkeypatch.setattr(equilibrium, "_partial_fn", counted_fn)
        density = eq_density_fn(view)
        for r in (0.5, 1.0, 2.0):
            power_expectation(PowerSum.power(r), density,
                              upper=model.support_upper, breakpoints=())
        assert len(nodes) == len(set(nodes)) == 555
        monkeypatch.undo()
        for t in nodes[::37]:
            assert density(t) == eq_density(view, t)

class TestRecursiveOracle:
    def test_single_level_is_plain_equilibrium(self):
        X = exponential(1.0)
        [got] = eq_survival_recursive(X, 1.0, 1, [0.7])
        assert abs(got - math.exp(-0.7)) < 1e-8

    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (1.0, 1), (0.5, 2), (1.0, 2)])
    def test_matches_direct_form(self, alpha, n):
        for X, ts in ((exponential(1.0), (0.0, 1.0, 2.5)),
                      (uniform(0.0, 1.0), (0.0, 0.3, 0.8))):
            view = EquilibriumView(X, alpha, n)
            for t, oracle in zip(ts, eq_survival_recursive(X, alpha, n, ts)):
                direct = eq_survival(view, t)
                assert rel_diff(direct, oracle) < 1e-5, (X.label, alpha, n, t)

    def test_depth_guard(self):
        X = exponential(1.0)
        with pytest.raises(InvalidParameterError):
            eq_survival_recursive(X, 0.5, 4, [0.0])


# S(x) = 0.5 (1 - x)_+ + 0.25 (2 - x)_+: kinks at 1 and 2
KINKED = [(0.0, 1.0), (1.0, 0.25), (2.0, 0.0)]
# the fixed 5-knot Exp(1) table of the eqdist benchmark: exp(-t) to 4 places
KNOT5 = [(0.0, 1.0), (0.5, 0.6065), (1.0, 0.3679), (2.0, 0.1353), (4.0, 0.0183)]


@pytest.fixture(scope="module")
def oracle():
    """oracle(X, alpha, n): the 8-point eqdist grid of X and the recursive
    oracle on it, computed once for this module's tests."""
    computed = {}

    def run(X, alpha, n):
        key = (X.label, alpha, n)
        if key not in computed:
            hi = (X.support_upper if math.isfinite(X.support_upper)
                  else quantile(X, 0.99))
            ts = linspace(0.0, hi, 8)
            computed[key] = ts, eq_survival_recursive(X, alpha, n, ts)
        return computed[key]
    return run


def ramp_equilibrium(ramps, alpha, n):
    """Exact P(X_alpha^(n) > t) for S(x) = sum c (k - x)_+ on x >= 0.

    The Weyl integral maps (k - x)_+^b to a multiple of (k - x)_+^(b + alpha),
    so after normalization each ramp becomes c (k - t)_+^(n alpha + 1).
    """
    e = n * alpha + 1.0
    norm = sum(c * k ** e for c, k in ramps)
    return lambda t: sum(c * max(k - t, 0.0) ** e for c, k in ramps) / norm


def knot_table_equilibrium(knots):
    """Exact P(X_alpha^(n) > t) at n alpha = 1, int_t^inf S / int_0^inf S,
    for a numeric law with an exponential tail: trapezoids plus the tail."""
    ts = [t for t, _ in knots]
    ss = [s for _, s in knots]
    decay = math.log(ss[-2] / ss[-1]) / (ts[-1] - ts[-2])

    def area_above(x):
        if x >= ts[-1]:
            return ss[-1] * math.exp(-decay * (x - ts[-1])) / decay
        total = ss[-1] / decay
        for (t0, s0), (t1, s1) in zip(knots, knots[1:]):
            if x < t1:
                lo = max(t0, x)
                s_lo = s0 + (s1 - s0) * (lo - t0) / (t1 - t0)
                total += 0.5 * (s_lo + s1) * (t1 - lo)
        return total

    return lambda t: area_above(t) / area_above(0.0)


class TestRecursiveOracleExact:
    @pytest.mark.parametrize("alpha,n", [(0.5, 2), (0.5, 3), (1.0, 3)])
    @pytest.mark.parametrize("law", ["uniform", "kinked"])
    def test_piecewise_linear_laws(self, oracle, law, alpha, n):
        if law == "uniform":
            X, ramps = uniform(0.0, 1.0), [(1.0, 1.0)]
        else:
            X, ramps = numeric(KINKED), [(0.5, 1.0), (0.25, 2.0)]
        exact = ramp_equilibrium(ramps, alpha, n)
        ts, values = oracle(X, alpha, n)
        for t, value in zip(ts, values):
            assert rel_diff(value, exact(t)) <= 1e-9, (t, value, exact(t))

    def test_benchmark_knot_table(self, oracle):
        # n alpha = 1: the equilibrium survival is the normalized tail area
        exact = knot_table_equilibrium(KNOT5)
        ts, values = oracle(numeric(KNOT5), 0.5, 2)
        for t, value in zip(ts, values):
            assert rel_diff(value, exact(t)) <= 1e-9, (t, value, exact(t))


COVERAGE = ([(X, alpha, 2) for X in suite._catalog() + [weibull(0.7, 1.0)]
             for alpha in (0.5, 1.0)]
            + [(X, 0.5, 3) for X in (weibull(2.0, 1.0), uniform(0.0, 1.0),
                                     numeric(KINKED))])


@pytest.mark.parametrize("X,alpha,n", COVERAGE,
                         ids=[f"{X.label}-{alpha}-{n}" for X, alpha, n in COVERAGE])
def test_recursive_oracle_matches_direct_path(oracle, X, alpha, n):
    # Weibull(0.7, 1) has a density singular at 0; the knot tables and
    # the uniform law have kinks
    view = EquilibriumView(X, alpha, n)
    ts, values = oracle(X, alpha, n)
    for t, value in zip(ts, values):
        assert rel_diff(eq_survival(view, t), value) <= 1e-5, t


class TestEqMoment:
    def test_first_moment_of_exponential_is_mean(self):
        X = exponential(1.0)
        for alpha, n in ((0.3, 1), (0.5, 2), (1.0, 3)):
            assert abs(eq_moment(EquilibriumView(X, alpha, n), 1.0) - 1.0) < 1e-12

    def test_uniform_first_moment(self):
        view = EquilibriumView(uniform(0.0, 1.0), 1.0, 1)
        assert abs(eq_moment(view, 1.0) - 1.0 / 3.0) < 1e-14

    def test_exponential_second_moment_higher_order(self):
        view = EquilibriumView(exponential(1.0), 0.5, 3)
        assert abs(eq_moment(view, 2.0) - 2.0) < 1e-12

    def test_against_bruteforce_integral(self, catalog):
        for name in ("exp1", "uniform01", "deductible"):
            model = catalog[name]
            view = EquilibriumView(model, 0.5, 1)
            for r in (0.5, 1.0, 2.0):
                brute = power_expectation(PowerSum.power(r),
                                          eq_density_fn(view),
                                          upper=model.support_upper,
                                          breakpoints=model.breakpoints)
                assert rel_diff(eq_moment(view, r), brute) < 1e-5, (name, r)

    def test_classical_stationary_excess_formula_at_alpha_one(self, catalog):
        # n B(n, r+1) E[X^(n+r)] / E[X^n], same expression specialized
        from fraceq.distributions import fractional_moment
        for model in (catalog["exp1"], catalog["uniform01"]):
            for n in (1, 2):
                view = EquilibriumView(model, 1.0, n)
                for r in (1.0, 2.0):
                    classical = (n * beta(float(n), r + 1.0)
                                 * fractional_moment(model, n + r)
                                 / fractional_moment(model, float(n)))
                    assert eq_moment(view, r) == pytest.approx(classical, abs=0.0)

    def test_moment_criterion_panel_budget(self):
        # E[Z^0.5] carries the weight z^0.5: the moment-based head panel at
        # 0 integrates it without Gauss-Kronrod bisecting toward the
        # weight's derivative singularity, which took 8,634 panels in all;
        # the density's pieces left of each kink, mapped in w = (b - z)^alpha
        # at alpha = 1/2, took 2,626 panels uncut and unmapped
        with counting_panels() as panels:
            rows = suite.criterion_5_equilibrium_moments()
        assert all(row.passed for row in rows)
        assert panels.total() <= 2_044


class TestFirstOrderCdf:
    def test_exponential(self):
        X = exponential(1.0)
        got = first_order_cdf_interpretation(X, 1.0, 1.0)
        assert abs(got - (1.0 - math.exp(-1.0))) < 1e-9

    def test_zero_threshold(self, catalog):
        for model in catalog.values():
            assert first_order_cdf_interpretation(model, 0.7, 0.0) == 0.0

    def test_uniform(self):
        U = uniform(0.0, 1.0)
        assert abs(first_order_cdf_interpretation(U, 1.0, 0.5) - 0.75) < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
    def test_oracle_for_eq_survival(self, alpha):
        X = exponential(1.0)
        view = EquilibriumView(X, alpha, 1)
        for t in (0.3, 1.0, 2.0):
            lhs = first_order_cdf_interpretation(X, alpha, t)
            assert abs(lhs - (1.0 - eq_survival(view, t))) < 1e-7

    @pytest.mark.parametrize("X", [
        uniform(0.2, 1.3), numeric([(0.5, 0.9), (1.5, 0.3), (2.5, 0.05)]),
        deductible(0.5, uniform(0.2, 1.3)),
        deductible(1.0, numeric([(0.5, 0.9), (1.5, 0.3), (2.5, 0.05)]))],
        ids=lambda X: X.label)
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
    def test_cut_at_the_kinks_of_both_survival_terms(self, X, alpha):
        # Fbar(y) - Fbar(y + t) has kinks at each breakpoint b and at b - t;
        # a quadrature across them is only as good as its tolerance, ~1e-9
        view = EquilibriumView(X, alpha, 1)
        for t in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.3, 1.6, 2.0, 3.0):
            lhs = first_order_cdf_interpretation(X, alpha, t)
            assert abs(lhs - (1.0 - eq_survival(view, t))) < 1e-13, t


class TestCharacterization:
    def test_exponential_is_fixed_point(self):
        report = characterization_check(exponential(2.0),
                                        [0.3, 0.7, 1.0], [1, 2], tol=1e-6)
        assert report.is_fixed_point
        assert report.max_deviation <= 1e-6

    def test_weibull_detected(self):
        report = characterization_check(weibull(2.0, 1.0),
                                        [0.3, 0.7, 1.0], [1, 2], tol=1e-6)
        assert not report.is_fixed_point
        assert report.max_deviation > 0.05
        assert all(dev > 0.05 for dev in report.deviations.values())

    def test_witness_none_for_fixed_point(self):
        # every deviation of an exponential is rounding noise, so no point
        # of the grid is a meaningful witness
        report = characterization_check(exponential(1.0), [0.5, 1.0], [1, 2])
        assert report.is_fixed_point
        assert report.witness is None

    def test_witness_on_grid_for_non_fixed_point(self):
        X = weibull(2.0, 1.0)
        report = characterization_check(X, [0.5, 1.0], [1, 2])
        alpha, n, t = report.witness
        hi = quantile(X, 0.99)
        assert t in geomspace(hi * 1e-3, hi, 20)
        assert report.deviations[(alpha, n)] == report.max_deviation

    def test_uniform_detected(self):
        report = characterization_check(uniform(0.0, 1.0), [1.0], [1],
                                        tol=1e-6)
        assert not report.is_fixed_point
        # f_1(0) = 2 against f(0) = 1
        assert report.max_deviation > 0.05

    def test_missing_density(self, catalog):
        with pytest.raises(InvalidParameterError):
            characterization_check(catalog["numeric"], [1.0], [1])


def test_view_validation(catalog):
    with pytest.raises(InvalidParameterError):
        EquilibriumView(catalog["exp1"], 0.5, 0)
