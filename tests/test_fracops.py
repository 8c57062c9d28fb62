import math

import pytest

from conftest import rel_diff
from kronrod_panels import counting_panels
from fraceq import fracops, suite
from fraceq.distributions import (_survival_point, exponential, numeric, uniform,
                                  upper_partial_moment, weibull)
from fraceq.errors import DivergenceError, InvalidParameterError
from fraceq.fracops import (PowerSum, power_caputo_derivative,
                            power_expectation, power_rl_derivative,
                            weyl_integral, weyl_of_function, weyl_table)
from fraceq.numerics import integrate_singular_power, linspace

SQRT_PI = math.sqrt(math.pi)


class TestPowerSum:
    def test_normalization(self):
        g = PowerSum.from_terms([(1.0, 2.0), (3.0, 0.0), (2.0, 2.0), (0.0, 5.0)])
        assert g.terms == ((3.0, 0.0), (3.0, 2.0))

    def test_equal_sums_hash_alike(self):
        a = PowerSum.from_terms([(1.0, 2.0), (3.0, 0.0)])
        b = PowerSum.from_terms([(3.0, 0.0), (1.0, 2.0)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PowerSum.power(2.0) and a != a.terms

    def test_json_roundtrip(self):
        g = PowerSum.from_terms([(2.0, -0.5), (1.0, 1.2)])
        assert PowerSum.from_json(g.to_json()) == g
        with pytest.raises(InvalidParameterError):
            PowerSum.from_json([{"coef": 1.0}])

    @pytest.mark.parametrize("coef,exp", [(math.nan, 1.0), (1.0, math.nan),
                                          (math.inf, 1.0), (1.0, -math.inf)])
    def test_json_rejects_nonfinite_terms(self, coef, exp):
        with pytest.raises(InvalidParameterError):
            PowerSum.from_json([{"coef": coef, "exp": exp}])


class TestPowerRlDerivative:
    def test_single_power(self):
        out = power_rl_derivative(PowerSum.power(1.0), 1, 0.5)
        assert len(out.terms) == 1
        coef, exp = out.terms[0]
        assert abs(exp - 0.5) < 1e-15
        # Gamma(2)/Gamma(3/2) = 2/sqrt(pi)
        assert abs(coef - 2.0 / SQRT_PI) < 1e-13

    def test_annihilates_critical_power(self):
        out = power_rl_derivative(PowerSum.power(-0.5), 1, 0.5)
        assert out.is_zero

    def test_annihilation_survives_float_wobble(self):
        # (j+1)*alpha - 1 built by repeated subtraction still dies at step j+1
        alpha = 0.3
        g = PowerSum.power(4 * alpha - 1.0)
        assert power_rl_derivative(g, 4, alpha).is_zero

    def test_identity_at_zero_applications(self):
        g = PowerSum.from_terms([(2.0, 0.3), (1.0, 2.0)])
        assert power_rl_derivative(g, 0, 0.7) is g

    def test_sequential_matches_telescoped_gamma_ratio(self):
        # D^(k a) x^b = Gamma(1+b)/Gamma(1-ka+b) x^(b-ka) while no pole hits
        alpha, beta_exp, k = 0.4, 2.2, 3
        out = power_rl_derivative(PowerSum.power(beta_exp), k, alpha)
        coef, exp = out.terms[0]
        expected = math.gamma(1.0 + beta_exp) / math.gamma(1.0 - k * alpha + beta_exp)
        assert abs(coef - expected) < 1e-12 * abs(expected)
        assert abs(exp - (beta_exp - k * alpha)) < 1e-12


class TestFundamentalIdentity:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_derivative_undoes_integral(self, alpha):
        # I^a x^b = Gamma(b+1)/Gamma(b+1+a) x^(b+a), so D^a I^a g = g
        g = PowerSum.from_terms([(2.0, -0.5), (1.0, 0.0), (3.0, 1.7)])
        integral = PowerSum.from_terms(
            [(c * math.gamma(e + 1.0) / math.gamma(e + 1.0 + alpha), e + alpha)
             for c, e in g.terms])
        back = power_rl_derivative(integral, 1, alpha)
        assert len(back.terms) == len(g.terms)
        for (ca, ea), (cb, eb) in zip(back.terms, g.terms):
            assert abs(ca - cb) < 1e-12 * max(1.0, abs(cb))
            assert abs(ea - eb) < 1e-12


class TestPowerCaputo:
    def test_termwise_rule(self):
        alpha = 0.4
        out = power_caputo_derivative(PowerSum.power(0.8), 1, alpha)
        coef, exp = out.terms[0]
        assert abs(exp - 0.4) < 1e-15
        assert abs(coef - math.gamma(1.8) / math.gamma(1.4)) < 1e-14

    def test_kills_constants(self):
        assert power_caputo_derivative(PowerSum.constant(7.0), 1, 0.5).is_zero

    @pytest.mark.parametrize("i", [1, 2])
    def test_rl_rule_on_nonconstant_terms(self, i):
        # D_C^a g = D_RL^a (g - g(0)); the RL rule alone keeps the constant
        alpha = 0.4
        g = PowerSum.from_terms([(5.0, 0.0), (2.0, 0.8), (3.0, 1.5)])
        rest = PowerSum.from_terms([(2.0, 0.8), (3.0, 1.5)])
        assert power_caputo_derivative(g, i, alpha) == power_rl_derivative(rest, i, alpha)
        assert not power_rl_derivative(PowerSum.constant(5.0), 1, alpha).is_zero

    def test_identity_at_zero(self):
        g = PowerSum.power(2.0)
        assert power_caputo_derivative(g, 0, 0.5) is g

    def test_polynomial_terminates(self):
        # x^2 at alpha=1: x^2 -> 2x -> 2 -> 0
        g = PowerSum.power(2.0)
        assert power_caputo_derivative(g, 3, 1.0).is_zero

    def test_negative_exponent_rejected_on_iteration(self):
        with pytest.raises(InvalidParameterError):
            power_caputo_derivative(PowerSum.power(0.3), 2, 0.5)


class TestWeylIntegral:
    def test_exponential_examples(self):
        X = exponential(1.0)
        assert abs(weyl_integral(X, 0.5, 0.0) - 1.0) < 1e-8
        assert abs(weyl_integral(X, 2.0, 1.0) - math.exp(-1.0)) < 1e-9

    def test_uniform_mean(self):
        U = uniform(0.0, 1.0)
        assert abs(weyl_integral(U, 1.0, 0.0) - 0.5) < 1e-10

    def test_both_paths_agree_on_catalog(self, catalog):
        for model in catalog.values():
            for order in (0.5, 1.0, 1.5):
                for t in (0.0, 0.5):
                    quad = weyl_integral(model, order, t)
                    # E[(X-t)_+^order] / Gamma(order + 1)
                    ident = (upper_partial_moment(model, t, order)
                             / math.gamma(order + 1.0))
                    assert rel_diff(quad, ident) < 1e-8, (model.label, order, t)

    def test_tail_lemma_at_truncation(self, catalog):
        # (T - t)^(n a) Fbar(T) below 1e-8 at the chosen truncation point
        for model in catalog.values():
            for t in (0.0, 1.0):
                for order in (0.5, 1.0, 2.0):
                    res = integrate_singular_power(model.survival, t, order,
                                                   upper=model.support_upper)
                    assert res.converged, (model.label, order, t)
                    T = res.truncation_point
                    if T is None or T <= t:
                        continue
                    tail = (T - t) ** order * model.survival(T)
                    assert tail < 1e-8, (model.label, order, t)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.7), (1.0, 1.0)])
    def test_semigroup_spot_check(self, a, b):
        X = exponential(1.0)
        inner = lambda x: weyl_integral(X, b, x)
        nested = weyl_of_function(inner, a, 1.0, upper=X.support_upper)
        direct = weyl_integral(X, a + b, 1.0)
        assert rel_diff(nested, direct) < 1e-5

    @pytest.mark.parametrize("b", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("law", ["uniform", "exponential"])
    def test_table_matches_exact_transform(self, law, b):
        # I^b[(1-x)_+](t) = (1-t)_+^(1+b) / Gamma(2+b) and I^b e^-x = e^-t
        if law == "uniform":
            X = uniform(0.0, 1.0)
            exact = lambda t: (1.0 - t) ** (1.0 + b) / math.gamma(2.0 + b)
        else:
            X = exponential(1.0)
            exact = lambda t: math.exp(-t)
        table, T = weyl_table(X, b)
        worst = max(abs(table(t) - exact(t)) for t in linspace(0.0, T, 4001))
        assert worst <= 1e-9
        for t in (math.nextafter(T, math.inf), 1.5 * T, 1e300):
            assert table(t) == 0.0

    def test_semigroup_criterion_panel_budget(self):
        # one table of I^b Fbar per (law, b); nesting a quadrature at every
        # outer node took 71,132 Gauss-Kronrod panels
        with counting_panels() as panels:
            rows = suite.criterion_3_semigroup()
        assert all(row.passed for row in rows)
        assert panels.total() <= 3_187

    def test_nested_table_node_budget(self, monkeypatch):
        # two levels of Weibull(2,1) at order 0.5 took 770 node quadratures
        # with degree 24 on every panel, and 380 with six panels graded
        # toward 0, where its survival function is smooth
        nodes = []
        tabulate = fracops._tabulate

        def counted(f, edges, *args):
            return tabulate(lambda x: nodes.append(x) or f(x), edges, *args)

        monkeypatch.setattr(fracops, "_tabulate", counted)
        weyl_table(weibull(2.0, 1.0), 0.5, (1.0, 1.0))
        assert len(nodes) <= 290

    # the benchmark's unjittered 5-knot Exp(1) table and its fixed Weibull law;
    # c is where the survival falls to 2^-60: 4 + ln(0.0183 2^60) / decay
    # on the table's exponential tail, and sqrt(60 ln 2) for Weibull(2,1).
    # The knot table took 5,010 panels with seven panels graded toward each
    # kink, and takes 1,040 with the one panel left of each mapped
    KNOT_TABLE = [(0.0, 1.0), (0.5, 0.6065), (1.0, 0.3679), (2.0, 0.1353), (4.0, 0.0183)]
    SPENT_CASES = [
        ("knot table", lambda: numeric(TestWeylIntegral.KNOT_TABLE),
         4.0 + math.log(0.0183 * 2.0 ** 60) / (math.log(0.1353 / 0.0183) / 2.0), 1040),
        ("Weibull(2,1)", lambda: weibull(2.0, 1.0), math.sqrt(60.0 * math.log(2.0)), 571),
    ]

    @pytest.mark.parametrize("make,cut,budget", [case[1:] for case in SPENT_CASES],
                             ids=[case[0] for case in SPENT_CASES])
    def test_table_nodes_stop_where_the_law_is_spent(self, monkeypatch, make, cut, budget):
        # each node integrated out to the truncation point T of I^0.5 Fbar(0),
        # 256 and 64 here, in 9,452 and 1,206 panels; the counts are exact on
        # any machine
        nodes = []  # (upper, the largest x its integrand was sampled at)

        def traced(f, t, p, cfg=None, *, upper=None, breakpoints=()):
            seen = []
            res = integrate_singular_power(lambda x: seen.append(x) or f(x), t, p, cfg,
                                           upper=upper, breakpoints=breakpoints)
            if upper is not None:  # the call without one sets T
                nodes.append((upper, max(seen, default=-math.inf)))
            return res

        monkeypatch.setattr(fracops, "integrate_singular_power", traced)
        with counting_panels() as panels:
            _, T = weyl_table(make(), 0.5)
        assert panels.total() <= budget
        c = nodes[0][0]
        assert c < T and rel_diff(c, cut) <= 1e-12
        assert all(upper == c and seen <= c for upper, seen in nodes)

    @pytest.mark.parametrize("order", [0.5, 1.0 / 3.0, 1.0], ids=["1/2", "1/3", "1"])
    def test_panel_left_of_a_kink_is_one_mapped_panel(self, monkeypatch, order):
        # at order 1/k the kink at b adds (b - u)^(j/k + 1) to level j, a
        # power of w = (b - u)^order, so one panel in w resolves what seven
        # panels graded toward b did not at 1/3
        tabulate = fracops._tabulate
        levels = []

        def traced(f, edges, *args):
            values = {}
            levels.append((edges, values))
            return tabulate(lambda x: values.setdefault(x, f(x)), edges, *args)

        monkeypatch.setattr(fracops, "_tabulate", traced)
        weyl_table(numeric(self.KNOT_TABLE), order)
        [(edges, values)] = levels
        kinks = [0.5, 1.0, 2.0, 4.0]
        assert edges[:5] == [0.0] + kinks
        scale = max(map(abs, values.values()))
        for a, b in zip(edges, kinks):
            nodes = sorted(x for x in values if a <= x <= b)
            assert len(nodes) <= 25
            assert fracops._chopped([values[x] for x in nodes], scale), (a, b)

    def test_divergent_tail_raises(self):
        from fraceq.distributions import DistributionModel, fractional_moment
        heavy = DistributionModel(
            label="heavy tail",
            survival=lambda t: 1.0 if t < 0.0 else (1.0 + t) ** -0.3)
        with pytest.raises(DivergenceError):
            weyl_integral(heavy, 0.5, 0.0)
        with pytest.raises(DivergenceError):
            fractional_moment(heavy, 1.0)


class TestOrderOneSweep:
    @pytest.mark.parametrize("scales", [(1.0,), (1.0, 0.7)], ids=["one level", "two levels"])
    @pytest.mark.parametrize("X", suite._catalog(), ids=lambda X: X.label)
    def test_matches_per_node_quadrature(self, monkeypatch, X, scales):
        # at order 1 one sweep gives every node of a level: each must be the
        # per-node quadrature of the level below, split at X's kinks and
        # ended where the law is spent
        swept = fracops._swept
        levels = []

        def traced(f, nodes, *args):
            values = swept(f, nodes, *args)
            levels.append((f, nodes, values))
            return values

        monkeypatch.setattr(fracops, "_swept", traced)
        _, T = weyl_table(X, 1.0, scales)
        cut = X.support_upper
        if not math.isfinite(cut):
            cut = min(T, _survival_point(X, fracops._SPENT_LEVEL))
        assert len(levels) == len(scales)
        for f, nodes, values in levels:
            for u in nodes:
                res = integrate_singular_power(f, u, 1.0, upper=cut, breakpoints=X.breakpoints)
                assert abs(values[u] - res.value) <= max(1e-14 * abs(res.value), 1e-16), u

    def test_sweep_cuts_at_kinks_and_ends_at_cut(self):
        # a jump at 1.3 falls inside the gap from node 1 to node 2, and f
        # does not vanish past cut = 2.5, which no node marks
        f = lambda x: math.exp(-x) * (2.0 if x < 1.3 else 1.0)
        nodes = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
        values = fracops._swept(f, nodes, (1.3, 5.0), 2.5, "test")
        ramp = lambda u: math.exp(-u) - math.exp(-2.5)  # int_u^2.5 e^-x dx
        for u in nodes:
            exact = 0.0 if u >= 2.5 else ramp(u) + (ramp(u) - ramp(1.3) if u < 1.3 else 0.0)
            assert abs(values[u] - exact) <= 1e-14 * exact, u


class _Edges(Exception):
    pass


def _table_edges(monkeypatch, X):
    """(edges, edges without grading toward 0) of weyl_table(X, 0.5)."""
    panel_edges = fracops._panel_edges

    def stop(survival, *args):
        raise _Edges(panel_edges(survival, *args), panel_edges(lambda x: 1.0, *args))

    monkeypatch.setattr(fracops, "_panel_edges", stop)
    with pytest.raises(_Edges) as info:
        weyl_table(X, 0.5)
    return info.value.args


class TestPanelEdges:
    @pytest.mark.parametrize("k", [0.3, 1.5])
    def test_law_singular_at_0_keeps_six_graded_panels(self, monkeypatch, k):
        # x^k is not smooth at 0, so Fbar = e^(-x^k) fails the chop rule there
        edges, ungraded = _table_edges(monkeypatch, weibull(k, 1.0))
        first = ungraded[1]
        assert edges == sorted(ungraded + [first * 0.2 ** j for j in range(1, 7)])

    @pytest.mark.parametrize("make", [
        lambda: exponential(1.0), lambda: weibull(2.0, 1.0),
        lambda: numeric(TestWeylIntegral.KNOT_TABLE), lambda: uniform(0.0, 1.0)],
        ids=["Exp(1)", "Weibull(2,1)", "knot table", "Uniform(0,1)"])
    def test_law_smooth_at_0_gets_no_graded_panels(self, monkeypatch, make):
        edges, ungraded = _table_edges(monkeypatch, make())
        assert edges == ungraded


def _tabulate_traced(f, edges):
    """(table, per-panel degrees, calls) of fracops._tabulate on f."""
    calls = []
    table = fracops._tabulate(lambda x: calls.append(x) or f(x), edges)
    degrees = [sum(a < x < b for x in calls) + 1 for a, b in zip(edges, edges[1:])]
    return table, degrees, calls


class TestTabulate:
    def test_each_distinct_node_is_one_call(self):
        # singular on the first panel, constant past it
        edges = [0.0, 0.01, 0.1, 1.0, 2.0]
        _, degrees, calls = _tabulate_traced(lambda x: math.sqrt(min(x, 0.01)), edges)
        assert degrees == [24, 6, 6, 6]
        # a raised degree reuses the nodes it has, a shared edge is one node
        assert len(calls) == len(set(calls)) == len(edges) + sum(m - 1 for m in degrees)
        assert set(edges) <= set(calls)

    @pytest.mark.parametrize("coefs,degree", [
        ((1.0, -2.0, 0.5, -0.3), 6),
        ((1.0, -2.0, 0.5, -0.3, 0.1, -0.02, 0.003), 12)])
    def test_polynomial_is_reproduced_to_rounding(self, coefs, degree):
        # a cubic leaves the last three coefficients of degree 6 at
        # rounding and keeps 7 nodes; a degree-6 polynomial does not, since
        # its coefficient 6 is no noise, and settles at degree 12
        p = lambda x: sum(c * x ** k for k, c in enumerate(coefs))
        edges = [0.0, 0.5, 1.5, 3.0]
        table, degrees, _ = _tabulate_traced(p, edges)
        assert degrees == [degree] * 3
        xs = linspace(0.0, 3.0, 997)
        scale = max(abs(p(x)) for x in xs)
        assert max(abs(table(x) - p(x)) for x in xs) <= 1e-14 * scale

    def test_clenshaw_matches_the_barycentric_form(self):
        # the reference is the barycentric formula on each panel's own nodes,
        # weights (-1)^j halved at both ends (Berrut & Trefethen, SIAM Review
        # 46:501, 2004), which reads back the same polynomial another way
        f = lambda x: math.exp(-x) + math.sqrt(min(x, 0.01))
        edges = [0.0, 0.01, 0.1, 1.0, 2.0, 4.0]
        table, degrees, calls = _tabulate_traced(f, edges)
        assert degrees == [24, 12, 12, 24, 24]

        def barycentric(x):
            a, b = next((a, b) for a, b in zip(edges, edges[1:]) if x <= b)
            nodes = [a] + sorted(c for c in calls if a < c < b) + [b]
            m = len(nodes) - 1
            num = den = 0.0
            for j, xj in enumerate(nodes):
                if x == xj:
                    return f(xj)
                r = (1.0 if 0 < j < m else 0.5) * (-1.0) ** j / (x - xj)
                num += r * f(xj)
                den += r
            return num / den

        xs = linspace(0.0, 4.0, 1999)
        scale = max(abs(f(x)) for x in xs)
        assert max(abs(table(x) - barycentric(x)) for x in xs) <= 1e-14 * scale

    def test_panels_graded_toward_a_support_end_keep_degree_24(self):
        # I^0.5[(1-x)_+](t) = (1-t)_+^1.5 / Gamma(2.5) is singular at 1
        X = uniform(0.0, 1.0)
        edges = fracops._panel_edges(X.survival, X.breakpoints, X.support_upper, None)
        exact = lambda t: (1.0 - t) ** 1.5 / math.gamma(2.5)
        table, degrees, _ = _tabulate_traced(exact, edges)
        graded = [m for a, m in zip(edges, degrees) if a >= 0.5]
        assert len(graded) == 7 and set(graded) == {24}
        assert edges[:2] == [0.0, 0.5]  # a linear survival needs no grading toward 0
        assert max(abs(table(t) - exact(t)) for t in linspace(0.0, 1.0, 4001)) <= 1e-9


def test_power_expectation_against_exponential_moments():
    X = exponential(1.0)
    g = PowerSum.from_terms([(2.0, -0.5), (1.0, 1.0)])
    value = power_expectation(g, X.density_ac, breakpoints=X.breakpoints)
    expected = 2.0 * math.gamma(0.5) + 1.0
    assert rel_diff(value, expected) < 1e-8
    with pytest.raises(DivergenceError):
        power_expectation(PowerSum.power(-1.2), X.density_ac, breakpoints=())
