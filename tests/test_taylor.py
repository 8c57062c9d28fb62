import math

import pytest

from conftest import rel_diff
from kronrod_panels import counting_panels
from fraceq.distributions import exponential, fractional_moment, uniform
from fraceq.equilibrium import EquilibriumView, eq_density_fn
from fraceq.errors import DivergenceError, InvalidParameterError
from fraceq.fracops import PowerSum, power_expectation, power_rl_derivative
from fraceq.numerics import gamma
from fraceq.taylor import (caputo_taylor_expectation,
                           fractional_moment_identity, rl_taylor_coefficient,
                           rl_taylor_expectation)

SQRT_PI = math.sqrt(math.pi)


class TestCoefficients:
    def test_critical_power_gives_gamma_alpha(self):
        assert abs(rl_taylor_coefficient(PowerSum.power(-0.5), 0, 0.5)
                   - SQRT_PI) < 1e-13

    def test_zero_for_higher_powers(self):
        # beta = 1.2, alpha = 0.5: exponents never hit alpha - 1
        g = PowerSum.power(1.2)
        for j in range(4):
            assert rl_taylor_coefficient(g, j, 0.5) == 0.0

    def test_linear_g_at_alpha_one(self):
        assert rl_taylor_coefficient(PowerSum.power(1.0), 0, 1.0) == 0.0

    def test_divergent_limit_rejected(self):
        # after four half-order derivatives x^1.2 sits below x^(alpha-1)
        with pytest.raises(DivergenceError):
            rl_taylor_coefficient(PowerSum.power(1.2), 4, 0.5)


class TestRlExpectation:
    def test_mean_of_exponential_all_in_remainder(self):
        report = rl_taylor_expectation(PowerSum.power(1.0),
                                       exponential(1.0), 0.5, 0)
        assert abs(report.lhs - 1.0) < 1e-12
        assert report.terms == (0.0,)
        assert abs(report.remainder - 1.0) < 1e-9
        assert abs(report.residual) < 1e-9

    def test_annihilated_g_all_in_series(self):
        X = exponential(1.0)
        report = rl_taylor_expectation(PowerSum.power(-0.5, coef=2.0), X, 0.5, 0)
        assert report.remainder == 0.0
        assert abs(report.terms[0] - 2.0 * gamma(0.5)) < 1e-12
        assert abs(report.residual) < 1e-12

    def test_square_on_uniform_at_alpha_one(self):
        report = rl_taylor_expectation(PowerSum.power(2.0),
                                       uniform(0.0, 1.0), 1.0, 1)
        assert abs(report.lhs - 1.0 / 3.0) < 1e-14
        assert abs(report.residual) < 1e-7

    def test_order_zero_remark_assembled_independently(self):
        # c0/Gamma(a) E[X^(a-1)] + E[X^a]/Gamma(a+1) E[D^a g(X_a^(1))]
        X = exponential(1.0)
        alpha = 0.5
        g = PowerSum.from_terms([(1.0, -0.5), (1.0, 1.0)])
        report = rl_taylor_expectation(g, X, alpha, 0)
        c0 = gamma(alpha) * 1.0
        series = c0 / gamma(alpha) * fractional_moment(X, alpha - 1.0)
        view = EquilibriumView(X, alpha, 1)
        dg = power_rl_derivative(g, 1, alpha)
        inner = power_expectation(dg, eq_density_fn(view), breakpoints=X.breakpoints)
        remark = series + fractional_moment(X, alpha) / gamma(alpha + 1.0) * inner
        assert abs(report.lhs - remark) < 1e-8
        assert abs((sum(report.terms) + report.remainder) - remark) < 1e-10

    def test_residual_stable_as_order_grows(self):
        X = exponential(1.0)
        residuals = [abs(rl_taylor_expectation(PowerSum.power(2.0), X, 0.5, n).residual)
                     for n in (0, 1, 2)]
        assert all(r < 1e-6 for r in residuals)
        assert max(residuals) - min(residuals) < 1e-6

    def test_inadmissible_order_rejected_by_coefficient_limit(self):
        # D^(2a) x with a = 0.75 is x^-0.5, below a - 1 = -0.25, so c_2
        # diverges before the remainder D^(3a) x (exponent -1.25) is formed
        with pytest.raises(DivergenceError):
            rl_taylor_expectation(PowerSum.power(1.0),
                                  exponential(1.0), 0.75, 2)

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            rl_taylor_expectation(PowerSum.power(1.0),
                                  exponential(1.0), 1.5, 0)


GRID_DISTS = [("Exp(1)", exponential(1.0)), ("Uniform(0,1)", uniform(0.0, 1.0))]


@pytest.mark.parametrize("label,spec", GRID_DISTS)
@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_rl_residual_grid(label, spec, alpha, n):
    X = spec
    gs = [PowerSum.power(1.0), PowerSum.power(2.0), PowerSum.power(0.5),
          PowerSum.from_terms([(1.0, alpha - 1.0), (1.0, 2.0 * alpha)])]
    for g in gs:
        try:
            report = rl_taylor_expectation(g, X, alpha, n)
        except DivergenceError:
            continue
        assert abs(report.residual) < 1e-5, (label, g.describe(), alpha, n)


class TestMomentIdentity:
    def test_gamma_cancellation_is_exactly_one(self):
        lhs, rhs = fractional_moment_identity(1.0, exponential(1.0), 0.5, 0)
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 1.0) < 1e-8

    def test_second_moment_exponential(self):
        lhs, rhs = fractional_moment_identity(2.0, exponential(1.0), 1.0, 1)
        assert abs(lhs - 2.0) < 1e-12
        assert rel_diff(lhs, rhs) < 1e-8

    def test_uniform_fractional(self):
        lhs, rhs = fractional_moment_identity(1.5, uniform(0.0, 1.0), 0.5, 1)
        assert abs(lhs - 0.4) < 1e-14
        assert rel_diff(lhs, rhs) < 1e-6

    def test_fractional_residual_exponent(self):
        # beta - (n+1) alpha = 0.3: the equilibrium moment of a fractional order
        lhs, rhs = fractional_moment_identity(1.3, exponential(1.0), 0.5, 1)
        assert rel_diff(lhs, rhs) < 1e-6

    def test_preconditions(self):
        X = exponential(1.0)
        with pytest.raises(InvalidParameterError):
            fractional_moment_identity(0.3, X, 0.5, 0)  # beta < alpha
        with pytest.raises(InvalidParameterError):
            fractional_moment_identity(1.0, X, 0.5, 3)  # n too large


class TestKinkedUniform:
    # the benchmark's fixed taylor sentinels: the equilibrium density of
    # Uniform(0.017, 0.81) has a kink at a = 0.017, which the remainder's
    # quadrature cuts at; integrated across it, the residuals were 2.1e-7
    # (RL) and 1.3e-7 (Caputo)
    X = uniform(0.017, 0.81)

    def test_rl(self):
        g = PowerSum.from_terms([(1.21, 1.0), (2.67, 2.0)])
        assert abs(rl_taylor_expectation(g, self.X, 0.5, 1).residual) <= 1e-12

    def test_caputo(self):
        g = PowerSum.from_terms([(1.0, 1.0), (1.0, 2.0)])
        assert abs(caputo_taylor_expectation(g, self.X, 0.5, 1).residual) <= 1e-12


def test_remainder_maps_the_piece_left_of_the_support_end():
    # at n = 0 and a = 1/2 the remainder's density is A + B (1 - z)^(1/2)
    # left of 1, so that piece is integrated in w = (1 - z)^(1/2); in z,
    # x^0.5's residual was 6.4e-12 after 28 panels
    with counting_panels() as panels:
        report = rl_taylor_expectation(PowerSum.power(0.5), uniform(0.0, 1.0), 0.5, 0)
    assert abs(report.residual) <= 1e-14
    assert panels.total() <= 2


class TestCaputoExpectation:
    def test_power_two_alpha(self):
        # g = x^(2a) with a = 0.4: both series terms vanish and the
        # remainder collapses to E[X^0.8] by Gamma cancellation
        X = exponential(1.0)
        report = caputo_taylor_expectation(PowerSum.power(0.8), X, 0.4, 1)
        assert report.terms == (0.0, 0.0)
        assert rel_diff(report.remainder, fractional_moment(X, 0.8)) < 1e-8
        assert abs(report.residual) < 1e-8

    def test_constant_is_its_own_expansion(self, catalog):
        for model in (catalog["exp1"], catalog["uniform01"]):
            report = caputo_taylor_expectation(PowerSum.constant(5.0), model, 0.7, 0)
            assert report.terms == (5.0,)
            assert report.remainder == 0.0
            assert report.residual == 0.0

    def test_classical_second_order(self):
        g = PowerSum.from_terms([(1.0, 2.0), (1.0, 1.0)])
        report = caputo_taylor_expectation(g, exponential(1.0), 1.0, 1)
        assert abs(report.lhs - 3.0) < 1e-12
        assert abs(report.residual) < 1e-7

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            caputo_taylor_expectation(PowerSum.power(-0.5),
                                      exponential(1.0), 0.5, 0)

    @pytest.mark.parametrize("label,spec", GRID_DISTS)
    def test_alpha_one_agrees_with_rl(self, label, spec):
        X = spec
        g = PowerSum.from_terms([(1.0, 2.0), (1.0, 1.0)])
        for n in (0, 1):
            rl = rl_taylor_expectation(g, X, 1.0, n)
            cap = caputo_taylor_expectation(g, X, 1.0, n)
            assert abs(rl.rhs - cap.rhs) < 1e-7, (label, n)
            assert abs(rl.lhs - cap.lhs) < 1e-14
