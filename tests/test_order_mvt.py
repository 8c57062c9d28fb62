import math

import pytest

from conftest import rel_diff
from fraceq.distributions import (exponential, fractional_moment,
                                  deductible, uniform, zero_inflated)
from fraceq.equilibrium import EquilibriumView, eq_density
from fraceq.errors import DivergenceError, InvalidParameterError
from fraceq.fracops import PowerSum, power_expectation
from fraceq.numerics import integrate_semi_infinite, linspace
from fraceq.order_mvt import (alpha_survival_transform,
                              check_survival_bounded_order,
                              classify_mean_location, default_order_grid,
                              fractional_variance,
                              mvt_verify, normalized_moment, z_alpha_model,
                              z_density, z_mixture_identity, z_moment)

SQRT_PI = math.sqrt(math.pi)


def exp_mean(mu):
    return exponential(1.0 / mu)


class TestAlphaSurvivalTransform:
    def test_exponential_closed_form(self):
        # mu^(alpha-1) e^(-t/mu) for an exponential with mean mu
        X = exp_mean(2.0)
        assert abs(alpha_survival_transform(X, 2.0, 0.0) - 2.0) < 1e-12
        for alpha, t in ((1.5, 0.7), (0.5, 1.2)):
            expected = 2.0 ** (alpha - 1.0) * math.exp(-t / 2.0)
            assert abs(alpha_survival_transform(X, alpha, t) - expected) < 1e-12

    def test_alpha_one_is_survival(self, catalog):
        for model in catalog.values():
            for t in (0.0, 0.5, 2.0):
                assert alpha_survival_transform(model, 1.0, t) \
                    == pytest.approx(model.survival(t), abs=1e-14)

    def test_zero_beyond_support(self):
        U = uniform(0.0, 1.0)
        assert alpha_survival_transform(U, 2.0, 1.0) == 0.0
        assert alpha_survival_transform(U, 0.5, 1.3) == 0.0


class TestOrderCheck:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_exponential_pair_holds(self, alpha):
        res = check_survival_bounded_order(exp_mean(1.0), exp_mean(2.0), alpha)
        assert res.holds

    def test_exponential_pair_fails_below_one(self):
        res = check_survival_bounded_order(exp_mean(1.0), exp_mean(2.0), 0.5)
        assert not res.holds
        assert res.worst_t == 0.0
        # gap at zero is 1 - 2^(-1/2)
        assert abs(res.worst_gap - (1.0 - 2.0 ** -0.5)) < 1e-12

    def test_alpha_two_matches_increasing_convex_on_exponentials(self):
        # stop-loss transforms order by the mean
        assert check_survival_bounded_order(exp_mean(1.0), exp_mean(2.0), 2.0).holds
        assert not check_survival_bounded_order(exp_mean(2.0), exp_mean(1.0), 2.0).holds

    def test_default_grid_for_deep_deductibles(self):
        # X_8 and X_9 of Exp(1) keep all but e^-8 of their mass at 0, so both
        # 0.999-quantiles are 0; the grid then spans the mass above 0, whose
        # 1 - 1e-3 e^-8 quantile is ln(1000) for X_8
        X = deductible(8.0, exponential(1.0))
        Y = deductible(9.0, exponential(1.0))
        grid = default_order_grid(X, Y)
        assert len(grid) == 64 and grid[0] == 0.0 and grid[1] > 0.0
        assert rel_diff(grid[-1], 2.0 * math.log(1000.0)) < 1e-9

    def test_zero_inflated_dominates_inner_for_all_alpha(self):
        X = zero_inflated(0.3, exponential(1.0))
        Y = exponential(1.0)
        for alpha in (0.3, 0.8, 1.0, 2.0):
            assert check_survival_bounded_order(X, Y, alpha).holds

    def test_grid_values_are_the_transforms_and_inputs_are_checked(self):
        X, Y = zero_inflated(0.3, exponential(1.0)), exponential(1.0)
        for alpha in (0.3, 1.0, 2.0):
            for t, fx, fy, _ in check_survival_bounded_order(X, Y, alpha).points:
                assert fx == alpha_survival_transform(X, alpha, t)
                assert fy == alpha_survival_transform(Y, alpha, t)
        with pytest.raises(InvalidParameterError):
            check_survival_bounded_order(X, Y, 0.0)
        with pytest.raises(InvalidParameterError):
            check_survival_bounded_order(X, Y, 0.5, grid=[0.0, -1.0])


class TestZAlpha:
    def test_density_value_at_zero(self):
        # (mu_Y^(a-1) - mu_X^(a-1)) / (mu_Y^a - mu_X^a) with means 1 and 2
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.5)
        expected = (math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0) - 1.0)
        assert abs(z_density(z, 0.0) - expected) < 1e-12  # ~0.2265

    def test_density_matches_exponential_closed_form(self):
        # (mu_Y^(a-1) e^(-t/mu_Y) - mu_X^(a-1) e^(-t/mu_X)) / (mu_Y^a - mu_X^a)
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.5)
        for t in (0.0, 0.5, 1.7):
            display = ((2.0 ** 0.5 * math.exp(-t / 2.0) - math.exp(-t))
                       / (2.0 ** 1.5 - 1.0))
            assert abs(z_density(z, t) - display) < 1e-12

    def test_density_integrates_to_one_when_ordered(self):
        for X, Y, alpha in ((exp_mean(1.0), exp_mean(2.0), 1.0),
                            (exp_mean(1.0), exp_mean(2.0), 1.5),
                            (zero_inflated(0.3, exponential(1.0)),
                             exponential(1.0), 0.5)):
            z = z_alpha_model(X, Y, alpha)
            assert z.verified
            res = integrate_semi_infinite(lambda t: z_density(z, t), 0.0)
            assert abs(res.value - 1.0) < 1e-7

    def test_zero_inflated_pair_collapses_to_equilibrium_density(self):
        Y = exponential(1.0)
        X = zero_inflated(0.3, exponential(1.0))
        z = z_alpha_model(X, Y, 1.0)
        view = EquilibriumView(Y, 1.0, 1)
        for t in (0.0, 0.3, 1.5):
            assert abs(z_density(z, t) - eq_density(view, t)) < 1e-12

    def test_requires_strict_moment_ordering(self):
        X = exp_mean(1.0)
        with pytest.raises(InvalidParameterError):
            z_alpha_model(X, X, 1.0)

    def test_order_violation_raised_and_waivable(self):
        with pytest.raises(InvalidParameterError):
            z_alpha_model(exp_mean(1.0), exp_mean(2.0), 0.5)
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 0.5, require_order=False)
        assert not z.verified
        assert z_density(z, 0.0) < 0.0  # goes negative where the order fails


class TestMixture:
    def test_identity_pointwise(self):
        cases = [(exp_mean(1.0), exp_mean(2.0), 1.0),
                 (exp_mean(1.0), exp_mean(2.0), 1.5),
                 (zero_inflated(0.3, exponential(1.0)),
                  exponential(1.0), 0.5)]
        for X, Y, alpha in cases:
            z = z_alpha_model(X, Y, alpha)
            for t in linspace(0.0, 5.0, 30):
                lhs, rhs = z_mixture_identity(z, float(t))
                assert abs(lhs - rhs) < 1e-10

    def test_coefficient_exponential_pair(self):
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.0)
        assert z.mix_c == 2.0

    def test_coefficient_at_least_one(self):
        for X, Y, alpha in ((exp_mean(1.0), exp_mean(2.0), 1.5),
                            (zero_inflated(0.3, exponential(1.0)),
                             exponential(1.0), 1.0)):
            assert z_alpha_model(X, Y, alpha).mix_c >= 1.0


class TestZMoment:
    def test_exponential_pair_mean(self):
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.0)
        # (E[Y^2] - E[X^2]) / (2 (E[Y] - E[X])) = (8 - 2) / 2
        assert abs(z_moment(z, 1.0) - 3.0) < 1e-12

    def test_fractional_alpha_mean(self):
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.5)
        expected = (2.0 ** 2.5 - 1.0) / (2.0 ** 1.5 - 1.0)  # 2.5469181...
        assert abs(z_moment(z, 1.0) - expected) < 1e-12

    def test_against_bruteforce(self):
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.5)
        for r in (0.5, 1.0, 2.0):
            brute = power_expectation(PowerSum.power(r),
                                      lambda t: z_density(z, t), breakpoints=())
            assert rel_diff(z_moment(z, r), brute) < 1e-5


class TestNormalizedMomentAndVariance:
    def test_normalized_moment(self):
        X = exponential(1.0)
        assert abs(normalized_moment(X, 0.5) - 1.0) < 1e-14
        assert abs(normalized_moment(X, 1.0) - fractional_moment(X, 1.0)) < 1e-14

    def test_normalized_moment_of_deductible(self):
        # e^(-lam d) lam^(-alpha) for an exponential severity
        lam, d = 2.0, 0.7
        X = deductible(d, exponential(lam))
        for alpha in (0.5, 1.0, 1.3):
            expected = math.exp(-lam * d) * lam ** -alpha
            assert rel_diff(normalized_moment(X, alpha), expected) < 1e-12

    def test_fractional_variance_reduces_to_variance(self):
        assert abs(fractional_variance(exponential(1.0), 1.0) - 1.0) < 1e-12
        assert abs(fractional_variance(exp_mean(2.0), 1.0) - 4.0) < 1e-12

    def test_fractional_variance_half(self):
        # Gamma(5/2) - Gamma(3/2)^2 / 2 = 3 sqrt(pi)/4 - pi/8
        expected = 0.75 * SQRT_PI - math.pi / 8.0
        assert abs(fractional_variance(exponential(1.0), 0.5)
                   - expected) < 1e-12


class TestMeanLocation:
    def test_exponential_pair_is_case_iii(self):
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), 1.0)
        report = classify_mean_location(z)
        assert report.case == "above_Y"
        assert abs(report.e_z - 3.0) < 1e-12
        # V gap 3 against the upper threshold (2-1)(2-1) = 1
        assert abs(report.variance_gap - 3.0) < 1e-12
        assert abs(report.threshold_high - 1.0) < 1e-12
        assert report.variance_gap >= report.threshold_high

    @pytest.mark.parametrize("alpha,ordered", [(1.0, True), (0.5, False)])
    def test_identity_residual(self, alpha, ordered):
        z = z_alpha_model(exp_mean(1.0), exp_mean(2.0), alpha,
                          require_order=ordered)
        assert abs(classify_mean_location(z).identity_residual) < 1e-12

    def test_equal_variance_pair_is_balanced(self):
        # Exp with mean 1/sqrt(12) has variance 1/12, same as Uniform(0,1)
        X = exp_mean(1.0 / math.sqrt(12.0))
        Y = uniform(0.0, 1.0)
        z = z_alpha_model(X, Y, 1.0, require_order=False)
        report = classify_mean_location(z)
        assert report.balanced_variance_residual < 1e-12
        assert report.balanced_mean_residual < 1e-12

    def test_unordered_pair_below_x(self):
        # E[X] = 1 < E[Y] = 1.05, but Uniform(1, 1.1) is far less variable,
        # so the waived Z's density goes negative and E[Z] falls below E[X]
        z = z_alpha_model(exponential(1.0), uniform(1.0, 1.1), 1.0,
                          require_order=False)
        report = classify_mean_location(z)
        assert report.case == "below_X"
        assert report.e_z < report.e_x_alpha
        assert abs(report.identity_residual) <= 1e-9


class TestMvt:
    def test_square_exponential_pair(self):
        report = mvt_verify(PowerSum.power(2.0), exp_mean(1.0), exp_mean(2.0), 1.0)
        assert abs(report.lhs - 6.0) < 1e-12
        assert report.term_c0 == 0.0
        assert abs(report.term_main - 6.0) < 1e-7
        assert abs(report.residual) < 1e-7

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_annihilated_g_leaves_only_the_c0_term(self, alpha):
        g = PowerSum.power(alpha - 1.0)
        report = mvt_verify(g, exp_mean(1.0), exp_mean(2.0), alpha)
        assert report.term_main == 0.0
        assert abs(report.residual) < 1e-10

    def test_waived_order_case(self):
        # the exponential pair is unordered at alpha = 0.9 (the transform
        # gap at t = 0 is 1 - 2^(-0.1) > 0), yet the identity is algebraic
        with pytest.raises(InvalidParameterError):
            mvt_verify(PowerSum.power(1.2), exp_mean(1.0), exp_mean(2.0), 0.9)
        report = mvt_verify(PowerSum.power(1.2), exp_mean(1.0), exp_mean(2.0),
                            0.9, require_order=False)
        assert report.c0 == 0.0
        assert abs(report.residual) < 1e-5

    def test_family_grid(self):
        pairs = [(exp_mean(1.0), exp_mean(2.0), (1.0, 1.5)),
                 (zero_inflated(0.3, exponential(1.0)),
                  exponential(1.0), (0.5, 1.0))]
        checked = 0
        for X, Y, alphas in pairs:
            for alpha in alphas:
                gs = [PowerSum.power(alpha - 1.0), PowerSum.power(1.0),
                      PowerSum.power(2.0),
                      PowerSum.from_terms([(1.0, 0.5), (3.0, 1.0)])]
                for g in gs:
                    try:
                        report = mvt_verify(g, X, Y, alpha)
                    except DivergenceError:
                        continue  # negative moment against an atom at zero
                    checked += 1
                    assert abs(report.residual) < 1e-5, (g.describe(), alpha)
        assert checked >= 14

    def test_g_below_admissible_range_rejected(self):
        # an exponent below alpha - 1 breaks a hypothesis of the identity
        with pytest.raises(InvalidParameterError):
            mvt_verify(PowerSum.power(-0.8), exp_mean(1.0), exp_mean(2.0), 0.5,
                       require_order=False)
