import math

import pytest

from conftest import rel_diff
from fraceq.actuarial import deductible_mvt, exponential_ratio_check
from fraceq.distributions import (DistributionModel, deductible, exponential, hyperexp2,
                                  uniform)
from fraceq.errors import DivergenceError, InvalidParameterError
from fraceq.fracops import PowerSum
from fraceq.numerics import linspace
from fraceq.order_mvt import normalized_moment, z_density


class TestDeductibleModel:
    def test_exponential(self):
        X = deductible(1.0, exponential(1.0))
        assert abs((1.0 - X.survival(0.0)) - (1.0 - math.exp(-1.0))) < 1e-12
        assert abs(X.survival(0.5) - math.exp(-1.5)) < 1e-15

    def test_uniform(self):
        X = deductible(0.5, uniform(0.0, 1.0))
        assert abs((1.0 - X.survival(0.0)) - 0.5) < 1e-12
        assert X.support_upper == 0.5

    def test_zero_deductible_rejected(self):
        with pytest.raises(InvalidParameterError):
            deductible(0.0, exponential(1.0))


class TestDeductibleMvt:
    def test_linear_g_exponential(self):
        report, = deductible_mvt([PowerSum.power(1.0)], exponential(1.0),
                                0.5, 1.0, 1.0)
        expected = math.exp(-0.5) - math.exp(-1.0)  # 0.2386512...
        assert abs(report.lhs - expected) < 1e-12
        assert abs(report.residual) < 1e-7

    def test_hyperexponential_square(self):
        report, = deductible_mvt([PowerSum.power(2.0)], hyperexp2(0.4, 1.0, 3.0),
                                0.2, 0.8, 1.0)
        assert abs(report.residual) < 1e-5

    def test_fractional_alpha(self):
        report, = deductible_mvt([PowerSum.power(0.5)], exponential(1.0),
                                0.5, 1.0, 0.5)
        assert abs(report.residual) < 1e-5

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError):
            deductible_mvt([PowerSum.power(1.0)], exponential(1.0), 1.0, 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            deductible_mvt([PowerSum.power(1.0)], uniform(0.0, 1.0), 0.5, 1.5, 1.0)
        # g ~ x^(alpha-1) near zero violates the corollary hypothesis
        with pytest.raises(InvalidParameterError):
            deductible_mvt([PowerSum.power(-0.5)], exponential(1.0), 0.5, 1.0, 0.5)

    def test_bare_power_sum_is_a_usage_error(self):
        # gs is a sequence of g's; a PowerSum is a tuple too, of its fields
        with pytest.raises(InvalidParameterError, match=r"pass \[g\]"):
            deductible_mvt(PowerSum.power(1.0), exponential(1.0), 0.5, 1.0, 1.0)


@pytest.mark.parametrize("r,s,alpha", [(0.5, 1.0, 1.0), (0.3, 0.9, 0.5),
                                       (0.25, 2.0, 0.8)])
def test_deductible_z_is_exponential(r, s, alpha):
    # Z in the deductible identity keeps the severity's rate, whatever
    # (r, s, alpha) are
    lam = 1.0
    report, = deductible_mvt([PowerSum.power(1.0)], exponential(lam), r, s, alpha)
    for t in linspace(0.0, 6.0, 20):
        assert abs(z_density(report.z, float(t))
                   - lam * math.exp(-lam * float(t))) < 1e-8


def test_normalized_moment_closed_vs_quadrature():
    lam, d = 1.0, 0.7
    X = deductible(d, exponential(lam))
    bare = DistributionModel(X.label, X.survival, X.support_upper,
                             negative_partial=X.negative_partial, density_ac=X.density_ac,
                             breakpoints=X.breakpoints)
    for alpha in (0.5, 1.0, 1.5):
        expected = math.exp(-lam * d) * lam ** -alpha
        assert rel_diff(normalized_moment(X, alpha), expected) < 1e-12
        assert rel_diff(normalized_moment(bare, alpha), expected) < 1e-10


class TestRatioCheck:
    def test_reference_and_spread(self):
        lam = 1.0
        check = exponential_ratio_check(lam, 0.5, 1.0, 1.0, 2.0,
                                        [PowerSum.power(1.0), PowerSum.power(2.0)],
                                        1.0)
        expected = ((math.exp(-0.5) - math.exp(-1.0))
                    / (math.exp(-1.0) - math.exp(-2.0)))  # 1.0262603...
        assert abs(check.reference_ratio - expected) < 1e-15
        assert check.max_spread < 1e-6

    def test_identical_pairs_give_unit_ratios(self):
        check = exponential_ratio_check(2.0, 0.5, 1.0, 0.5, 1.0,
                                        [PowerSum.power(1.0), PowerSum.power(2.0),
                                         PowerSum.power(0.5)], 1.0)
        assert all(abs(rho - 1.0) < 1e-12 for rho in check.ratios)

    def test_fractional_g(self):
        check = exponential_ratio_check(1.0, 0.5, 1.0, 1.0, 2.0,
                                        [PowerSum.power(0.5)], 0.5)
        assert check.max_spread < 1e-5

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            exponential_ratio_check(0.0, 0.5, 1.0, 1.0, 2.0,
                                    [PowerSum.power(1.0)], 1.0)
        with pytest.raises(InvalidParameterError):
            exponential_ratio_check(1.0, 1.0, 0.5, 1.0, 2.0,
                                    [PowerSum.power(1.0)], 1.0)

    def test_underflowing_reference_denominator(self):
        # e^(-1000) and e^(-2000) both underflow to 0, so the closed-form
        # ratio has no denominator: a usage error, not a ZeroDivisionError
        with pytest.raises(InvalidParameterError, match="lam=1000"):
            exponential_ratio_check(1000.0, 1e-4, 2e-4, 1.0, 2.0,
                                    [PowerSum.power(1.0)], 1.0)


    def test_overflowing_ratios(self):
        # e^(-720) is subnormal, so the reference's denominator keeps about
        # 35 bits and every ratio overflows: |inf - inf| would be a NaN
        # spread that max drops
        with pytest.raises(DivergenceError, match="overflow"):
            exponential_ratio_check(1000.0, 1e-4, 2e-4, 0.72, 0.73,
                                    [PowerSum.power(1.0), PowerSum.power(2.0)], 1.0)


@pytest.mark.parametrize("exp", [-0.4, -1e-6])
def test_negative_exponents_rejected(exp):
    # a payment has an atom at 0, so E[X_d^b] diverges for every b < 0,
    # even where b > alpha - 1 would satisfy the corollary
    g = PowerSum.from_terms([(1.0, exp), (1.0, 1.0)])
    with pytest.raises(InvalidParameterError):
        deductible_mvt([g], exponential(1.0), 0.5, 1.0, 0.5)
    with pytest.raises(InvalidParameterError):
        exponential_ratio_check(1.0, 0.5, 1.0, 1.0, 2.0, [g], 0.5)


def test_hyperexponential_z_density_display():
    # mixture-of-exponentials form of the Z density for a two-phase severity
    p, l1, l2 = 0.4, 1.0, 3.0
    r, s, alpha = 0.2, 0.8, 1.0
    report, = deductible_mvt([PowerSum.power(1.0)], hyperexp2(p, l1, l2), r, s, alpha)

    def display(z):
        w1 = p * l1 ** -alpha * (math.exp(-l1 * r) - math.exp(-l1 * s))
        w2 = (1.0 - p) * l2 ** -alpha * (math.exp(-l2 * r) - math.exp(-l2 * s))
        n1 = p * l1 ** (1.0 - alpha) * math.exp(-l1 * z) \
            * (math.exp(-l1 * r) - math.exp(-l1 * s))
        n2 = (1.0 - p) * l2 ** (1.0 - alpha) * math.exp(-l2 * z) \
            * (math.exp(-l2 * r) - math.exp(-l2 * s))
        return (n1 + n2) / (w1 + w2)

    for t in linspace(0.0, 4.0, 15):
        assert abs(z_density(report.z, float(t)) - display(float(t))) < 1e-7
