"""Fractional equilibrium distributions and their verification machinery.

Numerical companions to the fractional probabilistic Taylor and mean
value identities: a distribution catalog with fractional and upper
partial moments, the Weyl integral of survival functions, exact
Riemann-Liouville/Caputo derivatives on a power-sum test family, the
n-th order fractional equilibrium transform, survival bounded
stochastic orders, and actuarial deductible checks, with every identity
verifiable against an independent quadrature oracle.
"""

__version__ = "0.1.0"

from .distributions import (DistributionModel, build, deductible, exponential,
                            fractional_moment, hyperexp2, numeric, quantile,
                            uniform, upper_partial_moment, weibull,
                            zero_inflated)
from .equilibrium import (CharacterizationReport, EquilibriumView,
                          characterization_check, eq_density, eq_moment,
                          eq_survival, eq_survival_recursive,
                          first_order_cdf_interpretation)
from .errors import DivergenceError, FraceqError, InvalidParameterError
from .fracops import (PowerSum, power_caputo_derivative, power_rl_derivative,
                      weyl_integral)
from .numerics import (IntegralResult, QuadratureConfig, beta, gamma,
                       integrate_interval, integrate_semi_infinite,
                       integrate_singular_power, reciprocal_gamma)
from .order_mvt import (MeanLocationReport, MvtReport, OrderCheckResult,
                        ZAlphaModel, alpha_survival_transform,
                        check_survival_bounded_order, classify_mean_location,
                        fractional_variance, mvt_verify, normalized_moment,
                        z_alpha_model, z_density, z_mixture_identity, z_moment)
from .taylor import (TaylorReport, caputo_taylor_expectation,
                     fractional_moment_identity, rl_taylor_coefficient,
                     rl_taylor_expectation)
from .actuarial import deductible_mvt, exponential_ratio_check
