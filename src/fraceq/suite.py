"""Verification campaigns: every identity checked two independent ways.

Each criterion function returns CheckOutcome rows; ``run_all`` drives the
whole battery.  The criteria and every CLI command build their rows with
the same builders, so each gate is defined exactly once: ``outcome`` (the
``|residual| <= tol`` rule), ``identity_row`` (a report's lhs, rhs and
residual), ``info_row`` (an always-passing value) and
``direct_vs_recursive`` (equilibrium survival against its recursion).
"""

from __future__ import annotations

import math

from . import actuarial, distributions, equilibrium, fracops, order_mvt, taylor
from .distributions import exponential, hyperexp2, uniform, weibull, zero_inflated
from .errors import DivergenceError
from .fracops import PowerSum
from .numerics import (gamma, integrate_semi_infinite, integrate_singular_power,
                       linspace)

__all__ = ["CheckOutcome", "run_all", "CRITERIA", "outcome", "identity_row",
           "info_row", "direct_vs_recursive"]


class CheckOutcome:
    """One report row; a nonfinite lhs, rhs or residual is a numerical failure."""

    # not a NamedTuple: the constructor checks its arguments
    __slots__ = ("check", "params", "lhs", "rhs", "residual", "tolerance", "passed")
    check: str
    params: dict
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool

    def __init__(self, check: str, params: dict, lhs: float, rhs: float,
                 residual: float, tolerance: float, passed: bool) -> None:
        values = (lhs, rhs, residual)
        if not all(math.isfinite(v) for v in values):
            raise FloatingPointError(f"check {check} {params} "
                                     f"has a nonfinite lhs/rhs/residual {values}")
        self.check = check
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self.tolerance = tolerance
        self.passed = passed

    def to_json(self) -> dict:
        return {"check": self.check, "params": self.params,
                "lhs": self.lhs, "rhs": self.rhs, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed}


def outcome(check: str, params: dict, residual: float, tol: float,
            lhs: float = 0.0, rhs: float = 0.0) -> CheckOutcome:
    """A row that passes when |residual| <= tol."""
    return CheckOutcome(check, params, lhs, rhs, residual, tol, abs(residual) <= tol)


def identity_row(check: str, params: dict, report, tol: float) -> CheckOutcome:
    """A row for any report with ``lhs``, ``rhs`` and ``residual``."""
    return outcome(check, params, report.residual, tol, lhs=report.lhs, rhs=report.rhs)


def info_row(check: str, params: dict, value: float, tol: float) -> CheckOutcome:
    """An informational row: it reports ``value`` and always passes."""
    return CheckOutcome(check, params, value, 0.0, value, tol, True)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / scale


def direct_vs_recursive(X: distributions.DistributionModel, alpha: float, n: int,
                        ts, tol: float, params: dict) -> tuple[CheckOutcome, list]:
    """Worst relative gap of eq_survival to its recursive definition over ts,
    and the grid points (t, direct, oracle, |direct - oracle|)."""
    view = equilibrium.EquilibriumView(X, alpha, n)
    worst = 0.0
    points = []
    for t, oracle in zip(ts, equilibrium.eq_survival_recursive(X, alpha, n, ts)):
        direct = equilibrium.eq_survival(view, t)
        worst = max(worst, _rel(direct, oracle))
        points.append((t, direct, oracle, abs(direct - oracle)))
    return outcome("equilibrium_direct_vs_recursive", params, worst, tol), points


def _exp_mean(mu: float):
    """Exponential with the given mean."""
    return exponential(1.0 / mu)


_NUMERIC_KNOTS = [(0.0, 1.0), (0.25, math.exp(-0.25)), (0.5, math.exp(-0.5)),
                  (1.0, math.exp(-1.0)), (1.5, math.exp(-1.5)),
                  (2.0, math.exp(-2.0)), (3.0, math.exp(-3.0)),
                  (4.0, math.exp(-4.0))]


def _catalog() -> list[distributions.DistributionModel]:
    return [
        exponential(1.0),
        uniform(0.0, 1.0),
        weibull(2.0, 1.0),
        hyperexp2(0.4, 1.0, 3.0),
        zero_inflated(0.3, exponential(1.0)),
        distributions.deductible(1.0, exponential(1.0)),
        distributions.numeric(_NUMERIC_KNOTS),
    ]


# ---------------------------------------------------------------------------
# criteria

def criterion_1_exponential_fixed_point() -> list[CheckOutcome]:
    """f_n^alpha of an exponential is the exponential density itself."""
    rows = []
    tol = 1e-7
    for lam in (0.5, 1.0, 3.0):
        report = equilibrium.characterization_check(
            exponential(lam), (0.3, 0.5, 0.9, 1.0), (1, 2, 3),
            linspace(0.0, 8.0 / lam, 30), tol)
        rows.append(outcome("exponential_fixed_point", {"lambda": lam},
                            report.max_deviation, tol))
    return rows


def criterion_2_characterization_negative() -> list[CheckOutcome]:
    """Non-exponential inputs must be detected as non-fixed-points."""
    rows = []
    for X, label in ((weibull(2.0, 1.0), "weibull(2,1)"),
                     (uniform(0.0, 1.0), "uniform(0,1)")):
        report = equilibrium.characterization_check(X, [1.0], [1], tol=1e-6)
        rows.append(CheckOutcome(
            "characterization_negative",
            {"distribution": label, "is_fixed_point": report.is_fixed_point,
             "witness": report.witness},
            lhs=report.max_deviation, rhs=0.05, residual=report.max_deviation,
            tolerance=0.05,
            passed=(not report.is_fixed_point) and report.max_deviation >= 0.05))
    return rows


def criterion_3_semigroup() -> list[CheckOutcome]:
    """Nested Weyl integrals agree with the single integral of summed order.

    The inner I^b Fbar is one fracops.weyl_table per (law, b).
    """
    rows = []
    tol = 1e-5
    cases = {"Exp(1)": (exponential(1.0), linspace(0.0, 3.0, 10)),
             "Uniform(0,1)": (uniform(0.0, 1.0), linspace(0.0, 0.9, 10))}
    for label, (X, grid) in cases.items():
        for a, b in ((0.5, 0.5), (0.3, 0.7), (1.0, 1.0)):
            inner, T = fracops.weyl_table(X, b)
            worst = 0.0
            for t in grid:
                nested = fracops.weyl_of_function(inner, a, float(t), upper=T)
                direct = fracops.weyl_integral(X, a + b, float(t))
                worst = max(worst, _rel(nested, direct))
            rows.append(outcome("weyl_semigroup", {"distribution": label,
                                                   "orders": [a, b]}, worst, tol))
    return rows


def criterion_4_recursive_equilibrium() -> list[CheckOutcome]:
    """Direct partial-moment survival equals the recursive definition."""
    rows = []
    tol = 1e-5
    cases = {"Exp(1)": (exponential(1.0), (0.0, 0.5, 1.0, 2.0, 3.0)),
             "Uniform(0,1)": (uniform(0.0, 1.0), (0.0, 0.2, 0.5, 0.7, 0.9))}
    for label, (X, grid) in cases.items():
        for n in (1, 2):
            for alpha in (0.5, 1.0):
                row, _ = direct_vs_recursive(
                    X, alpha, n, grid, tol,
                    {"distribution": label, "alpha": alpha, "n": n})
                rows.append(row)
    return rows


def criterion_5_equilibrium_moments() -> list[CheckOutcome]:
    """Closed equilibrium moments against brute-force density integrals."""
    rows = []
    for X in _catalog():
        for alpha, n in ((0.5, 1), (1.0, 1)):
            view = equilibrium.EquilibriumView(X, alpha, n)
            density = equilibrium.eq_density_fn(view)
            worst = 0.0
            for r in (0.5, 1.0, 2.0):
                closed = equilibrium.eq_moment(view, r)
                # unsplit at X's kinks until ROADMAP item 1, step 2
                brute = fracops.power_expectation(PowerSum.power(r), density,
                                                  upper=X.support_upper,
                                                  breakpoints=())
                worst = max(worst, _rel(closed, brute))
            rows.append(outcome("equilibrium_moment_vs_quadrature",
                                {"distribution": X.label, "alpha": alpha, "n": n},
                                worst, 1e-5))
    X = exponential(1.0)
    for r in (0.5, 1.0, 2.0):
        worst = 0.0
        for alpha, n in ((0.5, 1), (0.5, 3), (1.0, 2)):
            view = equilibrium.EquilibriumView(X, alpha, n)
            worst = max(worst, abs(equilibrium.eq_moment(view, r) - gamma(r + 1.0)))
        rows.append(outcome("equilibrium_moment_exponential_gamma",
                            {"r": r}, worst, 1e-6))
    return rows


def _taylor_g_family(alpha: float) -> list[tuple[str, PowerSum]]:
    return [("x", PowerSum.power(1.0)),
            ("x^2", PowerSum.power(2.0)),
            ("x^0.5", PowerSum.power(0.5)),
            ("x^(a-1)+x^(2a)",
             PowerSum.from_terms([(1.0, alpha - 1.0), (1.0, 2.0 * alpha)]))]


def criterion_6_taylor() -> list[CheckOutcome]:
    """Taylor residuals over the admissible grid plus the moment corollary."""
    rows = []
    tol = 1e-5
    dists = {"Exp(1)": exponential(1.0),
             "Uniform(0,1)": uniform(0.0, 1.0)}
    ran = 0
    for label, X in dists.items():
        for alpha in (0.5, 0.75, 1.0):
            for g_label, g in _taylor_g_family(alpha):
                for n in (0, 1, 2):
                    try:
                        report = taylor.rl_taylor_expectation(g, X, alpha, n)
                    except DivergenceError:
                        continue  # inadmissible combination
                    ran += 1
                    rows.append(identity_row(
                        "taylor_residual",
                        {"distribution": label, "g": g_label, "alpha": alpha, "n": n},
                        report, tol))
    rows.append(CheckOutcome("taylor_grid_coverage", {"combinations": ran},
                             lhs=ran, rhs=40.0, residual=float(ran), tolerance=0.0,
                             passed=ran >= 40))
    corollary = [(1.0, exponential(1.0), 0.5, 0, "Exp(1)"),
                 (2.0, exponential(1.0), 1.0, 1, "Exp(1)"),
                 (1.5, uniform(0.0, 1.0), 0.5, 1, "Uniform(0,1)"),
                 (1.5, uniform(0.0, 1.0), 0.5, 2, "Uniform(0,1)")]
    for beta_exp, X, alpha, n, label in corollary:
        lhs, rhs = taylor.fractional_moment_identity(beta_exp, X, alpha, n)
        rows.append(outcome("fractional_moment_identity",
                            {"beta": beta_exp, "alpha": alpha, "n": n,
                             "distribution": label},
                            _rel(lhs, rhs), 1e-5, lhs=lhs, rhs=rhs))
    lhs, rhs = taylor.fractional_moment_identity(1.0, exponential(1.0), 0.5, 0)
    rows.append(outcome("gamma_cancellation_exact_one",
                        {"beta": 1.0, "alpha": 0.5, "n": 0},
                        abs(rhs - 1.0), 1e-8, lhs=lhs, rhs=rhs))
    return rows


def _mvt_pairs():
    x_zero = zero_inflated(0.3, exponential(1.0))
    y_exp = exponential(1.0)
    return [("Exp(mean 1)/Exp(mean 2)", _exp_mean(1.0), _exp_mean(2.0), (1.0, 1.5)),
            ("ZeroInflated(0.3)/Exp(1)", x_zero, y_exp, (0.5, 1.0))]


def criterion_7_mvt() -> list[CheckOutcome]:
    """Mean value identity over the stated pair/function grid."""
    rows = []
    tol = 1e-5
    for label, X, Y, alphas in _mvt_pairs():
        for alpha in alphas:
            for g_label, g in (("x^(a-1)", PowerSum.power(alpha - 1.0)),
                               ("x", PowerSum.power(1.0)),
                               ("x^2", PowerSum.power(2.0)),
                               ("x^0.5+3x", PowerSum.from_terms([(1.0, 0.5), (3.0, 1.0)]))):
                try:
                    report = order_mvt.mvt_verify(g, X, Y, alpha)
                except DivergenceError:
                    continue  # g inadmissible for this pair (negative moment at an atom)
                rows.append(identity_row("mvt_residual",
                                         {"pair": label, "alpha": alpha, "g": g_label},
                                         report, tol))
    z = order_mvt.z_alpha_model(_exp_mean(1.0), _exp_mean(2.0), 1.0)
    closed = order_mvt.z_moment(z, 1.0)
    rows.append(outcome("z_mean_closed_form", {"pair": "Exp(1)/Exp(2)", "alpha": 1.0},
                        closed - 3.0, 1e-8, lhs=closed, rhs=3.0))
    brute = fracops.power_expectation(PowerSum.power(1.0),
                                      lambda t: order_mvt.z_density(z, t),
                                      breakpoints=())
    rows.append(outcome("z_mean_quadrature", {"pair": "Exp(1)/Exp(2)", "alpha": 1.0},
                        brute - 3.0, 1e-5, lhs=brute, rhs=3.0))
    return rows


def criterion_8_mixture() -> list[CheckOutcome]:
    """Generalized mixture identity, pointwise, plus the exact coefficient."""
    rows = []
    for label, X, Y, alphas in _mvt_pairs():
        for alpha in alphas:
            z = order_mvt.z_alpha_model(X, Y, alpha)
            worst = 0.0
            for t in linspace(0.0, 5.0, 30):
                lhs, rhs = order_mvt.z_mixture_identity(z, float(t))
                worst = max(worst, abs(lhs - rhs))
            rows.append(outcome("z_mixture_identity", {"pair": label, "alpha": alpha},
                                worst, 1e-10))
    z = order_mvt.z_alpha_model(_exp_mean(1.0), _exp_mean(2.0), 1.0)
    rows.append(outcome("z_mixture_coefficient", {"pair": "Exp(1)/Exp(2)", "alpha": 1.0},
                        z.mix_c - 2.0, 0.0, lhs=z.mix_c, rhs=2.0))
    return rows


def criterion_9_mean_location() -> list[CheckOutcome]:
    """Classification identity on five pairs; the exponential pair is case iii."""
    rows = []
    pairs = [("Exp(1)/Exp(2)", _exp_mean(1.0), _exp_mean(2.0), 1.0, True),
             ("Exp(1)/Exp(2)", _exp_mean(1.0), _exp_mean(2.0), 0.5, False),
             ("Uniform(0,1)/Exp(1)", uniform(0.0, 1.0), exponential(1.0),
              1.0, False),
             ("HyperExp2/Exp(1)", hyperexp2(0.4, 1.0, 3.0),
              exponential(1.0), 1.0, False),
             ("ZeroInflated(0.3)/Exp(1)", zero_inflated(0.3, exponential(1.0)),
              exponential(1.0), 1.0, True)]
    for label, X, Y, alpha, ordered in pairs:
        z = order_mvt.z_alpha_model(X, Y, alpha, require_order=ordered)
        report = order_mvt.classify_mean_location(z)
        rows.append(outcome("mean_location_identity",
                            {"pair": label, "alpha": alpha, "case": report.case},
                            report.identity_residual, 1e-9))
    z = order_mvt.z_alpha_model(_exp_mean(1.0), _exp_mean(2.0), 1.0)
    report = order_mvt.classify_mean_location(z)
    rows.append(CheckOutcome("mean_location_case_iii",
                             {"pair": "Exp(1)/Exp(2)", "alpha": 1.0,
                              "case": report.case, "e_z": report.e_z},
                             lhs=report.e_z, rhs=report.e_y_alpha,
                             residual=0.0, tolerance=0.0,
                             passed=report.case == "above_Y"))
    return rows


def criterion_10_order_checker() -> list[CheckOutcome]:
    """Exponential pair ordering holds for alpha >= 1, fails at alpha = 0.5."""
    rows = []
    X, Y = _exp_mean(1.0), _exp_mean(2.0)
    for alpha in (1.0, 1.5, 2.0):
        res = order_mvt.check_survival_bounded_order(X, Y, alpha)
        rows.append(CheckOutcome("order_holds", {"alpha": alpha, "holds": res.holds},
                                 lhs=res.worst_gap, rhs=0.0, residual=res.worst_gap,
                                 tolerance=1e-10, passed=res.holds))
    res = order_mvt.check_survival_bounded_order(X, Y, 0.5)
    rows.append(CheckOutcome("order_fails_at_origin",
                             {"alpha": 0.5, "holds": res.holds, "worst_t": res.worst_t},
                             lhs=res.worst_gap, rhs=0.0, residual=0.0,
                             tolerance=0.0,
                             passed=(not res.holds) and res.worst_t == 0.0))
    return rows


def criterion_11_actuarial() -> list[CheckOutcome]:
    """Deductible identities: MVT, ratio independence, exponential Z."""
    rows = []
    cases = [("x", PowerSum.power(1.0), "exponential", exponential(1.0), 0.5, 1.0, 1.0),
             ("x^0.5", PowerSum.power(0.5), "exponential", exponential(1.0), 0.5, 1.0, 0.5),
             ("x^2", PowerSum.power(2.0), "hyperexp2", hyperexp2(0.4, 1.0, 3.0),
              0.2, 0.8, 1.0)]
    for g_label, g, kind, severity, r, s, alpha in cases:
        report = actuarial.deductible_mvt(g, severity, r, s, alpha)
        rows.append(identity_row("deductible_mvt",
                                 {"severity": kind, "g": g_label, "r": r, "s": s,
                                  "alpha": alpha},
                                 report, 1e-5))

    lam = 1.0
    check = actuarial.exponential_ratio_check(
        lam, 0.5, 1.0, 1.0, 2.0,
        [PowerSum.power(1.0), PowerSum.power(2.0)], 1.0)
    reference = ((math.exp(-lam * 0.5) - math.exp(-lam * 1.0))
                 / (math.exp(-lam * 1.0) - math.exp(-lam * 2.0)))
    rows.append(outcome("ratio_independence_spread", {"lambda": lam},
                        check.max_spread, 1e-5))
    rows.append(outcome("ratio_reference_value", {"lambda": lam},
                        check.reference_ratio - reference, 1e-10,
                        lhs=check.reference_ratio, rhs=reference))
    half = actuarial.exponential_ratio_check(lam, 0.5, 1.0, 1.0, 2.0,
                                             [PowerSum.power(0.5)], 0.5)
    rows.append(outcome("ratio_independence_fractional", {"lambda": lam, "alpha": 0.5},
                        half.max_spread, 1e-5))

    for r, s, alpha in ((0.5, 1.0, 1.0), (0.3, 0.9, 0.5), (0.25, 2.0, 0.8)):
        report = actuarial.deductible_mvt(PowerSum.power(1.0), exponential(lam),
                                          r, s, alpha)
        worst = 0.0
        for t in linspace(0.0, 6.0, 20):
            worst = max(worst, abs(order_mvt.z_density(report.z, float(t))
                                   - lam * math.exp(-lam * float(t))))
        rows.append(outcome("deductible_z_is_exponential",
                            {"r": r, "s": s, "alpha": alpha}, worst, 1e-8))
    return rows


def _classical_taylor_rhs(coeffs: dict[int, float], X, n: int) -> float:
    """Order-n probabilistic Taylor of a polynomial by elementary calculus.

    coeffs maps integer powers to coefficients.  The remainder integrates
    the (n+1)-st derivative against the classical equilibrium density of
    order n+1, by direct quadrature.
    """
    def derive(c: dict[int, float], times: int) -> dict[int, float]:
        for _ in range(times):
            c = {k - 1: v * k for k, v in c.items() if k >= 1}
        return c

    total = 0.0
    for j in range(n + 1):
        dj = derive(coeffs, j)
        total += dj.get(0, 0.0) * distributions.fractional_moment(X, float(j)) / math.factorial(j)
    dn1 = derive(coeffs, n + 1)
    if not dn1:
        return total
    m_top = distributions.fractional_moment(X, float(n + 1))
    partial = distributions._partial_fn(X, float(n))

    def integrand(t: float) -> float:
        poly = sum(v * t ** k for k, v in dn1.items())
        return poly * (n + 1) * partial(t) / m_top

    res = integrate_singular_power(integrand, 0.0, 1.0, upper=X.support_upper)
    return total + m_top / math.factorial(n + 1) * res.require("classical remainder")


def criterion_12_caputo() -> list[CheckOutcome]:
    """Caputo expansion residuals and the alpha = 1 three-way agreement."""
    rows = []
    X = exponential(1.0)
    family = [("x^(2a), a=0.4, n=1", PowerSum.power(0.8), 0.4, 1),
              ("const 5, n=0", PowerSum.constant(5.0), 0.7, 0),
              ("x^2+x, a=1, n=1", PowerSum.from_terms([(1.0, 2.0), (1.0, 1.0)]), 1.0, 1),
              ("x^2+x, a=0.5, n=2", PowerSum.from_terms([(1.0, 2.0), (1.0, 1.0)]), 0.5, 2)]
    for label, g, alpha, n in family:
        report = taylor.caputo_taylor_expectation(g, X, alpha, n)
        rows.append(identity_row("caputo_residual", {"case": label}, report, 1e-5))

    poly = PowerSum.from_terms([(1.0, 2.0), (1.0, 1.0)])
    coeffs = {2: 1.0, 1: 1.0}
    for label, model in (("Exp(1)", X), ("Uniform(0,1)", uniform(0.0, 1.0))):
        for n in (0, 1):
            rl = taylor.rl_taylor_expectation(poly, model, 1.0, n)
            cap = taylor.caputo_taylor_expectation(poly, model, 1.0, n)
            classical = _classical_taylor_rhs(coeffs, model, n)
            worst = max(abs(rl.rhs - cap.rhs), abs(rl.rhs - classical),
                        abs(cap.rhs - classical))
            rows.append(outcome("alpha_one_agreement",
                                {"distribution": label, "n": n}, worst, 1e-7))
    return rows


def criterion_13_numerics_quality() -> list[CheckOutcome]:
    """Convergence flags and the tail-lemma truncation bound over the catalog.

    Operations raise on non-convergence throughout the battery; this
    check additionally probes the raw integral results.
    """
    rows = []
    for X in _catalog():
        if X.density_ac is not None:
            expected = X.survival(0.0)
            res = integrate_semi_infinite(X.density_ac, 0.0)
            err = res.error_estimate + 1e-12
            rows.append(CheckOutcome("density_mass",
                                     {"distribution": X.label,
                                      "converged": res.converged},
                                     lhs=res.value, rhs=expected,
                                     residual=res.value - expected, tolerance=err,
                                     passed=res.converged
                                     and abs(res.value - expected) <= err))
        worst = 0.0
        converged = True
        for t in (0.0, 1.0):
            for order in (0.5, 1.0, 2.0):
                res = integrate_singular_power(X.survival, t, order,
                                               upper=X.support_upper)
                converged = converged and res.converged
                T = res.truncation_point
                if T is not None and T > t:
                    worst = max(worst, (T - t) ** order * X.survival(T))
        rows.append(CheckOutcome("tail_lemma_truncation",
                                 {"distribution": X.label, "converged": converged},
                                 lhs=worst, rhs=0.0, residual=worst, tolerance=1e-8,
                                 passed=converged and worst < 1e-8))
    return rows


CRITERIA = {
    1: criterion_1_exponential_fixed_point,
    2: criterion_2_characterization_negative,
    3: criterion_3_semigroup,
    4: criterion_4_recursive_equilibrium,
    5: criterion_5_equilibrium_moments,
    6: criterion_6_taylor,
    7: criterion_7_mvt,
    8: criterion_8_mixture,
    9: criterion_9_mean_location,
    10: criterion_10_order_checker,
    11: criterion_11_actuarial,
    12: criterion_12_caputo,
    13: criterion_13_numerics_quality,
}


def run_all() -> list[CheckOutcome]:
    """Run the full battery; rows carry their criterion number in params."""
    return [CheckOutcome(row.check, {**row.params, "criterion": number}, row.lhs,
                         row.rhs, row.residual, row.tolerance, row.passed)
            for number, fn in CRITERIA.items() for row in fn()]
