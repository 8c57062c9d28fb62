"""Closed forms, quadratures and the tabulated oracle against 40-digit references.

tests/data/truth.json is written by tests/make_truth.py with mpmath; these
tests only read it, so they need no mpmath.
"""

import json
import math
from pathlib import Path

import pytest

from conftest import exp_knots, rel_diff
from fraceq import numerics
from fraceq.distributions import (build, fractional_moment, hyperexp2,
                                  upper_partial_moment, weibull)
from fraceq.equilibrium import (EquilibriumView, eq_survival,
                                eq_survival_recursive)
from fraceq.errors import DivergenceError
from fraceq.fracops import weyl_integral, weyl_table
from fraceq.numerics import (beta, gamma, integrate_singular_power, reciprocal_gamma,
                             scaled_upper_gamma)

TRUTH = json.loads((Path(__file__).parent / "data" / "truth.json").read_text())
BOUND = 1e-13  # relative


@pytest.mark.parametrize("entry", TRUTH["negative_partial"],
                         ids=lambda e: f"{e['case']}-t{e['t']:g}-s{e['s']:g}")
def test_negative_partial_moment(entry):
    X = build(entry["dist"])
    t, s, truth = entry["t"], entry["s"], entry["truth"]
    assert X.negative_partial is not None
    got = upper_partial_moment(X, t, s)
    assert rel_diff(got, truth) <= BOUND, (got, truth)
    if t == 0.0 and X.survival(0.0) == 1.0:  # no atom at 0
        assert rel_diff(fractional_moment(X, s), truth) <= BOUND


# the layer cake integrates e^(-x^0.7) in u = x^0.5, which is e^(-u^1.4)
ORDER_0_5_WEIBULL_07 = pytest.mark.xfail(strict=True, reason=(
    "s = 0.5 at t = 0 integrates Weibull(0.7)'s survival in u = x^0.5, where "
    "e^(-u^1.4) is not smooth at u = 0, so the value is about 8.6e-12 off "
    "(ROADMAP item 10)"))


def _known_defects(entry):
    if entry["s"] == 0.5 and entry["t"] == 0.0 and entry["case"] in ("weibull07",
                                                                     "zero_inflated"):
        return [ORDER_0_5_WEIBULL_07]
    return []


@pytest.mark.parametrize("entry", [
    pytest.param(e, marks=_known_defects(e)) for e in TRUTH["upper_partial_moment"]],
    ids=lambda e: f"{e['case']}-t{e['t']:g}-s{e['s']:g}")
def test_upper_partial_moment_without_partial_forms(entry):
    X = build(entry["dist"])
    t, s, truth = entry["t"], entry["s"], entry["truth"]
    if truth is None:  # E[X^s] of a Weibull law diverges for s <= -k
        with pytest.raises(DivergenceError):
            upper_partial_moment(X, t, s)
        return
    got = upper_partial_moment(X, t, s)
    assert rel_diff(got, truth) <= BOUND, (got, truth)


@pytest.mark.parametrize("entry", TRUTH["closed_partial_moment"],
                         ids=lambda e: f"{e['case']}-t{e['t']:g}-s{e['s']:g}")
def test_closed_partial_moment(entry):
    X = build(entry["dist"])
    assert X.closed_form_partial is not None
    got = upper_partial_moment(X, entry["t"], entry["s"])
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])


def test_truth_table_uses_the_shared_knot_table():
    tables = [e["dist"]["params"]["knots"] for e in TRUTH["negative_partial"]
              if e["case"] == "exp_knots"]
    assert tables and all(k == [list(p) for p in exp_knots()] for k in tables)


SMALL_A_BELOW_HALF = pytest.mark.xfail(strict=True, reason=(
    "below x = 0.5 the series branch still cancels at tiny a, 5.4e-13 off at "
    "(0.001, 0.4); Temme's small-a expansion mends it (ROADMAP item 3)"))


@pytest.mark.parametrize("entry", [
    pytest.param(e, marks=[SMALL_A_BELOW_HALF] if e["a"] < 0.01 and e["x"] < 0.5 else [])
    for e in TRUTH["scaled_upper_gamma"]], ids=lambda e: f"a{e['a']:g}-x{e['x']:g}")
def test_scaled_upper_gamma(entry):
    got = scaled_upper_gamma(entry["a"], entry["x"])
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])


@pytest.mark.parametrize("entry", TRUTH["gamma"], ids=lambda e: f"x{e['x']!r}")
def test_gamma_near_its_poles(entry):
    got = gamma(entry["x"])
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])


@pytest.mark.parametrize("entry", TRUTH["reciprocal_gamma"], ids=lambda e: f"x{e['x']!r}")
def test_reciprocal_gamma_near_its_zeros(entry):
    got = reciprocal_gamma(entry["x"])
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])


@pytest.mark.parametrize("entry", TRUTH["beta"], ids=lambda e: f"a{e['a']:g}-b{e['b']:g}")
def test_beta(entry):
    got = beta(entry["a"], entry["b"])
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])


def test_eq_survival_on_a_deductible_table():
    entries = TRUTH["eq_survival"]
    spec, alpha, n = entries[0]["dist"], entries[0]["alpha"], entries[0]["n"]
    view = EquilibriumView(build(spec), alpha, n)
    errors = [rel_diff(eq_survival(view, e["t"]), e["truth"]) for e in entries]
    assert max(errors) <= 1e-10, errors


RECURSIVE = TRUTH["eq_survival_recursive"]
# a table's panels are graded toward 0 at most six times from its first
# tail-doubling edge, about reach/32 (0.27 wide for Weibull(0.3)), so a law
# singular at 0 is tabulated coarsely there: 4.3e-7 off at t = 0 for
# Weibull(0.3)
SINGULAR_AT_ZERO = {("weibull03", 0.0), ("weibull03", 0.1), ("weibull05_a0.5", 0.0)}
SINGULAR_AT_ZERO_DEFECT = pytest.mark.xfail(strict=True, reason=(
    "weyl_table grades at most six panels toward 0 below its first tail-doubling "
    "edge, so a law singular at 0 is tabulated coarsely there (ROADMAP item 4)"))


def _recursive_errors(entries):
    spec, alpha, n = entries[0]["dist"], entries[0]["alpha"], entries[0]["n"]
    got = eq_survival_recursive(build(spec), alpha, n, [e["t"] for e in entries])
    return [rel_diff(g, e["truth"]) for g, e in zip(got, entries)]


@pytest.mark.parametrize("case", list(dict.fromkeys(e["case"] for e in RECURSIVE)))
def test_tabulated_recursive_oracle(case):
    errors = _recursive_errors([e for e in RECURSIVE if e["case"] == case
                                and (case, e["t"]) not in SINGULAR_AT_ZERO])
    assert max(errors) <= 1e-10, errors


@SINGULAR_AT_ZERO_DEFECT
@pytest.mark.parametrize("entry", [e for e in RECURSIVE
                                   if (e["case"], e["t"]) in SINGULAR_AT_ZERO],
                         ids=lambda e: f"{e['case']}-t{e['t']:g}")
def test_tabulated_recursive_oracle_near_a_singular_zero(entry):
    assert _recursive_errors([entry])[0] <= 1e-10


WEYL = TRUTH["weyl_table"]


@pytest.mark.parametrize("alpha", list(dict.fromkeys(e["alpha"] for e in WEYL)),
                         ids=lambda a: f"alpha{a:.4g}")
def test_weyl_table_next_to_kinks(alpha):
    # seven panels graded toward each kink read the level up to 1.8e-12
    # (alpha = 1/2) and 2.3e-11 (1/3) off, relative; one panel in
    # w = (kink - u)^alpha reads it to rounding
    entries = [e for e in WEYL if e["alpha"] == alpha]
    table, _ = weyl_table(build(entries[0]["dist"]), alpha)
    errors = [rel_diff(table(e["u"]), e["truth"]) for e in entries]
    assert max(errors) <= BOUND, errors


# at order 0.3 a knot 1e-9 past t starts a piece whose weight (x - t)^-0.7
# is singular 1e-9 before it; the piece meets the default tolerance (up to
# 3.8e-11 off, relative, with an error estimate of 1e-9) but not BOUND
NEAR_SINGULAR_PIECE = pytest.mark.xfail(strict=True, reason=(
    "past the head panel the weight (x - t)^(p-1) is integrated as it stands, "
    "so a piece that starts 1e-9 after t is read only to the default tolerance "
    "at p = 0.3 (ROADMAP item 3)"))


def _weyl_integral_params():
    for e in TRUTH["weyl_integral"]:
        near = e["order"] < 0.5 and any(0.0 < k - e["t"] < 1e-8 for k, _ in
                                        e["dist"]["params"]["knots"])
        yield pytest.param(e, id=f"order{e['order']:g}-t{e['t']:.10g}",
                           marks=[NEAR_SINGULAR_PIECE] if near else [])


@pytest.mark.parametrize("entry", _weyl_integral_params())
def test_weyl_integral_next_to_kinks(entry):
    # cut at the knots, every piece is smooth; integrated across them, the
    # same points were up to 1.1e-6 off, relative, at order 1
    got = weyl_integral(build(entry["dist"]), entry["order"], entry["t"])
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])


SINGULAR_POWER_FS = {
    "exp": lambda x: math.exp(-x),
    "weibull21_survival": weibull(2.0, 1.0).survival,
    "hyperexp2_density": hyperexp2(0.4, 1.0, 3.0).density_ac,
}


@pytest.mark.parametrize("entry", TRUTH["singular_power"],
                         ids=lambda e: f"{e['f']}-p{e['p']:g}-t{e['t']:g}")
def test_singular_power_head(entry):
    res = integrate_singular_power(SINGULAR_POWER_FS[entry["f"]], entry["t"], entry["p"])
    error = abs(res.value - entry["truth"])
    assert res.converged
    assert error <= BOUND * abs(entry["truth"]), (res.value, entry["truth"])
    assert res.error_estimate >= error, (res.error_estimate, error)


@pytest.mark.parametrize("entry", TRUTH["chebyshev_moments"],
                         ids=lambda e: f"p{e['p']:g}-k{e['k']}")
def test_chebyshev_moments(entry):
    got = numerics._chebyshev_moments(entry["p"])[entry["k"]]
    assert rel_diff(got, entry["truth"]) <= BOUND, (got, entry["truth"])
