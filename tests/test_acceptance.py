"""Acceptance gate: one test per criterion, one printed line per criterion.

Each criterion delegates to the suite module (the same code behind the
CLI 'suite' command) and asserts every row at its stated tolerance.  The
rows come from the session-wide ``criterion_rows`` fixture, which runs
each criterion once and shares it with the CLI suite test.  A last test
bounds the Gauss-Kronrod panels the whole battery runs.
"""

import math

import pytest

from fraceq import suite
from kronrod_panels import counting_panels

CRITERION_TITLES = {
    1: "exponential fixed point, sup gap <= 1e-7",
    2: "characterization detects non-exponentials, deviation >= 0.05",
    3: "Weyl semigroup, nested vs direct, rel 1e-5",
    4: "equilibrium direct vs recursive, rel 1e-5",
    5: "equilibrium moments closed vs quadrature, rel 1e-5",
    6: "Taylor residuals and moment corollary, 1e-5 / 1e-8",
    7: "mean value identity residuals, 1e-5; E[Z_1] = 3",
    8: "mixture identity 1e-10; coefficient c = 2 exactly",
    9: "mean location identity 1e-9; exponential pair is case iii",
    10: "order holds at alpha in {1, 1.5, 2}, fails at 0.5 with t* = 0",
    11: "deductible MVT 1e-5; ratio independence; Z is Exp(lambda)",
    12: "Caputo residuals 1e-5; alpha = 1 agreement 1e-7",
    13: "quadrature convergence and tail-lemma truncation bound",
}


@pytest.mark.parametrize("number", sorted(suite.CRITERIA))
def test_criterion(number, criterion_rows):
    rows = criterion_rows(number)
    failed = [r for r in rows if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"{status} criterion {number:2d}: {CRITERION_TITLES[number]} "
          f"({len(rows)} checks)")
    for row in failed:
        print(f"     failed: {row.check} {row.params} "
              f"residual={row.residual:.3g} tol={row.tolerance:.3g}")
    assert not failed, f"criterion {number} failed {len(failed)} of {len(rows)} checks"


def test_battery_panel_count():
    # Gauss-Kronrod panels of either rule are an exact count, the same on
    # any machine; 8,679 (6,785 of 15 and 1,894 of 21 points) is one
    # run_all's count when this guard was set
    with counting_panels() as panels:
        suite.run_all()
    assert panels.total() <= 8_679


@pytest.mark.parametrize("lhs,rhs,residual", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                              (0.0, 0.0, -math.inf)])
def test_nonfinite_row_is_a_numerical_failure(lhs, rhs, residual):
    with pytest.raises(FloatingPointError):
        suite.CheckOutcome("check", {"n": 1}, lhs, rhs, residual, 1e-8, True)
