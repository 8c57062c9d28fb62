"""Property tests of the equilibrium transform on randomly drawn laws, and
of the JSON report writer on randomly drawn JSON values.

Runs only where hypothesis is installed (the ``test`` extra).  The
search is derandomized, so every run draws the same examples.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from fraceq import cli
from fraceq.distributions import (deductible, exponential, hyperexp2, uniform,
                                  zero_inflated)
from fraceq.equilibrium import EquilibriumView, eq_density, eq_survival

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)

ALPHAS = st.floats(1e-3, 2.0)
ORDERS = st.integers(1, 3)
RATES = st.floats(0.2, 5.0)


@PROPERTY
@given(lam=RATES, alpha=ALPHAS, n=ORDERS, u=st.floats(0.0, 5.0))
def test_exponential_is_a_fixed_point(lam, alpha, n, u):
    # every equilibrium transform of Exp(lam) is Exp(lam) again
    t = u / lam
    got = eq_density(EquilibriumView(exponential(lam), alpha, n), t)
    assert got == pytest.approx(lam * math.exp(-lam * t), rel=1e-9)


def _closed_form_law(kind, a, b, c):
    """A catalog law with closed-form partial moments, from three draws."""
    if kind == "exponential":
        return exponential(a)
    if kind == "uniform":
        return uniform(0.1 * c, 0.1 * c + a)
    if kind == "hyperexp2":
        return hyperexp2(0.1 + 0.8 * c, a, a + b)
    if kind == "zero_inflated":
        return zero_inflated(0.9 * c, exponential(a))
    return deductible(c, exponential(a))


LAWS = st.builds(_closed_form_law,
                 st.sampled_from(["exponential", "uniform", "hyperexp2",
                                  "zero_inflated", "deductible"]),
                 RATES, RATES, st.floats(0.01, 1.0))


@PROPERTY
@given(X=LAWS, alpha=ALPHAS, n=ORDERS,
       us=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=8))
def test_eq_survival_is_a_survival_function(X, alpha, n, us):
    view = EquilibriumView(X, alpha, n)
    # spread the points over the bulk of X, including past a finite support
    scale = X.support_upper if math.isfinite(X.support_upper) else 3.0
    values = [eq_survival(view, u * scale) for u in sorted(us)]
    assert all(0.0 <= v <= 1.0 for v in values), values
    assert all(b <= a for a, b in zip(values, values[1:])), values


# JSON values as the reports hold them: str keys, tuples besides lists,
# and every float but NaN and the infinities (-0.0, subnormals and 1e308
# among them); short strings and few leaves keep the draws cheap
TEXT = st.text(max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(TEXT, inner)),
    max_leaves=10)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(value=JSON_VALUES)
@example(value={"\u00e9\u2028\U0001f600": ["\x00\x1f\x7f\"\\", -0.0, 5e-324, 1e308,
                                           -(2 ** 100), True, None, [], {}, ()]})
def test_report_writer_is_json_dumps(value):
    assert cli._dump(value, "\n") == json.dumps(value, sort_keys=True, indent=2,
                                                allow_nan=False)
