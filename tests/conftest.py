import math

import pytest

from fraceq import distributions as dist
from fraceq import suite

# captured at import, before any test can monkeypatch suite.CRITERIA
_CRITERIA = dict(suite.CRITERIA)


def exp_knots():
    """Survival knots sampled from a unit-rate exponential."""
    ts = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    return [(t, math.exp(-t)) for t in ts]


@pytest.fixture(scope="session")
def catalog():
    return {
        "exp1": dist.exponential(1.0),
        "uniform01": dist.uniform(0.0, 1.0),
        "weibull21": dist.weibull(2.0, 1.0),
        "hyperexp": dist.hyperexp2(0.4, 1.0, 3.0),
        "zero_inflated": dist.zero_inflated(0.3, dist.exponential(1.0)),
        "deductible": dist.deductible(1.0, dist.exponential(1.0)),
        "numeric": dist.numeric(exp_knots()),
    }


@pytest.fixture(scope="session")
def criterion_rows():
    """rows(number): one suite criterion's rows, computed once per session.

    The battery dominates the run time and both the acceptance tests and
    the CLI suite test need it, so each criterion runs only once.
    """
    cache = {}

    def rows(number):
        if number not in cache:
            cache[number] = _CRITERIA[number]()
        return list(cache[number])
    return rows


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)
