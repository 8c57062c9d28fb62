"""The result records are immutable values: fields cannot be set, and two
records with equal fields compare equal."""

import pytest

from fraceq.actuarial import exponential_ratio_check
from fraceq.distributions import exponential, hyperexp2
from fraceq.equilibrium import characterization_check
from fraceq.fracops import PowerSum
from fraceq.order_mvt import (check_survival_bounded_order, classify_mean_location,
                              mvt_verify, z_alpha_model)
from fraceq.taylor import rl_taylor_expectation

X, Y = exponential(2.0), exponential(0.5)
RECORDS = {
    "RatioCheckReport": lambda: exponential_ratio_check(
        1.0, 0.3, 0.9, 0.5, 1.5, [PowerSum.power(1.0), PowerSum.power(2.0)], 0.8),
    "CharacterizationReport": lambda: characterization_check(
        hyperexp2(0.4, 1.0, 3.0), [0.5], [1]),
    "OrderCheckResult": lambda: check_survival_bounded_order(X, Y, 1.0),
    "MeanLocationReport": lambda: classify_mean_location(z_alpha_model(X, Y, 1.0)),
    "MvtReport": lambda: mvt_verify(PowerSum.power(1.5), X, Y, 1.5),
    "TaylorReport": lambda: rl_taylor_expectation(PowerSum.power(2.0), X, 0.5, 2),
    "PowerSum": lambda: PowerSum.from_terms([(1.0, 2.0), (3.0, 0.5)]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    twin = type(record)(*record)
    assert twin == record and twin is not record
