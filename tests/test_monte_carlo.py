from dataclasses import replace

import numpy as np
import pytest

from dairypv.domain import ScenarioParams
from dairypv.engine import run_monte_carlo, run_simulation
from dairypv.errors import ValidationError


def make_params(**overrides):
    base = dict(
        pv_cost_min=5000.0,
        pv_cost_max=15000.0,
        maintenance_rate=0.02,
        discount_rate=0.04,
        total_farmers=300,
        start_year=2005,
        end_year=2022,
        beta=0.04,
        mode="stochastic",
        seed=0,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def test_single_replication_degenerates_to_that_run(price_series, subsidy_series):
    params = make_params()
    summary = run_monte_carlo(params, price_series, subsidy_series,
                              replications=1, base_seed=77)
    single = run_simulation(replace(params, seed=77), price_series, subsidy_series)
    for row, record in zip(summary.rows, single.records):
        assert row.mean == record.cumulative_adopters
        assert row.std == 0.0
        assert row.min == row.max == row.mean


def test_same_base_seed_gives_identical_summary(price_series, subsidy_series):
    params = make_params()
    a = run_monte_carlo(params, price_series, subsidy_series, replications=20, base_seed=5)
    b = run_monte_carlo(params, price_series, subsidy_series, replications=20, base_seed=5)
    assert a == b


def test_row_invariants_hold(price_series, subsidy_series):
    params = make_params()
    summary = run_monte_carlo(params, price_series, subsidy_series,
                              replications=30, base_seed=9)
    assert summary.replications == 30 and summary.base_seed == 9
    assert [row.year for row in summary.rows] == list(range(2005, 2023))
    for row in summary.rows:
        assert row.min <= row.mean <= row.max
        assert row.std >= 0.0


def test_mean_tracks_deterministic_expectation(price_series, subsidy_series):
    # homogeneous agents: per-year probability matches the representative
    # agent, so the Monte Carlo mean is an unbiased estimate of the
    # deterministic hazard curve
    params = make_params(pv_cost_min=10000.0, pv_cost_max=10000.0, total_farmers=400)
    det = run_simulation(
        replace(params, mode="deterministic", seed=None), price_series, subsidy_series
    )
    summary = run_monte_carlo(params, price_series, subsidy_series,
                              replications=200, base_seed=31)
    for row, record in zip(summary.rows, det.records):
        se = row.std / np.sqrt(200)
        assert se > 0
        assert abs(row.mean - record.cumulative_adopters) < 4.0 * se


def test_replications_must_be_positive(price_series, subsidy_series):
    with pytest.raises(ValidationError, match="replications"):
        run_monte_carlo(make_params(), price_series, subsidy_series,
                        replications=0, base_seed=1)


@pytest.mark.parametrize("name, value", [
    ("replications", True), ("replications", 2.0), ("base_seed", True), ("base_seed", 5.0),
])
def test_integer_arguments_reject_other_types(price_series, subsidy_series, name, value):
    arguments = {"replications": 2, "base_seed": 5, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        run_monte_carlo(make_params(total_farmers=50), price_series, subsidy_series,
                        **arguments)


def test_numpy_integer_arguments_are_stored_as_int(price_series, subsidy_series):
    params = make_params(total_farmers=50)
    summary = run_monte_carlo(params, price_series, subsidy_series,
                              replications=np.int64(2), base_seed=np.uint64(5))
    assert type(summary.replications) is int and type(summary.base_seed) is int
    assert summary == run_monte_carlo(params, price_series, subsidy_series,
                                      replications=2, base_seed=5)


def test_requires_stochastic_mode(price_series, subsidy_series):
    params = make_params(mode="deterministic", seed=None)
    with pytest.raises(ValidationError, match="stochastic"):
        run_monte_carlo(params, price_series, subsidy_series, replications=2, base_seed=1)


def test_seed_wraps_at_uint64(price_series, subsidy_series):
    # replication 0 runs seed 2**64 - 1 and replication 1 wraps to seed 0;
    # beta = 1 makes every farmer a candidate for scoring each year
    for params in (make_params(total_farmers=50),
                   make_params(total_farmers=50, beta=1.0, alpha=0.001)):
        summary = run_monte_carlo(params, price_series, subsidy_series,
                                  replications=2, base_seed=2**64 - 1)
        assert summary.replications == 2
        last, wrapped = (
            [r.cumulative_adopters
             for r in run_simulation(replace(params, seed=seed), price_series,
                                     subsidy_series).records]
            for seed in (2**64 - 1, 0))
        assert last != wrapped
        for row, a, b in zip(summary.rows, last, wrapped):
            assert (row.min, row.max) == (min(a, b), max(a, b))
