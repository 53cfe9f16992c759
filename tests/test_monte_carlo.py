import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import conftest
from dairypv.calibration import CalibrationResult
from dairypv.engine import (MonteCarloSummary, YearStats, _kernel_steps, _stochastic_years,
                            _yearly_inputs, run_monte_carlo, run_simulation)
from dairypv.errors import ValidationError
from reference import adoption_law

make_params = partial(conftest.make_params, total_farmers=300, beta=0.04, mode="stochastic",
                      seed=0)


# at 150,000 farmers a stochastic run scores five pieces of at most engine._BLOCK
@pytest.mark.parametrize("total_farmers", [300, 150_000])
def test_single_replication_degenerates_to_that_run(price_series, subsidy_series,
                                                    total_farmers):
    params = make_params(total_farmers=total_farmers)
    summary = run_monte_carlo(params, price_series, subsidy_series,
                              replications=1, base_seed=77)
    single = run_simulation(replace(params, seed=77), price_series, subsidy_series)
    for row, record in zip(summary.rows, single.records):
        assert row.mean == record.cumulative_adopters
        assert row.std == 0.0
        assert row.min == row.max == row.mean


# Each year's count is Binomial(N, q̄_t) (reference.adoption_law). The bound, fixed
# before the points, counts and seeds below: a mean within 4.5 standard errors of N·q̄_t
# and a std inside the chi-square interval at the same two-sided tail, 6.8e-6, which
# Bonferroni over 18 years keeps near 1.2e-4 per statistic.
LAW_Z = 4.5
LAW_POINTS = {
    # the bundled scenario at calibrate's fit: N·q̄_2022 = 416.61, the midpoint farmer's 441
    "bundled_fit": (dict(total_farmers=18000, alpha=10.248025432877382,
                         beta=0.0014826977604563544), 400, 1),
    # a wide cost range at 300 farmers: q̄_2022 = 0.41, the midpoint farmer's 0.46
    "wide_costs": (dict(pv_cost_min=1000.0, pv_cost_max=20000.0, alpha=0.1), 2000, 2),
}


def chi2_quantile(k, z):
    """Wilson-Hilferty: the chi-square(k) quantile at the standard normal quantile z."""
    return k * (1.0 - 2.0 / (9 * k) + z * math.sqrt(2.0 / (9 * k))) ** 3


def exact_law(params, prices, subsidies):
    """reference.adoption_law's q̄_t, once 16 nodes agree with 64 to 1e-9, far below a
    sampling error at the points tested here."""
    q = adoption_law(params, prices, subsidies)
    assert np.abs(adoption_law(params, prices, subsidies, nodes=64) - q).max() < 1e-9
    return q


@pytest.mark.parametrize("point", sorted(LAW_POINTS))
def test_counts_follow_the_binomial_law(price_series, subsidy_series, point):
    overrides, replications, base_seed = LAW_POINTS[point]
    params = make_params(**overrides)
    q = exact_law(params, price_series, subsidy_series)
    summary = run_monte_carlo(params, price_series, subsidy_series, replications, base_seed)
    mean = np.array([row.mean for row in summary.rows])
    std = np.array([row.std for row in summary.rows])
    n = params.total_farmers
    sd = np.sqrt(n * q * (1.0 - q))
    # run_monte_carlo's std has divisor R: R·std²/sd² is chi-square with R - 1 degrees
    # for normal counts; the binomial's excess kurtosis (at most 0.15 here) widens it ~4%
    lo, hi = (math.sqrt(chi2_quantile(replications - 1, z) / replications)
              for z in (-LAW_Z, LAW_Z))
    z_mean = (mean - n * q) / (sd / math.sqrt(replications))
    assert np.abs(z_mean).max() < LAW_Z, z_mean
    assert ((lo * sd < std) & (std < hi * sd)).all(), std / sd


def test_adoption_years_follow_the_multinomial_law(price_series, subsidy_series):
    # Each farmer's adoption year is i.i.d. with pmf π_t = q̄_t - q̄_{t-1}, and "never" has
    # 1 - q̄_T, so the yearly new adopters (the differences of _stochastic_years' yields)
    # and the never-adopters, pooled over R independent replications, are
    # Multinomial(N·R; π_1..π_T, 1 - q̄_T): the whole path's law, not only each year's
    # margin. Pearson's statistic over those T + 1 cells is then chi-square with T
    # degrees. The one-sided tail at LAW_Z, then the point, R and the seed were fixed
    # before the first run; the smallest expected cell holds about 5,900 farmers.
    params = make_params(**LAW_POINTS["wide_costs"][0])
    replications, base_seed = 1000, 3
    q = exact_law(params, price_series, subsidy_series)
    annuity, prices, subsidies, utilities = _yearly_inputs(params, price_series, subsidy_series)
    steps = _kernel_steps(params, utilities)
    cumulative = np.array([
        list(_stochastic_years(params, annuity, prices, subsidies, steps, base_seed + r))
        for r in range(replications)]).sum(axis=0)
    trials = params.total_farmers * replications
    observed = np.append(np.diff(cumulative, prepend=0.0), trials - cumulative[-1])
    expected = trials * np.append(np.diff(q, prepend=0.0), 1.0 - q[-1])
    statistic = ((observed - expected) ** 2 / expected).sum()
    assert statistic < chi2_quantile(len(q), LAW_Z), observed / expected


def test_replications_must_be_positive(price_series, subsidy_series):
    with pytest.raises(ValidationError, match="replications"):
        run_monte_carlo(make_params(), price_series, subsidy_series,
                        replications=0, base_seed=1)


@pytest.mark.parametrize("replications", [1, 9, 130])
def test_statistics_equal_numpy_over_each_years_values_bit_for_bit(price_series, subsidy_series,
                                                                  replications):
    # each year's values reduced as one contiguous list, in replication order
    params = make_params(total_farmers=2000, alpha=0.5, beta=0.2)
    summary = run_monte_carlo(params, price_series, subsidy_series, replications, base_seed=7)
    annuity, prices, subsidies, utilities = _yearly_inputs(params, price_series, subsidy_series)
    steps = _kernel_steps(params, utilities)
    curves = [list(_stochastic_years(params, annuity, prices, subsidies, steps, 7 + r))
              for r in range(replications)]
    for row, values in zip(summary.rows, map(list, zip(*curves))):
        expected = (np.mean(values), np.std(values), min(values), max(values))
        assert [v.hex() for v in (row.mean, row.std, row.min, row.max)] == [
            float(v).hex() for v in expected]


@pytest.mark.parametrize("base_seed", [-1, 2**64])
def test_base_seed_must_fit_in_uint64(price_series, subsidy_series, base_seed):
    with pytest.raises(ValidationError, match=f"base_seed .* got {base_seed}"):
        run_monte_carlo(make_params(), price_series, subsidy_series,
                        replications=1, base_seed=base_seed)


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


def test_reads_neither_mode_nor_seed(price_series, subsidy_series):
    # replication r runs seed base_seed + r whatever the scenario's mode and seed
    stochastic = make_params(seed=123)
    summary = run_monte_carlo(stochastic, price_series, subsidy_series, 3, 1)
    for params in (replace(stochastic, mode="deterministic", seed=None),
                   replace(stochastic, seed=None)):
        assert run_monte_carlo(params, price_series, subsidy_series, 3, 1) == summary


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


@pytest.mark.parametrize("constructor, fields, message", [
    (YearStats, (2005, 1.0, -1.0, 0.0, 2.0), "std must be >= 0, got -1.0"),
    (YearStats, (2005, 1.0, 0.0, 2.0, 3.0), "expected min <= mean <= max, got 2.0, 1.0, 3.0"),
    (YearStats, (2005, 4.0, 0.0, 2.0, 3.0), "expected min <= mean <= max, got 2.0, 4.0, 3.0"),
    (MonteCarloSummary, (0, 5, ()), "replications must be >= 1, got 0"),
    (CalibrationResult, (1.0, 0.01, -1.0, 400, False), "achieved_loss must be >= 0, got -1.0"),
], ids=["negative_std", "mean_below_min", "mean_above_max", "no_replications",
        "negative_loss"])
def test_result_constructors_reject_an_impossible_value(constructor, fields, message):
    # no run or fit can build these: the checks guard the constructors themselves
    with pytest.raises(ValidationError, match=f"^{message}$"):
        constructor(*fields)
