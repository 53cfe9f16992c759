import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dairypv import calibration, engine
from dairypv.calibration import calibrate
from dairypv.domain import ScenarioParams, YearSeries
from dairypv.engine import _annuity, _utility, run_monte_carlo, run_simulation
from dairypv.errors import CoverageGapError, ValidationError
from reference import adoption_probability, agent_utility, net_present_value


def make_params(**overrides):
    base = dict(
        pv_cost_min=5000.0,
        pv_cost_max=15000.0,
        maintenance_rate=0.02,
        discount_rate=0.04,
        total_farmers=18000,
        start_year=2005,
        end_year=2022,
        horizon_years=20,
        annual_generation_kwh=6000.0,
        alpha=1.0,
        beta=0.01,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def flat_series(params, value):
    return YearSeries(params.start_year, [value] * (params.end_year - params.start_year + 1))


class TestAdoptionProbability:
    def test_zero_utility_gives_half_beta(self):
        assert adoption_probability(0.0, alpha=3.7, beta=0.04, total_farmers=1234) == 0.02

    def test_hand_evaluated_point(self):
        # EU / N = 1, alpha = 2: p = 0.05 / (1 + e^-2)
        p = adoption_probability(18000.0, alpha=2.0, beta=0.05, total_farmers=18000)
        assert p == pytest.approx(0.05 / (1.0 + math.exp(-2.0)), rel=1e-12)
        assert p == pytest.approx(0.044040, abs=1e-6)

    def test_huge_negative_utility_saturates_safely(self):
        p = adoption_probability(-1e12, alpha=1.0, beta=0.05, total_farmers=18000)
        assert 0.0 < p < 1e-9

    def test_huge_positive_utility_stays_below_beta(self):
        p = adoption_probability(1e12, alpha=1.0, beta=0.05, total_farmers=18000)
        assert 0.0 < p < 0.05

    def test_bounds_monotonicity_and_scale_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            alpha = float(10.0 ** rng.uniform(-3, 2))
            beta = float(10.0 ** rng.uniform(-6, 0))
            n = int(rng.integers(1, 10**6))
            x = float(rng.uniform(-25.0, 25.0))
            eu = x * n / alpha
            p = adoption_probability(eu, alpha, beta, n)
            assert 0.0 < p < beta
            eu2 = (x + 0.01) * n / alpha
            assert adoption_probability(eu2, alpha, beta, n) > p
            k = float(10.0 ** rng.uniform(-3, 3))
            p_scaled = adoption_probability(k * eu, alpha / k, beta, n)
            assert p_scaled == pytest.approx(p, rel=1e-12)


class TestStepYearDeterministic:
    """Deterministic years through run_simulation's recurrence."""

    def test_hazard_draws_from_remaining_pool(self):
        # generation 0, maintenance 0, subsidy == cost -> EU = 0 -> p = beta/2
        params = make_params(
            pv_cost_min=10000.0, pv_cost_max=10000.0, end_year=2005,
            annual_generation_kwh=0.0, maintenance_rate=0.0, beta=0.002,
        )
        result = run_simulation(params, flat_series(params, 0.2), flat_series(params, 10000.0))
        (record,) = result.records
        assert record.year == 2005
        assert record.economic_utility == 0.0
        assert record.probability == pytest.approx(0.001, rel=1e-12)
        assert record.new_adopters == pytest.approx(18.0, rel=1e-12)
        assert record.cumulative_adopters == pytest.approx(18.0, rel=1e-12)

    def test_saturated_population_adds_nobody(self):
        # beta = 1 and a huge utility give p = nextafter(1, 0): the first
        # year takes the whole pool up to rounding, later years add nothing
        params = make_params(end_year=2008, alpha=1.0, beta=1.0)
        records = run_simulation(params, flat_series(params, 0.2),
                                 flat_series(params, 1e12)).records
        new = [r.new_adopters for r in records]
        cumulative = [r.cumulative_adopters for r in records]
        assert all(r.probability == math.nextafter(1.0, 0.0) for r in records)
        assert cumulative[0] == pytest.approx(18000.0, rel=1e-12)
        assert all(0.0 <= n < 1e-9 for n in new[1:])
        assert cumulative == sorted(cumulative) and cumulative[-1] <= 18000.0

    def test_literal_semantics_recompute_the_level(self):
        params = make_params(adoption_semantics="literal", beta=0.002)
        prices = flat_series(params, 0.2)
        subsidies = flat_series(params, 2000.0)
        result = run_simulation(params, prices, subsidies)
        for record in result.records:
            assert record.cumulative_adopters == pytest.approx(
                record.probability * params.total_farmers, rel=1e-12
            )
            assert record.new_adopters >= 0.0


class TestStepYearStochastic:
    """One stochastic year, through one-year run_simulation scenarios."""

    def test_same_seed_gives_bit_identical_records(self):
        params = make_params(mode="stochastic", seed=123, beta=0.05, end_year=2005)
        prices, subsidies = flat_series(params, 0.25), flat_series(params, 3000.0)
        first = run_simulation(params, prices, subsidies)
        assert run_simulation(params, prices, subsidies) == first

    def test_vectorized_utilities_match_per_agent_route(self):
        costs = np.random.default_rng(5).uniform(0.0, 40000.0, size=50)
        for horizon, rate, maintenance, generation in (
            (20, 0.04, 0.02, 6000.0),
            (0, 0.0, 0.0, 0.0),
            (35, -0.3, 0.15, 12000.0),
            (7, 0.35, 0.4, 250.0),
        ):
            params = make_params(horizon_years=horizon, discount_rate=rate,
                                 maintenance_rate=maintenance, annual_generation_kwh=generation)
            annuity = _annuity(params)
            for price, subsidy in ((0.21, 2500.0), (0.0, 0.0), (0.9, 6000.0)):
                vectorized = _utility(params, annuity, price, costs, subsidy)
                for cost, utility in zip(costs, vectorized):
                    direct = agent_utility(float(cost), params, price, subsidy)
                    assert utility == pytest.approx(direct, rel=1e-12)

    def test_annuity_is_the_npv_of_one_eur_a_year_bit_for_bit(self):
        for horizon, rate in ((0, 0.0), (20, 0.04), (35, -0.3), (7, 0.35), (9999, 0.01)):
            params = make_params(horizon_years=horizon, discount_rate=rate)
            assert _annuity(params) == net_present_value([1.0] * (horizon + 1), rate)

    def test_record_reports_mean_probability_of_remaining_agents(self):
        params = make_params(total_farmers=200, mode="stochastic", seed=11, beta=0.05,
                             end_year=2005)
        result = run_simulation(params, flat_series(params, 0.25), flat_series(params, 3000.0))
        (record,) = result.records
        assert 0.0 < record.probability < params.beta
        assert record.new_adopters == record.cumulative_adopters

    def test_all_adopted_population_reports_zero_new(self):
        # beta = 1 and a huge subsidy: every farmer adopts in the first year
        params = make_params(total_farmers=10, mode="stochastic", seed=3, beta=1.0,
                             end_year=2007)
        result = run_simulation(params, flat_series(params, 0.2), flat_series(params, 1e9))
        first, *later = result.records
        assert first.new_adopters == first.cumulative_adopters == 10.0
        for record in later:
            assert record.new_adopters == 0.0
            assert record.cumulative_adopters == 10.0
            assert math.isfinite(record.economic_utility)
            assert 0.0 < record.probability < 1.0

    def test_stochastic_run_holds_no_population_sized_array_but_costs(self):
        params = make_params(total_farmers=10**6, mode="stochastic", seed=11, end_year=2007)
        years = engine._stochastic_run(params, _annuity(params), np.full(3, 0.25),
                                       np.full(3, 3000.0))
        tracemalloc.start()
        try:
            assert len(list(years)) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cost_bytes = 8 * params.total_farmers
        assert peak < 1.5 * cost_bytes
        # about 6.5 piece-sized arrays past the costs; 8.5 if a piece's arrays outlive it
        assert (peak - cost_bytes) / (8 * engine._BLOCK) < 7.5


class TestInitializeState:
    """Per-farmer PV costs drawn at the start of a stochastic run."""

    def test_costs_sampled_within_range_in_id_order(self):
        # reference stream: N cost draws, then each year one draw per
        # not-yet-adopted farmer in id order, scored with the oracle route
        params = make_params(mode="stochastic", seed=99, total_farmers=1000, beta=0.5,
                             end_year=2007)
        result = run_simulation(params, flat_series(params, 0.2), flat_series(params, 2000.0))
        rng = np.random.Generator(np.random.PCG64(99))
        costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
        assert np.all(costs >= params.pv_cost_min)
        assert np.all(costs <= params.pv_cost_max)
        adopted = np.zeros(params.total_farmers, dtype=bool)
        for record in result.records:
            remaining = np.flatnonzero(~adopted)
            p = [adoption_probability(agent_utility(float(c), params, 0.2, 2000.0),
                                      params.alpha, params.beta, params.total_farmers)
                 for c in costs[remaining]]
            adopted[remaining[rng.random(len(remaining)) < p]] = True
            assert record.cumulative_adopters == np.count_nonzero(adopted)
        assert 0 < np.count_nonzero(adopted) < params.total_farmers

    def test_homogeneous_range_collapses_to_single_cost(self):
        params = make_params(pv_cost_min=9000.0, pv_cost_max=9000.0,
                             mode="stochastic", seed=1, total_farmers=100, end_year=2005)
        prices, subsidies = flat_series(params, 0.2), flat_series(params, 2000.0)
        (stochastic,) = run_simulation(params, prices, subsidies).records
        (deterministic,) = run_simulation(
            replace(params, mode="deterministic"), prices, subsidies).records
        assert stochastic.economic_utility == pytest.approx(
            deterministic.economic_utility, rel=1e-12)
        assert stochastic.probability == pytest.approx(deterministic.probability, rel=1e-12)


class TestRunSimulation:
    def test_one_record_per_year(self, default_params, price_series, subsidy_series):
        result = run_simulation(default_params, price_series, subsidy_series)
        assert len(result.records) == 18
        assert [r.year for r in result.records] == list(range(2005, 2023))
        assert result.params_digest == default_params.digest

    def test_deterministic_mode_is_pure(self, default_params, price_series, subsidy_series):
        a = run_simulation(default_params, price_series, subsidy_series)
        b = run_simulation(default_params, price_series, subsidy_series)
        assert a == b

    def test_hazard_run_computes_its_exponentials_once(self, default_params, price_series,
                                                       subsidy_series, monkeypatch):
        # the hazard levels come from the probability column, not from a second exp pass
        calls = []
        decay = engine._decay

        def counting_decay(*args, **kwargs):
            calls.append(args[1])
            return decay(*args, **kwargs)

        monkeypatch.setattr(engine, "_decay", counting_decay)
        assert default_params.adoption_semantics == "hazard"
        run_simulation(default_params, price_series, subsidy_series)
        assert calls == [default_params.alpha]

    def test_tiny_beta_limit_gives_no_adoption(self, price_series, subsidy_series):
        params = make_params(beta=1e-12)
        result = run_simulation(params, price_series, subsidy_series)
        assert result.records[-1].cumulative_adopters < 1e-3

    def test_beta_zero_rejected_at_validation(self):
        with pytest.raises(ValidationError, match="beta"):
            make_params(beta=0.0)

    def test_coverage_gap_fails_fast(self, default_params):
        short_prices = YearSeries(2010, [0.2] * 13)
        subsidies = flat_series(default_params, 2000.0)
        with pytest.raises(CoverageGapError) as excinfo:
            run_simulation(default_params, short_prices, subsidies)
        assert excinfo.value.missing_years == tuple(range(2005, 2010))
        assert "2005" in str(excinfo.value)

    def test_hazard_cumulative_monotone_and_bounded_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            start = int(rng.integers(1990, 2020))
            span = int(rng.integers(1, 20))
            params = make_params(
                pv_cost_min=float(rng.uniform(0, 10000)),
                pv_cost_max=float(rng.uniform(10000, 40000)),
                maintenance_rate=float(rng.uniform(0, 0.4)),
                discount_rate=float(rng.uniform(-0.4, 0.4)),
                total_farmers=int(rng.integers(1, 100000)),
                start_year=start,
                end_year=start + span,
                horizon_years=int(rng.integers(0, 40)),
                annual_generation_kwh=float(rng.uniform(0, 20000)),
                alpha=float(10.0 ** rng.uniform(-3, 2)),
                beta=float(10.0 ** rng.uniform(-5, 0)),
            )
            years = range(span + 1)
            prices = YearSeries(start, [float(rng.uniform(0, 1)) for _ in years])
            subsidies = YearSeries(start, [float(rng.uniform(0, 5000)) for _ in years])
            result = run_simulation(params, prices, subsidies)
            previous = 0.0
            for record in result.records:
                assert record.cumulative_adopters >= previous
                assert record.cumulative_adopters <= params.total_farmers
                previous = record.cumulative_adopters

    def test_stochastic_run_is_reproducible(self, price_series, subsidy_series):
        params = make_params(mode="stochastic", seed=42, total_farmers=500, beta=0.05)
        a = run_simulation(params, price_series, subsidy_series)
        b = run_simulation(params, price_series, subsidy_series)
        assert a == b
        final = a.records[-1].cumulative_adopters
        assert final == float(int(final))  # integer counts


@pytest.mark.parametrize("short, named, missing", [
    ("price", "price series covers 2008-2022", (2005, 2006, 2007)),
    ("subsidy", "subsidy series covers 2007-2022", (2005, 2006)),
    ("both", "price series covers 2008-2022", (2005, 2006, 2007)),
], ids=["price", "subsidy", "both"])
@pytest.mark.parametrize("entry", ["monte-carlo", "calibrate"])
def test_coverage_gap_fails_before_any_draw_or_grid_cell(default_bundle, monkeypatch, entry,
                                                         short, named, missing):
    params, prices, subsidies, target = default_bundle
    if short != "subsidy":
        prices = YearSeries(2008, prices.values[3:])
    if short != "price":
        subsidies = YearSeries(2007, subsidies.values[2:])

    def no_work(*args):
        raise AssertionError("work started before the coverage check")

    # every draw starts from a PCG64, and every grid cell or poll from the kernel or _decay
    monkeypatch.setattr(np.random, "PCG64", no_work)
    for module, name in ((engine, "_probability_array"), (calibration, "_probability_array"),
                         (calibration, "_decay")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(CoverageGapError) as excinfo:
        if entry == "monte-carlo":
            run_monte_carlo(params, prices, subsidies, replications=3, base_seed=0)
        else:
            calibrate(params, prices, subsidies, target)
    assert excinfo.value.missing_years == missing
    assert str(excinfo.value) == (f"{named} but the scenario needs 2005-2022; missing years: "
                                  + ", ".join(map(str, missing)))
