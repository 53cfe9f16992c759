import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dairypv import calibration, engine
from dairypv.calibration import calibrate
from dairypv.domain import YearSeries
from dairypv.engine import _annuity, _utility, run_monte_carlo, run_simulation
from dairypv.errors import CoverageGapError, ValidationError
from conftest import make_params
from reference import adoption_probability, agent_utility, net_present_value


def flat_series(params, value):
    return YearSeries(params.start_year, [value] * (params.end_year - params.start_year + 1))


class TestProbabilityKernel:
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



class TestDeterministicRun:
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


class TestStochasticRun:
    """One stochastic year, through one-year run_simulation scenarios."""

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
        years = engine._stochastic_run(params, *engine._yearly_inputs(
            params, flat_series(params, 0.25), flat_series(params, 3000.0)))
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


class TestStochasticPopulation:
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

    def test_a_utility_past_float_range_names_its_own_year(self, subsidy_series):
        # only the 2010 price takes U past float range (6000 * 1e308 * A is inf)
        params = make_params()
        prices = YearSeries(2005, [0.2] * 5 + [1e308] + [0.2] * 12)
        with pytest.raises(ValidationError, match="^utility in 2010 is not finite"):
            run_simulation(params, prices, subsidy_series)

    def test_stochastic_mode_requires_seed(self, price_series, subsidy_series, monkeypatch):
        # only a stochastic run reads the seed, so a seedless stochastic scenario loads
        params = make_params(mode="stochastic")

        def no_draw(*args):
            raise AssertionError("a draw started before the seed check")

        monkeypatch.setattr(np.random, "PCG64", no_draw)
        with pytest.raises(ValidationError, match="^seed is required when mode is 'stochastic'$"):
            run_simulation(params, price_series, subsidy_series)


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


@pytest.mark.parametrize("entry", ["run", "monte-carlo"])
def test_a_draw_equal_to_p_does_not_adopt(price_series, subsidy_series, monkeypatch, entry):
    # a real stream hits draw == p with probability 0, so the draws and p are constructed:
    # p is 0.25 for everyone, farmer 0 draws exactly 0.25 each year and the rest draw 0
    p = 0.25

    class ConstructedDraws:
        def __init__(self, bit_generator):
            pass

        def uniform(self, low, high, size):
            return np.full(size, low)

        def random(self, size):
            draws = np.zeros(size)
            draws[:1] = p
            return draws

    monkeypatch.setattr(np.random, "Generator", ConstructedDraws)
    monkeypatch.setattr(engine, "_probability_array", lambda u, *args: np.full(np.shape(u), p))
    params = make_params(total_farmers=10, beta=0.5, mode="stochastic", seed=0)
    if entry == "run":
        result = run_simulation(params, price_series, subsidy_series)
        curve = [record.cumulative_adopters for record in result.records]
    else:
        summary = run_monte_carlo(params, price_series, subsidy_series, replications=1,
                                  base_seed=0)
        curve = [row.mean for row in summary.rows]
    assert curve == [9.0] * 18  # adopts iff draw < p: farmer 0 never does
