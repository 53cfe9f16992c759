import math
from dataclasses import replace

import numpy as np
import pytest

from dairypv.calibration import (
    _GRID_STEP,
    _LOG_ALPHA,
    _LOG_BETA,
    ALPHA_BOUNDS,
    BETA_BOUNDS,
    GRID_ALPHAS,
    GRID_BETAS,
    GRID_SIZE,
    REFINE_TOLERANCE,
    CalibrationTarget,
    calibrate,
)
from dairypv import calibration
from dairypv.domain import YearSeries
from dairypv.engine import run_simulation
from dairypv.errors import ValidationError
from reference import evaluate_loss


class TestCalibrationTarget:
    def test_requires_observations(self):
        with pytest.raises(ValidationError, match="observation"):
            CalibrationTarget(observations=())

    def test_duplicate_years_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            CalibrationTarget(observations=((2022, 441.0), (2022, 360.0)))

    @pytest.mark.parametrize("year", [2022.7, 2022.0, "2022", True, None])
    def test_year_must_be_an_integer(self, year):
        with pytest.raises(ValidationError, match=r"observation\[1\] year must be an integer"):
            CalibrationTarget(observations=((2021, 400.0), (year, 441.0)))

    def test_numpy_integer_year_is_stored_as_int(self):
        target = CalibrationTarget(observations=((np.int64(2022), 441.0),))
        assert target.observations == ((2022, 441.0),)
        assert type(target.observations[0][0]) is int

    def test_loss_kind_checked(self):
        with pytest.raises(ValidationError, match="loss"):
            CalibrationTarget(observations=((2022, 441.0),), loss="rmse")

    def test_validate_against_params(self, default_params):
        for value in (0.0, 441.0, float(default_params.total_farmers)):  # none to every farmer
            CalibrationTarget(observations=((2022, value),)).validate_against(default_params)
        with pytest.raises(ValidationError, match="2030"):
            CalibrationTarget(observations=((2030, 10.0),)).validate_against(default_params)
        for value in (-1.0, 99999.0):
            with pytest.raises(ValidationError, match="outside"):
                CalibrationTarget(observations=((2022, value),)).validate_against(default_params)


class TestEvaluateLoss:
    def test_self_consistency_gives_zero_loss(self, default_params, price_series, subsidy_series):
        params = replace(default_params, alpha=1.5, beta=0.02)
        result = run_simulation(params, price_series, subsidy_series)
        target = CalibrationTarget(
            observations=tuple((r.year, r.cumulative_adopters) for r in result.records)
        )
        loss = evaluate_loss((1.5, 0.02), default_params, price_series, subsidy_series, target)
        assert loss == 0.0

    def test_near_zero_beta_against_441(self, default_params, price_series, subsidy_series):
        target = CalibrationTarget(observations=((2022, 441.0),))
        loss = evaluate_loss((1.0, 1e-5), default_params, price_series, subsidy_series, target)
        assert loss == pytest.approx(441.0**2, rel=0.02)

    def test_absolute_error_loss(self, default_params, price_series, subsidy_series):
        target_sq = CalibrationTarget(observations=((2022, 441.0),), loss="squared_error")
        target_abs = CalibrationTarget(observations=((2022, 441.0),), loss="absolute_error")
        sq = evaluate_loss((1.0, 0.001), default_params, price_series, subsidy_series, target_sq)
        ab = evaluate_loss((1.0, 0.001), default_params, price_series, subsidy_series, target_abs)
        assert sq == pytest.approx(ab**2, rel=1e-12)

    def test_target_outside_scenario_rejected(self, default_params, price_series,
                                              subsidy_series):
        target = CalibrationTarget(observations=((2004, 10.0),))
        with pytest.raises(ValidationError, match="2004"):
            calibrate(default_params, price_series, subsidy_series, target)

    def test_scale_property_with_power_of_two_rescaling(
        self, default_params, price_series, subsidy_series
    ):
        # scaling prices, subsidies and the cost range by k scales every
        # utility by k exactly (k a power of two), so alpha/k reproduces
        # the identical adoption curve and loss
        target = CalibrationTarget(observations=((2022, 441.0),))
        base = evaluate_loss((2.0, 0.004), default_params, price_series, subsidy_series, target)
        k = 4.0
        scaled_params = replace(
            default_params,
            pv_cost_min=default_params.pv_cost_min * k,
            pv_cost_max=default_params.pv_cost_max * k,
        )
        scaled_prices = YearSeries(price_series.first_year, [v * k for v in price_series.values])
        scaled_subsidies = YearSeries(subsidy_series.first_year,
                                      [v * k for v in subsidy_series.values])
        scaled = evaluate_loss(
            (2.0 / k, 0.004), scaled_params, scaled_prices, scaled_subsidies, target
        )
        assert scaled == pytest.approx(base, rel=1e-12)


def brute_force_grid_best(params, prices, subsidies, target):
    """Independent oracle: argmin over the same published grid."""
    best = None
    for a in GRID_ALPHAS:
        for b in GRID_BETAS:
            loss = evaluate_loss((a, b), params, prices, subsidies, target)
            key = (loss, a, b)
            if best is None or key < best:
                best = key
    return best


class TestCalibrate:
    def test_budget_below_grid_rejected(self, default_params, price_series, subsidy_series):
        target = CalibrationTarget(observations=((2022, 441.0),))
        with pytest.raises(ValidationError, match="budget"):
            calibrate(default_params, price_series, subsidy_series, target, budget=399)

    @pytest.mark.parametrize("budget", [400.5, 400.0, True, "400"])
    def test_budget_must_be_an_integer(self, default_params, price_series, subsidy_series,
                                       budget):
        target = CalibrationTarget(observations=((2022, 441.0),))
        with pytest.raises(ValidationError, match="budget must be an integer"):
            calibrate(default_params, price_series, subsidy_series, target, budget=budget)

    def test_numpy_integer_budget_is_accepted(self, default_params, price_series,
                                              subsidy_series):
        target = CalibrationTarget(observations=((2022, 441.0),))
        fit = calibrate(default_params, price_series, subsidy_series, target,
                        budget=np.int64(GRID_SIZE + 1))
        assert fit == calibrate(default_params, price_series, subsidy_series, target,
                                budget=GRID_SIZE + 1)

    def test_grid_only_budget_returns_best_grid_point(
        self, default_params, price_series, subsidy_series
    ):
        target = CalibrationTarget(observations=((2022, 441.0),))
        result = calibrate(default_params, price_series, subsidy_series, target,
                           budget=GRID_SIZE)
        loss, alpha, beta = brute_force_grid_best(
            default_params, price_series, subsidy_series, target
        )
        assert result.evaluations == GRID_SIZE
        assert result.converged is False
        assert (result.achieved_loss, result.alpha, result.beta) == (loss, alpha, beta)

    def test_a_level_that_fits_the_budget_exactly_is_scored(self, default_bundle):
        # the whole search is the grid, 4 levels of 20x7 cells and 12 of 7x7: 1548 cells
        fit = calibrate(*default_bundle, budget=1548)
        assert (fit.evaluations, fit.converged) == (1548, True)
        fit = calibrate(*default_bundle, budget=1547)
        assert (fit.evaluations, fit.converged) == (1499, False)

    def test_refinement_only_improves(self, default_params, price_series, subsidy_series):
        target = CalibrationTarget(observations=((2022, 441.0),))
        grid_best = brute_force_grid_best(default_params, price_series, subsidy_series, target)
        result = calibrate(default_params, price_series, subsidy_series, target, budget=1500)
        assert result.achieved_loss <= grid_best[0]

    def test_target_validated_against_scenario(
        self, default_params, price_series, subsidy_series
    ):
        bad = CalibrationTarget(observations=((1999, 10.0),))
        with pytest.raises(ValidationError, match="1999"):
            calibrate(default_params, price_series, subsidy_series, bad)

    def test_scenario_alpha_beta_mode_and_semantics_are_not_read(self, default_bundle):
        # the fit starts from its fixed grid and scores the deterministic hazard curve
        params, prices, subsidies, target = default_bundle
        ignored = replace(params, alpha=37.0, beta=0.9, mode="stochastic", seed=4,
                          adoption_semantics="literal")
        assert calibrate(ignored, prices, subsidies, target) == calibrate(
            params, prices, subsidies, target)


# perfbench calibrate targets (seed, op) on which the restarted Hooke-Jeeves search that
# the profile search replaced stopped above loss/scale 1e-4 at budget 2000; the values are
# those perfbench's generator writes.
STUCK_BASINS = {
    "seed3-op23": ((2005, 113.50975023164195), (2013, 1494.4532316836217),
                   (2021, 2932.4001912416707)),
    "seed8-op62": ((2008, 723.5878779988692), (2009, 902.8551332886702)),
    "seed15-op18": ((2005, 30.284902579884022), (2007, 94.09284913511439),
                    (2014, 346.01946095001045)),
    "seed20-op13": ((2006, 35.0252701605302), (2018, 266.26598887709827),
                    (2022, 351.67452787934985)),
}


@pytest.mark.parametrize("observations", STUCK_BASINS.values(), ids=STUCK_BASINS)
def test_former_stuck_basins_are_fitted(default_bundle, observations):
    params, prices, subsidies, _ = default_bundle
    fit = calibrate(params, prices, subsidies, CalibrationTarget(observations=observations),
                    budget=2000)
    assert fit.converged
    assert fit.achieved_loss <= 1e-4 * sum(value * value for _, value in observations)


def stub_scorer(levels, after):
    """A _scorer stand-in: level k's losses are all levels[k][0] but cell [1, 2], which is
    levels[k][1]; every later level is all `after`. Records (alphas, betas) per level."""
    scored = []

    def scorer(*args):
        def score(alphas, betas):
            fill, spot = levels[len(scored)] if len(scored) < len(levels) else (after, after)
            scored.append((alphas, betas))
            losses = np.full(betas.shape, fill)
            losses[1, 2] = spot
            return losses
        return score

    return scorer, scored


@pytest.mark.parametrize("levels, after, moved_at", [
    ([(1.0, 0.5), (math.nan, math.nan)], math.nan, 0),
    ([(1.0, 0.5), (math.inf, math.inf)], math.inf, 0),
    ([(math.inf, 3.0), (math.nan, 2.0)], math.inf, 1),  # an overflowed grid
    ([(math.nan, 3.0), (math.inf, 2.0)], math.nan, 1),  # a NaN grid
], ids=["nan_polls", "inf_polls", "from_inf", "from_nan"])
def test_sweep_moves_only_to_a_lower_finite_loss(default_bundle, monkeypatch, levels, after,
                                                 moved_at):
    # the best cell changes only to a lower finite loss, whatever NaN or inf a level holds
    scorer, scored = stub_scorer(levels, after)
    monkeypatch.setattr(calibration, "_scorer", scorer)
    fit = calibrate(*default_bundle, budget=2000)
    assert (fit.evaluations, fit.converged) == (1548, True)
    assert sum(betas.size for _, betas in scored) == fit.evaluations
    alphas, betas = scored[moved_at]
    assert (fit.achieved_loss, fit.alpha, fit.beta) == (levels[moved_at][1], alphas[1],
                                                        betas[1, 2])


def test_no_third_of_the_grid_step_equals_the_tolerance_so_lt_and_le_agree():
    # a level is scored while a half-width is >= REFINE_TOLERANCE; each level cuts a
    # half-width from _GRID_STEP to a third, and none of those, down to 0, is that float
    widths = [_GRID_STEP]
    while widths[-1]:
        widths.append(widths[-1] / 3.0)
    assert REFINE_TOLERANCE not in widths


def test_the_log10_bounds_give_the_bounds_exactly():
    # searched coordinates are clipped to these, so with Python's monotone 10.0**x no
    # searched value leaves the bounds before calibration._values clips it
    assert [10.0**x for x in (*_LOG_ALPHA, *_LOG_BETA)] == [*ALPHA_BOUNDS, *BETA_BOUNDS]
