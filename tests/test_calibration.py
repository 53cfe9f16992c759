import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dairypv import calibration
from dairypv.calibration import (
    GRID_ALPHAS,
    GRID_BETAS,
    GRID_SIZE,
    REFINE_TOLERANCE,
    _INITIAL_STEP,
    CalibrationTarget,
    _Objective,
    calibrate,
)
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


OBSERVATIONS = [
    ((2022, 441.0),),
    ((2008, 641.0), (2013, 1425.0)),
    ((2005, 57.0), (2007, 173.0), (2020, 942.0)),
]


@pytest.mark.parametrize("observations", OBSERVATIONS)
def test_no_point_is_scored_twice(default_params, price_series, subsidy_series, monkeypatch,
                                  observations):
    scored = []
    grid, loss = _Objective.grid, _Objective.loss

    def recording_grid(self):
        cells = grid(self)
        scored.extend((alpha, beta) for _, alpha, beta in cells)
        return cells

    def recording_loss(self, alpha, beta):
        scored.append((alpha, beta))
        return loss(self, alpha, beta)

    monkeypatch.setattr(_Objective, "grid", recording_grid)
    monkeypatch.setattr(_Objective, "loss", recording_loss)
    target = CalibrationTarget(observations=observations)
    result = calibrate(default_params, price_series, subsidy_series, target, budget=2000)
    assert result.evaluations == 2000
    assert len(set(scored)) == len(scored)
    # Hooke-Jeeves re-polls points, so fewer points are scored than evaluated
    assert GRID_SIZE < len(scored) < result.evaluations


@pytest.mark.parametrize("observations", OBSERVATIONS)
def test_alpha_half_is_computed_once_per_scored_alpha(
        default_params, price_series, subsidy_series, monkeypatch, observations):
    computed, polled = [], []
    decay, loss = calibration._decay, _Objective.loss

    def recording_decay(magnitudes, alpha, total_farmers):
        computed.extend(np.ravel(alpha).tolist())
        return decay(magnitudes, alpha, total_farmers)

    def recording_loss(self, alpha, beta):
        polled.append(alpha)
        return loss(self, alpha, beta)

    monkeypatch.setattr(calibration, "_decay", recording_decay)
    monkeypatch.setattr(_Objective, "loss", recording_loss)
    target = CalibrationTarget(observations=observations)
    calibrate(default_params, price_series, subsidy_series, target, budget=2000)
    assert len(set(computed)) == len(computed)
    # the grid keeps no e list, so only a polled alpha has one
    assert set(computed) == set(polled)
    # beta polls reuse an alpha, so fewer e lists are computed than points polled
    assert len(computed) < len(polled)


# sha256 of every poll's (alpha.hex(), beta.hex(), loss.hex()), in call order, at budget
# 2000: the bundled target (squared error), then each of OBSERVATIONS under absolute error.
SEARCH_PATHS = [
    (None, "95eda169b331176f22e8f241a851e89b8ba647285e9bf52c9c196a26dc64390d"),
    (OBSERVATIONS[0], "d5706e3b523ce447d4bb61939dfe6d69b5613f4d87178a13b03ff5675da52947"),
    (OBSERVATIONS[1], "451cd13d5f6b1eba6f0e2442c55d8067f12db94c168e8fc79cd6f7b3b2319f8a"),
    (OBSERVATIONS[2], "c7488bcc2f5accb756fe81593323b1c12a6cc964fbe7072cacc3239c04162007"),
]


@pytest.mark.parametrize("observations, expected", SEARCH_PATHS,
                         ids=["bundled", "absolute-1", "absolute-2", "absolute-3"])
def test_search_path_is_pinned(default_bundle, monkeypatch, observations, expected):
    target = (default_bundle.target if observations is None else
              CalibrationTarget(observations=observations, loss="absolute_error"))
    digest = hashlib.sha256()
    call = _Objective.__call__

    def recording_call(self, log_alpha, log_beta):
        value = call(self, log_alpha, log_beta)
        loss, alpha, beta = value
        digest.update(f"{alpha.hex()} {beta.hex()} {loss.hex()}\n".encode())
        return value

    monkeypatch.setattr(_Objective, "__call__", recording_call)
    params, prices, subsidies, _ = default_bundle
    calibrate(params, prices, subsidies, target, budget=2000)
    assert digest.hexdigest() == expected


class StubObjective:
    """Returns the given losses in poll order and records the polled points."""

    exhausted = False

    def __init__(self, losses):
        self._losses = iter(losses)
        self.polls = []

    def __call__(self, log_alpha, log_beta):
        self.polls.append((log_alpha, log_beta))
        return next(self._losses), 10.0**log_alpha, 10.0**log_beta


@pytest.mark.parametrize("start_loss, losses, moved_to", [
    (1.0, [math.nan] * 4, None),
    (1.0, [math.inf] * 4, None),
    (math.inf, [math.nan, math.inf, 3.0], (0.0, -1.5)),  # an overflowed pattern probe
    (math.nan, [0.0, math.inf, 1.0, math.nan], None),  # a NaN pattern probe
], ids=["nan_polls", "inf_polls", "from_inf", "from_nan"])
def test_sweep_moves_only_to_a_lower_finite_loss(start_loss, losses, moved_to):
    start, start_value = (0.0, -2.0), (start_loss, 1.0, 0.01)
    objective = StubObjective(losses)
    point, value = calibration._explore(objective, start, start_value, 0.5)
    assert len(objective.polls) == len(losses)
    if moved_to is None:
        assert (point, value) == (start, start_value)
    else:
        assert (point, value[0]) == (moved_to, losses[-1])


def test_no_halved_step_equals_the_tolerance_so_gt_and_ge_agree():
    # _pattern_search runs while step >= REFINE_TOLERANCE; `>` would differ only at a
    # step equal to it, and no halving of _INITIAL_STEP, down to 0, is that float
    steps = [_INITIAL_STEP]
    while steps[-1]:
        steps.append(steps[-1] / 2.0)
    assert REFINE_TOLERANCE not in steps
