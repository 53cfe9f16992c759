"""Recovers the adoption-curve parameters (alpha, beta) from observed data.

Coarse log-spaced grid search followed by derivative-free pattern search
(Hooke-Jeeves: coordinate polls plus accelerating pattern moves) in log10
space. Refinement restarts from successive grid points in loss order until
the evaluation budget runs out: the objective can form separate basins
(scale/sensitivity trade-offs between beta and alpha), so polishing only
the single best cell can land in a local minimum.

The whole procedure is deterministic: fixed grid, fixed poll order, and the
tie-break (lowest loss, then smallest alpha, then smallest beta) is applied
through explicit key comparison so the outcome would not depend on
evaluation order even if grid points were evaluated concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import require_finite, require_integer
from .engine import _TINY, _decay, _hazard, _probability_array, _yearly_inputs
from .errors import CalibrationFailedError, ValidationError

ALPHA_BOUNDS = (_ALPHA_LO, _ALPHA_HI) = (1e-3, 100.0)
BETA_BOUNDS = (_BETA_LO, _BETA_HI) = (1e-5, 1.0)
GRID_POINTS_PER_AXIS = 20
GRID_SIZE = GRID_POINTS_PER_AXIS**2
# Pattern search stops once its log10 step drops below this (relative
# parameter changes of about 2.3e-6).
REFINE_TOLERANCE = 1e-6

LOSS_KINDS = ("squared_error", "absolute_error")


def _clamp(value, lo, hi):
    return lo if value < lo else hi if value > hi else value


_LOG_ALPHA = (math.log10(_ALPHA_LO), math.log10(_ALPHA_HI))
_LOG_BETA = (math.log10(_BETA_LO), math.log10(_BETA_HI))
# The grid axes, made from evenly spaced log10 coordinates as a poll makes its point,
# and pattern search's first step: the wider log10 grid spacing.
GRID_ALPHAS, GRID_BETAS = (
    [_clamp(10.0**x, *bounds)
     for x in np.linspace(*log_bounds, GRID_POINTS_PER_AXIS).tolist()]
    for log_bounds, bounds in ((_LOG_ALPHA, ALPHA_BOUNDS), (_LOG_BETA, BETA_BOUNDS)))
_GRID_POINTS = [(alpha, beta) for alpha in GRID_ALPHAS for beta in GRID_BETAS]
_INITIAL_STEP = max(b - a for a, b in (_LOG_ALPHA, _LOG_BETA)) / (GRID_POINTS_PER_AXIS - 1)


@dataclass(frozen=True)
class CalibrationTarget:
    """Observed (year, cumulative adopters) pairs and the loss to minimize."""

    observations: tuple
    loss: str = "squared_error"

    def __post_init__(self):
        observations = tuple((require_integer(f"observation[{i}] year", y),
                              require_finite(f"observation[{y}]", v))
                             for i, (y, v) in enumerate(self.observations))
        object.__setattr__(self, "observations", observations)
        if not observations:
            raise ValidationError("target must contain at least one observation")
        years = [y for y, _ in observations]
        if len(set(years)) != len(years):
            raise ValidationError("target observation years must be unique")
        if self.loss not in LOSS_KINDS:
            raise ValidationError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")

    def validate_against(self, params):
        """Check observations fit the scenario's year range and population."""
        for year, value in self.observations:
            if not params.start_year <= year <= params.end_year:
                raise ValidationError(
                    f"target year {year} outside scenario range "
                    f"{params.start_year}-{params.end_year}"
                )
            if not 0 <= value <= params.total_farmers:
                raise ValidationError(
                    f"target value {value} for year {year} outside "
                    f"[0, {params.total_farmers}]"
                )


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted parameters plus search diagnostics."""

    alpha: float
    beta: float
    achieved_loss: float
    evaluations: int
    converged: bool

    def __post_init__(self):
        for name in ("alpha", "beta", "achieved_loss"):
            require_finite(name, getattr(self, name))
        if self.achieved_loss < 0:
            raise ValidationError(f"achieved_loss must be >= 0, got {self.achieved_loss}")


class _Objective:
    """Budget-counting loss in log10 coordinates.

    The midpoint-cost utilities U do not depend on (alpha, beta), so U, |U| and U >= 0
    are kept from one pass up to the last observed year, and engine._decay's e as a
    list per polled alpha: a beta poll reruns only loss's scalar curve. A point scored before
    (Hooke-Jeeves re-polls some) is looked up, but still counts toward the budget.
    """

    def __init__(self, params, prices, subsidies, target, budget):
        self._observed = [(year - params.start_year, value)
                          for year, value in target.observations]
        last = max(index for index, _ in self._observed)
        _, _, _, midpoint, _ = _yearly_inputs(params, prices, subsidies)
        self._utilities = utilities = midpoint[:last + 1]
        self._magnitudes, self._nonneg = np.abs(utilities), (utilities >= 0).tolist()
        self._total = float(params.total_farmers)  # float - float is Python's fast path
        self._squared = target.loss == "squared_error"
        self._decays = {}  # alpha -> engine._decay's e as a list
        self._scored = {}  # (alpha, beta) -> loss
        self.budget = budget
        self.evaluations = 0

    @property
    def exhausted(self):
        return self.evaluations >= self.budget

    def loss(self, alpha, beta):
        """Loss at one point: engine._probability_array and _hazard in scalars, with their
        bits (a NaN p passes the clamp, as in np.clip); on <= 18 values a loop beats numpy."""
        decay = self._decays.get(alpha)
        if decay is None:
            decay = self._decays[alpha] = _decay(self._magnitudes, alpha, self._total).tolist()
        lo, hi, total = _TINY, math.nextafter(beta, 0.0), self._total
        level, levels = 0.0, []
        for e, nonneg in zip(decay, self._nonneg):
            p = (beta if nonneg else e * beta) / (1.0 + e)
            p = lo if p < lo else hi if p > hi else p
            level += p * (total - level)
            levels.append(level)
        return self._loss_of(levels)

    def _loss_of(self, levels):
        """Sum of each observation's error, in target order; levels are floats or arrays."""
        loss = 0.0
        for index, observed in self._observed:
            diff = levels[index] - observed
            loss += diff * diff if self._squared else abs(diff)
        return loss

    def grid(self):
        """(loss, alpha, beta) per grid cell, alpha-major, from engine._probability_array
        and _hazard on (year, alpha, beta) arrays; each loss, not each e list, is kept for
        polls, which revisit few grid alphas (3 of 20 on the bundled target)."""
        alphas, total = np.array(GRID_ALPHAS)[:, None], self._total
        shape = (len(self._utilities), GRID_POINTS_PER_AXIS, GRID_POINTS_PER_AXIS)
        utilities = np.broadcast_to(self._utilities[:, None, None], shape)
        levels = _hazard(_probability_array(utilities, alphas, np.array(GRID_BETAS), total), total)
        losses = self._loss_of(levels).ravel().tolist()
        self.evaluations += GRID_SIZE
        self._scored.update(zip(_GRID_POINTS, losses))
        return [(loss, alpha, beta) for loss, (alpha, beta) in zip(losses, _GRID_POINTS)]

    def __call__(self, log_alpha, log_beta):
        alpha = _clamp(10.0**log_alpha, _ALPHA_LO, _ALPHA_HI)
        beta = _clamp(10.0**log_beta, _BETA_LO, _BETA_HI)
        self.evaluations += 1
        key = alpha, beta
        loss = self._scored.get(key)
        if loss is None:
            loss = self._scored[key] = self.loss(alpha, beta)
        return loss, alpha, beta


def _explore(objective, point, value, step):
    """One Hooke-Jeeves exploratory sweep: poll +/-step on each coordinate.

    A loss is >= 0, +inf or NaN, and neither inf nor NaN compares lower than
    anything: a sweep never moves to a non-finite poll, nor from a NaN value.
    """
    for axis, (lo, hi) in enumerate((_LOG_ALPHA, _LOG_BETA)):
        for direction in (step, -step):
            if objective.exhausted:
                return point, value
            moved = _clamp(point[axis] + direction, lo, hi)
            if moved == point[axis]:
                continue
            trial = (moved, point[1]) if axis == 0 else (point[0], moved)
            result = objective(*trial)
            if result[0] < value[0]:
                point, value = trial, result
                break
    return point, value


def _pattern_search(objective, point, value, step):
    """Hooke-Jeeves refinement from one start; returns (value, reached_tol).

    `value` tuples are (loss, alpha, beta) so comparisons apply the
    deterministic tie-break directly. After a move from `previous` to `point`
    the next sweep starts at the pattern probe 2*point - previous; a failed
    probe sweep falls back to `point`, and a failed sweep there halves the step.
    """
    previous = None
    while not objective.exhausted and step >= REFINE_TOLERANCE:
        if previous is None:
            origin, origin_value = point, value
        else:
            origin = (_clamp(2.0 * point[0] - previous[0], *_LOG_ALPHA),
                      _clamp(2.0 * point[1] - previous[1], *_LOG_BETA))
            origin_value = objective(*origin)
        new, new_value = _explore(objective, origin, origin_value, step)
        if new_value[0] < value[0]:
            previous, point, value = point, new, new_value
        elif previous is None:
            step /= 2.0
        else:
            previous = None
    return value, step < REFINE_TOLERANCE


@np.errstate(over="ignore")  # alpha*U overflowing to +-inf gives the cap or the floor
def calibrate(params, prices, subsidies, target, budget=2000):
    """Fit (alpha, beta) so the deterministic simulation matches the target.

    A 20x20 log-spaced grid over the parameter bounds is evaluated first;
    pattern search then polishes grid points in loss order (best cell
    first, restarting from the next-best cells while budget remains).
    `budget` caps the total number of objective evaluations and must cover
    at least the grid; with budget equal to the grid size the result is
    exactly the best grid point.

    Returns a CalibrationResult; `converged` is True when the refinement
    that produced the returned candidate reached the step tolerance rather
    than being cut off by the budget.
    """
    target.validate_against(params)
    budget = require_integer("budget", budget)
    if budget < GRID_SIZE:
        raise ValidationError(f"budget must be >= the grid size {GRID_SIZE}, got {budget}")

    objective = _Objective(params, prices, subsidies, target, budget)
    grid = sorted(cell for cell in objective.grid() if math.isfinite(cell[0]))
    if not grid:
        raise CalibrationFailedError(
            "no grid point produced a finite loss; calibration cannot proceed"
        )

    best = (grid[0], True)  # ((loss, alpha, beta), not converged): ties go to converged
    for start in grid:
        if objective.exhausted:
            break
        point = (math.log10(start[1]), math.log10(start[2]))
        value, reached_tol = _pattern_search(objective, point, start, _INITIAL_STEP)
        best = min(best, (value, not reached_tol))

    (loss, alpha, beta), unconverged = best
    return CalibrationResult(
        alpha=alpha,
        beta=beta,
        achieved_loss=loss,
        evaluations=objective.evaluations,
        converged=not unconverged,
    )
