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
from .engine import _curve, _logistic, representative_utilities
from .errors import CalibrationFailedError, ValidationError

ALPHA_BOUNDS = (1e-3, 100.0)
BETA_BOUNDS = (1e-5, 1.0)
GRID_POINTS_PER_AXIS = 20
GRID_SIZE = GRID_POINTS_PER_AXIS**2
# Pattern search stops once its log10 step drops below this (relative
# parameter changes of about 2.3e-6).
REFINE_TOLERANCE = 1e-6

LOSS_KINDS = ("squared_error", "absolute_error")

_LOG_ALPHA = (math.log10(ALPHA_BOUNDS[0]), math.log10(ALPHA_BOUNDS[1]))
_LOG_BETA = (math.log10(BETA_BOUNDS[0]), math.log10(BETA_BOUNDS[1]))


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


def _clamp(value, lo, hi):
    return lo if value < lo else hi if value > hi else value


class _Objective:
    """Budget-counting loss in log10 coordinates.

    The midpoint-cost utilities do not depend on (alpha, beta), so they are
    computed once, up to the last observed year; the kernel's alpha half is
    computed once per alpha and kept as lists, so a beta poll reruns only
    engine._curve. A point scored before (Hooke-Jeeves re-polls some) is
    looked up, but still counts toward the budget.
    """

    def __init__(self, params, prices, subsidies, target, budget):
        self._observed = [(year - params.start_year, value)
                          for year, value in target.observations]
        last = max(index for index, _ in self._observed)
        self._utilities = representative_utilities(params, prices, subsidies)[:last + 1]
        self._total = float(params.total_farmers)  # float - float is Python's fast path
        self._squared = target.loss == "squared_error"
        self._halves = {}  # alpha -> (s, d) lists from engine._logistic
        self._scored = {}  # (alpha, beta) -> loss
        self.budget = budget
        self.evaluations = 0

    @property
    def exhausted(self):
        return self.evaluations >= self.budget

    def loss(self, alpha, beta):
        if alpha not in self._halves:
            s, d = _logistic(self._utilities, alpha, self._total)
            self._halves[alpha] = (s.tolist(), d.tolist())
        return self._score(self._halves[alpha], beta)

    def _score(self, halves, beta):
        """Loss from an alpha half: engine._curve's levels against the observations."""
        _, levels = _curve(*halves, beta, self._total)
        loss = 0.0
        for index, observed in self._observed:
            diff = levels[index] - observed
            loss += diff * diff if self._squared else abs(diff)
        return loss

    def grid(self, alphas, betas):
        """(loss, alpha, beta) of every pair, alpha-major; the alpha halves in one array pass."""
        s, d = _logistic(self._utilities, alphas[:, None], self._total)
        betas = betas.tolist()
        cells = []
        for alpha, halves in zip(alphas.tolist(), zip(s.tolist(), d.tolist())):
            self._halves[alpha] = halves
            cells.extend((self._score(halves, beta), alpha, beta) for beta in betas)
        self.evaluations += len(cells)
        self._scored.update(((alpha, beta), loss) for loss, alpha, beta in cells)
        return cells

    def __call__(self, log_alpha, log_beta):
        alpha = _clamp(10.0**log_alpha, *ALPHA_BOUNDS)
        beta = _clamp(10.0**log_beta, *BETA_BOUNDS)
        self.evaluations += 1
        loss = self._scored.get((alpha, beta))
        if loss is None:
            loss = self._scored[alpha, beta] = self.loss(alpha, beta)
        return loss, alpha, beta


def _explore(objective, point, value, step):
    """One Hooke-Jeeves exploratory sweep: poll +/-step on each coordinate.

    A loss is >= 0, +inf or NaN, and neither inf nor NaN compares lower than
    anything: a sweep never moves to a non-finite poll, nor from a NaN value.
    """
    for axis, bounds in enumerate((_LOG_ALPHA, _LOG_BETA)):
        for direction in (step, -step):
            if objective.exhausted:
                return point, value
            trial = list(point)
            trial[axis] = _clamp(point[axis] + direction, *bounds)
            if trial[axis] == point[axis]:
                continue
            result = objective(*trial)
            if result[0] < value[0]:
                point, value = tuple(trial), result
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

    # logspace endpoints can land one ulp outside the declared bounds
    alphas = np.clip(np.logspace(*_LOG_ALPHA, GRID_POINTS_PER_AXIS), *ALPHA_BOUNDS)
    betas = np.clip(np.logspace(*_LOG_BETA, GRID_POINTS_PER_AXIS), *BETA_BOUNDS)
    spans = (_LOG_ALPHA[1] - _LOG_ALPHA[0], _LOG_BETA[1] - _LOG_BETA[0])
    initial_step = max(spans) / (GRID_POINTS_PER_AXIS - 1)  # the wider log10 grid spacing

    objective = _Objective(params, prices, subsidies, target, budget)
    grid = sorted(cell for cell in objective.grid(alphas, betas) if math.isfinite(cell[0]))
    if not grid:
        raise CalibrationFailedError(
            "no grid point produced a finite loss; calibration cannot proceed"
        )

    best = (grid[0], True)  # ((loss, alpha, beta), not converged): ties go to converged
    for start in grid:
        if objective.exhausted:
            break
        point = (math.log10(start[1]), math.log10(start[2]))
        value, reached_tol = _pattern_search(objective, point, start, initial_step)
        best = min(best, (value, not reached_tol))

    (loss, alpha, beta), unconverged = best
    return CalibrationResult(
        alpha=alpha,
        beta=beta,
        achieved_loss=loss,
        evaluations=objective.evaluations,
        converged=not unconverged,
    )
