"""Recovers the adoption-curve parameters (alpha, beta) from observed data.

For a fixed alpha every cumulative level rises with beta, so the best beta
for each alpha is a one-dimensional problem: the beta profile (Raue et al.,
Bioinformatics 25(15), 2009). The search scores that profile in levels, each
one engine._probability_array and _hazard call on a (years, alphas, betas per
alpha) array, in log10 coordinates:

- level 0 is the 20x20 log-spaced grid over the bounds;
- the next _BETA_LEVELS levels keep the 20 grid alphas and give each 7 betas
  spanning +-h around its best beta so far;
- every later level takes 7 alphas spanning +-g around the best profile alpha
  (at first its two grid neighbours), each with 7 betas spanning +-h around its
  best beta, interpolated over log alpha from the level before.

g and h start at the grid spacing, and each level cuts the ones it zooms to a
third. The search stops when both fall below REFINE_TOLERANCE (converged), or
when the next level would pass the budget. Every alpha and beta is a clipped
Python 10.0**x, so no searched point depends on numpy's SIMD path. The result
is the best of every scored cell by one tie-break: lowest loss, then smallest
alpha, then smallest beta; a NaN loss never wins.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import require_finite, require_integer
from .engine import _hazard, _probability_array, _yearly_inputs
from .errors import CalibrationFailedError, ValidationError

ALPHA_BOUNDS = (1e-3, 100.0)
BETA_BOUNDS = (1e-5, 1.0)
GRID_POINTS_PER_AXIS = 20
GRID_SIZE = GRID_POINTS_PER_AXIS**2
DEFAULT_BUDGET = 2000  # (alpha, beta) cells; calibrate's and the CLI's --budget default
# A level is scored while either log10 half-width is at least this.
REFINE_TOLERANCE = 1e-6
# Levels over the 20 grid alphas before alpha is zoomed.
_BETA_LEVELS = 4
# A zoomed axis' 7 points, in half-widths from the centre (0.0 exactly in the middle).
_OFFSETS = np.arange(-3, 4) / 3.0

LOSS_KINDS = ("squared_error", "absolute_error")


def _values(coordinates, bounds):
    """10.0**x for each log10 coordinate, clipped to bounds, in the coordinates' shape:
    Python's power, so no searched point depends on numpy's SIMD path."""
    powers = [10.0**x for x in coordinates.ravel().tolist()]
    return np.clip(powers, *bounds).reshape(coordinates.shape)


_LOG_ALPHA, _LOG_BETA = (tuple(map(math.log10, bounds)) for bounds in (ALPHA_BOUNDS, BETA_BOUNDS))
# The grid axes' evenly spaced log10 coordinates and values, and their spacing: the
# first zoom's half-width on both axes.
_GRID_LOG = [np.linspace(*bounds, GRID_POINTS_PER_AXIS) for bounds in (_LOG_ALPHA, _LOG_BETA)]
GRID_ALPHAS, GRID_BETAS = (_values(*axis).tolist()
                           for axis in zip(_GRID_LOG, (ALPHA_BOUNDS, BETA_BOUNDS)))
_GRID_STEP = max(b - a for a, b in (_LOG_ALPHA, _LOG_BETA)) / (GRID_POINTS_PER_AXIS - 1)


@dataclass(frozen=True)
class CalibrationTarget:
    """Observed (year, cumulative adopters) pairs and the loss to minimize."""

    observations: tuple
    loss: str = LOSS_KINDS[0]

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


def _scorer(params, prices, subsidies, target):
    """score(alphas, betas): the (A, B) losses of alphas[i] with each of betas[i, :], from one
    engine._probability_array and _hazard call on a (years, A, B) array. The midpoint
    utilities U do not depend on (alpha, beta), so they are computed once per fit, up to
    the last observed year. A loss sums each observation's error in target order."""
    observed = [(year - params.start_year, value) for year, value in target.observations]
    _, _, _, midpoint, _ = _yearly_inputs(params, prices, subsidies)
    utilities = midpoint[:max(index for index, _ in observed) + 1, None, None]
    total = float(params.total_farmers)
    squared = target.loss == "squared_error"

    def score(alphas, betas):
        levels = _hazard(_probability_array(
            np.broadcast_to(utilities, (len(utilities), *betas.shape)),
            alphas[:, None], betas, total), total)
        loss = 0.0
        for index, value in observed:
            diff = levels[index] - value
            loss = loss + (diff * diff if squared else np.abs(diff))
        return loss

    return score


@np.errstate(over="ignore")  # overflows: alpha*U (cap or floor), a squared error (inf loss)
def calibrate(params, prices, subsidies, target, budget=DEFAULT_BUDGET):
    """Fit (alpha, beta) so the deterministic simulation matches the target.

    Level 0 scores the 20x20 grid; later levels zoom the beta profile (module
    docstring). `budget` caps the (alpha, beta) cells scored, counting a level whole
    or not at all, and must cover at least the grid; with budget equal to the grid
    size the result is exactly the best grid cell.

    Returns a CalibrationResult; `converged` is True when both log10 half-widths fell
    below REFINE_TOLERANCE before the budget ran out.
    """
    target.validate_against(params)
    budget = require_integer("budget", budget)
    if budget < GRID_SIZE:
        raise ValidationError(f"budget must be >= the grid size {GRID_SIZE}, got {budget}")

    score = _scorer(params, prices, subsidies, target)
    log_alphas = _GRID_LOG[0]
    log_betas = np.broadcast_to(_GRID_LOG[1], (GRID_POINTS_PER_AXIS,) * 2)
    half_alpha = half_beta = _GRID_STEP
    best, evaluations, level = (math.inf,) * 3, 0, 0  # best sorts after every cell
    while True:
        alphas, betas = _values(log_alphas, ALPHA_BOUNDS), _values(log_betas, BETA_BOUNDS)
        losses = score(alphas, betas)
        evaluations += losses.size
        losses[np.isnan(losses)] = math.inf  # a NaN loss never wins
        # each alpha's best beta, then the best alpha: the first, so the smallest, of a tie
        rows, columns = np.arange(len(alphas)), losses.argmin(axis=1)
        profile = losses[rows, columns]
        row = int(profile.argmin())
        cell = float(profile[row]), float(alphas[row]), float(betas[row, columns[row]])
        best = min(best, cell)
        if not math.isfinite(best[0]):
            raise CalibrationFailedError(
                "no grid point produced a finite loss; calibration cannot proceed")
        converged = max(half_alpha, half_beta) < REFINE_TOLERANCE
        zoom = level >= _BETA_LEVELS
        size = (len(_OFFSETS) if zoom else len(alphas)) * len(_OFFSETS)
        if converged or evaluations + size > budget:
            break
        centres = log_betas[rows, columns]
        if zoom:  # 7 alphas around the best profile alpha, its best betas interpolated
            zoomed = np.clip(log_alphas[row] + half_alpha * _OFFSETS, *_LOG_ALPHA)
            centres = np.interp(zoomed, log_alphas, centres)
            log_alphas, half_alpha = zoomed, half_alpha / 3.0
        log_betas = np.clip(centres[:, None] + half_beta * _OFFSETS, *_LOG_BETA)
        half_beta, level = half_beta / 3.0, level + 1

    loss, alpha, beta = best
    return CalibrationResult(alpha=alpha, beta=beta, achieved_loss=loss,
                             evaluations=evaluations, converged=converged)
