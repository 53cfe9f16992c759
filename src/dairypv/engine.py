"""Adoption engine: utility and probability kernels, yearly loops, replication.

Deterministic mode tracks the expected cumulative adopter count driven by a
single representative farmer (PV cost at the midpoint of the sampled range).
Stochastic mode simulates every farmer with an individually sampled cost and
independent Bernoulli adoption draws.

Random generator identity is part of the external contract: numpy PCG64,
seeded directly with the scenario seed; Monte Carlo replication r uses
(base_seed + r) mod 2**64.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import SimulationResult, YearRecord, require_finite, require_integer
from .errors import CoverageGapError, ValidationError

# Smallest positive float; floor for probabilities when the exponential
# saturates, keeping the open-interval (0, beta) contract.
_TINY = 5e-324

# Most farmers a stochastic run scores at a time: few enough that a piece's
# temporaries stay in cache, enough to hide per-call overhead; >= 128 (see _pairwise).
_BLOCK = 2**16


def _pairwise(start, count, leaf):
    """leaf(start, count) summed over the pieces numpy's pairwise summation makes.

    numpy sums over 128 values as two halves, the first cut to a multiple of
    8, split alike down to 128 (so _BLOCK >= 128); pieces up to _BLOCK go
    whole to leaf, so np.add.reduce leaves give np.add.reduce's bits.
    """
    if count <= _BLOCK:
        return leaf(start, count)
    half = count // 2 - count // 2 % 8
    return _pairwise(start, half, leaf) + _pairwise(start + half, count - half, leaf)


def _annuity(params):
    """Discount-factor sum over t = 0..horizon: the NPV of 1 EUR a year.

    Summed left to right with a running (1 + rate)^t product, using only +,
    * and /, so the result is reproducible across platforms.
    """
    factor = 1.0 + params.discount_rate
    denominator, total = 1.0, 0.0
    for _ in range(params.horizon_years + 1):
        total += 1.0 / denominator
        denominator *= factor
    return total


def _utility(params, annuity, energy_price, pv_cost, subsidy, out=None):
    """Utility kernel: discounted savings minus net installation cost, in affine form.

    With annuity A, the NPV of the constant yearly savings gen*price - m*c
    is (gen*price - m*c)*A, so the utility NPV - c + subsidy equals
    gen*price*A - (1 + m*A)*c + subsidy. Any argument may be an array
    (prices and subsidies per year, or PV costs per farmer); `out`, if
    given, receives the result.
    """
    u = np.multiply(1.0 + params.maintenance_rate * annuity, pv_cost, out=out)
    u = np.subtract(params.annual_generation_kwh * energy_price * annuity, u, out=out)
    return np.add(u, subsidy, out=out)


def _logistic(utilities, alpha, total_farmers, out=None):
    """Alpha half of the probability kernel: (s, d), where p = beta*s/d.

    With x = alpha*U/N and e = exp(-|x|), beta/(1 + exp(-x)) is beta/(1 + e)
    for x >= 0 and e*beta/(1 + e) for x < 0: s = where(x >= 0, 1, e), d = 1 + e.
    Since 0 <= e <= 1, s is max(e, x >= 0), which selects without branching
    per element. exp never sees a positive argument, so it can underflow but
    never overflow. `out`, if given, receives s.
    """
    x = alpha * utilities / total_farmers
    nonneg = x >= 0
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    s = np.maximum(e, nonneg, out=out)
    e += 1.0
    return s, e


def _capped(halves, beta, out=None):
    """Beta half: beta*s/d clamped strictly inside (0, beta) even for extreme utilities."""
    s, d = halves
    p = np.multiply(s, beta, out=out)
    p /= d
    return p.clip(_TINY, math.nextafter(beta, 0.0), out=p)


def _probability_array(utilities, alpha, beta, total_farmers, out=None):
    """Probability kernel; `out`, if given, receives the result."""
    halves = _logistic(utilities, alpha, total_farmers, out=out)
    return _capped(halves, beta, out=halves[0])


def _curve(s, d, beta, total_farmers):
    """Deterministic adoption path from an alpha half as lists: (probabilities, levels).

    Per year, p = s*beta/d clamped as _capped clamps it, then the hazard
    level += p * (N - level). One pass over Python floats with _capped's
    IEEE operations in their order, so p has its bits; on at most n_years
    values numpy's per-call overhead would dominate. The clamp compares as
    np.clip does, so a NaN passes through.
    """
    lo, hi = _TINY, math.nextafter(beta, 0.0)
    probabilities, levels, level = [], [], 0.0
    for s_t, d_t in zip(s, d):
        p = s_t * beta / d_t
        if p < lo:
            p = lo
        elif p > hi:
            p = hi
        level += p * (total_farmers - level)
        probabilities.append(p)
        levels.append(level)
    return probabilities, levels


def check_series_coverage(series, name, params):
    """Fail fast if a series does not cover every simulated year."""
    missing = [y for y in range(params.start_year, params.end_year + 1) if y not in series]
    if missing:
        raise CoverageGapError(
            f"{name} series covers {series.first_year}-{series.last_year} but the "
            f"scenario needs {params.start_year}-{params.end_year}; missing years: "
            + ", ".join(str(y) for y in missing),
            missing_years=missing,
        )


def _yearly_inputs(params, prices, subsidies):
    """Coverage-checked price and subsidy arrays for start_year..end_year."""
    check_series_coverage(prices, "price", params)
    check_series_coverage(subsidies, "subsidy", params)
    years = range(params.start_year, params.end_year + 1)
    return (np.array([prices.value_for(y) for y in years]),
            np.array([subsidies.value_for(y) for y in years]))


def representative_utilities(params, prices, subsidies):
    """Yearly utility of the midpoint-cost farmer that deterministic mode follows."""
    energy_prices, yearly_subsidies = _yearly_inputs(params, prices, subsidies)
    return _utility(params, _annuity(params), energy_prices, params.midpoint_cost,
                    yearly_subsidies)


def _stochastic_years(params, annuity, energy_prices, yearly_subsidies, seed):
    """Per-farmer adoption for Monte Carlo; yields the cumulative count per year.

    PV costs are sampled Uniform[pv_cost_min, pv_cost_max] in id order, then
    each year every farmer who has not adopted gets one Bernoulli draw, in
    id order. Only the costs of those farmers are carried, so adopting
    drops a farmer from the array while keeping the draw order. The year's
    draws are taken before any probability is computed, and only farmers
    whose draw is below beta are scored: the kernel keeps p < beta, so no
    other draw can adopt. A year with no farmers left draws nothing.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
    cumulative = 0
    for energy_price, subsidy in zip(energy_prices, yearly_subsidies):
        draws = rng.random(len(costs))
        candidates = np.flatnonzero(draws < params.beta)
        probabilities = _probability_array(
            _utility(params, annuity, energy_price, costs[candidates], subsidy),
            params.alpha, params.beta, params.total_farmers)
        adopters = candidates[draws[candidates] < probabilities]
        del draws
        if len(adopters):
            costs = np.delete(costs, adopters)
        cumulative += len(adopters)
        yield float(cumulative)


def _stochastic_run(params, annuity, energy_prices, yearly_subsidies):
    """Stochastic run as (mean utility, mean probability, new, cumulative) per year.

    The farmers, draws and adoptions are those of _stochastic_years, but the
    means need every remaining farmer scored, so each is scored once and
    adopts iff its draw is below its probability. score takes _pairwise's
    pieces in id order through piece-sized buffers: the pieces' sums add up
    to np.mean's bits, and their draws to one PCG64 draw per year.
    Survivors' costs move to the front of the cost array, in order, copied
    out before they are written back and never past their piece.
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
    utilities, probabilities = np.empty((2, min(len(costs), _BLOCK)))
    remaining = len(costs)

    def score(start, count):
        nonlocal stayed
        piece = costs[start:start + count]
        u = _utility(params, annuity, energy_price, piece, subsidy, out=utilities[:count])
        p = _probability_array(u, params.alpha, params.beta, params.total_farmers,
                               out=probabilities[:count])
        left = piece[~(rng.random(count) < p)]
        costs[stayed:stayed + len(left)] = left
        stayed += len(left)
        return np.array((np.add.reduce(u), np.add.reduce(p)))

    for energy_price, subsidy in zip(energy_prices, yearly_subsidies):
        if not remaining:  # all adopted: the representative farmer keeps records finite
            u = _utility(params, annuity, energy_price, np.array([params.midpoint_cost]), subsidy)
            p = _probability_array(u, params.alpha, params.beta, params.total_farmers)
            yield float(u[0]), float(p[0]), 0.0, float(len(costs))
            continue
        stayed = 0
        mean_u, mean_p = _pairwise(0, remaining, score) / remaining
        yield float(mean_u), float(mean_p), float(remaining - stayed), float(len(costs) - stayed)
        remaining = stayed


@np.errstate(over="ignore")  # alpha*U overflowing to +-inf gives the cap or the floor
def run_simulation(params, prices, subsidies):
    """Run the full multi-year simulation; one YearRecord per year.

    Both series must cover [start_year, end_year]; coverage is checked
    before the first year so failures never produce partial results.
    Semantics switches apply to deterministic mode only: hazard semantics
    draw new adopters from the not-yet-adopted pool; literal semantics
    recompute the cumulative level as p * N each year (new adopters
    reported as the non-negative difference).
    """
    if params.mode == "deterministic":
        utilities = representative_utilities(params, prices, subsidies)
        n = float(params.total_farmers)
        halves = _logistic(utilities, params.alpha, n)
        probabilities, levels = _curve(*(half.tolist() for half in halves), params.beta, n)
        if params.adoption_semantics == "hazard":
            new = [p * (n - prior) for p, prior in zip(probabilities, [0.0, *levels])]
        else:
            levels = [p * n for p in probabilities]
            new = [max(0.0, level - prior) for level, prior in zip(levels, [0.0, *levels])]
        columns = (utilities.tolist(), probabilities, new, levels)
    else:
        columns = zip(*_stochastic_run(params, _annuity(params),
                                       *_yearly_inputs(params, prices, subsidies)))
    years = range(params.start_year, params.end_year + 1)
    records = tuple(
        YearRecord(
            year=year,
            energy_price=prices.value_for(year),
            subsidy=subsidies.value_for(year),
            economic_utility=utility,
            probability=probability,
            new_adopters=new,
            cumulative_adopters=cumulative,
        )
        for year, utility, probability, new, cumulative in zip(years, *columns)
    )
    return SimulationResult(params_digest=params.digest, records=records)


@dataclass(frozen=True)
class YearStats:
    """Per-year spread of cumulative adopters across replications."""

    year: int
    mean: float
    std: float
    min: float
    max: float

    def __post_init__(self):
        for name in ("mean", "std", "min", "max"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        if self.std < 0:
            raise ValidationError(f"std must be >= 0, got {self.std}")
        if not self.min <= self.mean <= self.max:
            raise ValidationError(
                f"expected min <= mean <= max, got {self.min}, {self.mean}, {self.max}"
            )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-year statistics over stochastic replications."""

    replications: int
    base_seed: int
    rows: tuple

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "rows", tuple(self.rows))


@np.errstate(over="ignore")  # as in run_simulation
def run_monte_carlo(params, prices, subsidies, replications, base_seed):
    """Replicate the stochastic simulation and aggregate per-year statistics.

    Replication r runs with seed (base_seed + r) mod 2**64. Statistics are
    reduced from a replication-by-year matrix in index order, so the result
    does not depend on any execution schedule. std is the population
    standard deviation (zero for a single replication).
    """
    replications = require_integer("replications", replications)
    base_seed = require_integer("base_seed", base_seed)
    if replications < 1:
        raise ValidationError(f"replications must be >= 1, got {replications}")
    if params.mode != "stochastic":
        raise ValidationError(f"run_monte_carlo requires mode 'stochastic', got {params.mode!r}")
    if not 0 <= base_seed <= 2**64 - 1:
        raise ValidationError(f"base_seed must fit in an unsigned 64-bit integer, got {base_seed}")
    inputs = (params, _annuity(params), *_yearly_inputs(params, prices, subsidies))

    curves = np.empty((replications, params.n_years), dtype=float)
    for r in range(replications):
        seed = (base_seed + r) % 2**64
        curves[r, :] = list(_stochastic_years(*inputs, seed))

    years = range(params.start_year, params.end_year + 1)
    rows = tuple(
        YearStats(
            year=year,
            mean=float(np.mean(curves[:, i])),
            std=float(np.std(curves[:, i])),
            min=float(np.min(curves[:, i])),
            max=float(np.max(curves[:, i])),
        )
        for i, year in enumerate(years)
    )
    return MonteCarloSummary(replications=replications, base_seed=base_seed, rows=rows)
