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

from .domain import _UINT64_MAX, SimulationResult, YearRecord, require_finite, require_integer
from .errors import ValidationError

# Smallest positive float; floor for probabilities when the exponential
# saturates, keeping the open-interval (0, beta) contract.
_TINY = 5e-324

# Most farmers a stochastic run scores at a time. A piece keeps about five
# 8*_BLOCK-byte arrays live (costs, U, |U| or e, p, draws; an all-nonnegative year
# makes no |U| and writes p over e): inside the benchmark host's 2 MiB per-core L2
# at 2**15, past it at 2**16. On stochastic-1m, 2**16 and 2**13 ran 6-8% slower
# than 2**15, and 2**14 tied with it (CHANGES.md).
_BLOCK = 2**15


def _annuity(params):
    """Discount-factor sum over t = 0..horizon: the NPV of 1 EUR a year.

    Summed left to right with a running (1 + rate)^t product, using only +,
    * and /, so the result is reproducible across platforms.
    """
    factor = 1.0 + params.discount_rate
    denominator, total = 1.0, 0.0
    for _ in range(params.horizon_years + 1):
        total += 1.0 / denominator if denominator else math.inf  # inf once the power underflows
        denominator *= factor
    return total


def _utility(params, annuity, energy_price, pv_cost, subsidy):
    """Utility kernel: discounted savings minus net installation cost, in affine form.

    With annuity A, the NPV of the constant yearly savings gen*price - m*c
    is (gen*price - m*c)*A, so the utility NPV - c + subsidy equals
    gen*price*A - (1 + m*A)*c + subsidy. Any argument may be an array
    (prices and subsidies per year, or PV costs per farmer).
    """
    return (params.annual_generation_kwh * energy_price * annuity
            - (1.0 + params.maintenance_rate * annuity) * pv_cost + subsidy)


def _probability_array(utilities, alpha, beta, total_farmers, steps=(True, True)):
    """Probability kernel beta/(1 + exp(-x)), x = alpha*U/N, strictly inside (0, beta).

    e = exp(((-alpha)*|U|)/N) has the bits of exp(-|x|) for alpha > 0: IEEE multiply and
    divide round alike for either sign. 0 <= e <= 1, so p = max(e, U >= 0)*beta/(1 + e) is
    beta/(1 + e) where U >= 0, else e*beta/(1 + e). U >= 0 and x >= 0 differ only where x
    underflows to -0.0, and there e = 1, so p is the same. alpha and beta may be arrays
    that broadcast to U's shape; later steps run in place on e and p, never on U.

    steps = (signed, clipped) from _needed_steps; False drops a step that cannot change
    a bit of p for U inside the bounds it was decided on:
    - signed False (every U >= 0): e from U, not |U|, and p = beta/(1 + e). U and |U|
      differ only at -0.0, where both give e = 1, and max(e, 1)*beta is beta.
    - clipped False: before the clip p <= beta, as e <= 1 and 1 + e >= 1. p = beta
      needs 1 + e to round to 1, so e <= 2**-53; x <= 36 keeps e >= 2.3e-16, and then
      1 + e >= 1 + 2**-52 puts beta/(1 + e) at least one float below beta. p = 0 needs
      max(e, U >= 0)*beta to underflow; at e >= 2.3e-16 and beta >= 2**-1000 it is
      above 2e-317, and halving it by 1 + e <= 2 leaves it above 0.
    """
    signed, clipped = steps
    e = np.exp(-alpha * (np.abs(utilities) if signed else utilities) / total_farmers)
    if signed:
        p = np.maximum(e, utilities >= 0)  # U > 0 gives the same p: e = 1 at U = +-0
        p *= beta
        p /= np.add(e, 1.0, out=e)
    else:
        p = np.divide(beta, np.add(e, 1.0, out=e), out=e)
    return p.clip(_TINY, np.nextafter(beta, 0.0), out=p) if clipped else p


def _needed_steps(lowest, highest, alpha, beta, total_farmers):
    """The kernel steps (signed, clipped) that any U in [lowest, highest] can need; x is
    computed as the kernel's alpha*|U|/N, so by monotone rounding the largest |U| bounds it."""
    bounded = alpha * max(abs(lowest), abs(highest)) / total_farmers <= 36.0
    return lowest < 0.0, not (bounded and beta >= 2.0**-1000)


def _hazard(probabilities, total_farmers):
    """Hazard levels level += p * (N - level) as a list; each p a float or an array
    (one level per cell), and no level is updated in place once listed."""
    level, levels = 0.0, []
    for p in probabilities:
        level = level + p * (total_farmers - level)
        levels.append(level)
    return levels


def _yearly_inputs(params, prices, subsidies):
    """A run's one input step: (annuity, price array, subsidy array, midpoint, steps) over
    start_year..end_year. midpoint is each year's U at midpoint_cost; steps holds each
    year's _needed_steps from its U at pv_cost_max and pv_cost_min. Every rounded step of
    _utility is monotone in cost, and with 0 <= pv_cost_min each sampled cost lies in the
    range, so every farmer's U lies between those two. YearSeries.window checks coverage,
    price before subsidy; then U at all three costs is checked finite, so every farmer's is.
    """
    years = range(params.start_year, params.end_year + 1)
    energy_prices = np.array(prices.window(years, "price"))
    yearly_subsidies = np.array(subsidies.window(years, "subsidy"))
    annuity = _annuity(params)
    costs = np.array([[params.pv_cost_max], [params.midpoint_cost], [params.pv_cost_min]])
    with np.errstate(all="ignore"):
        utilities = _utility(params, annuity, energy_prices, costs, yearly_subsidies)
    finite = np.isfinite(utilities).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))  # the first year whose utility is not finite
        raise ValidationError(
            f"utility in {years[i]} is not finite (annuity {annuity!r}); it depends on "
            "discount_rate, horizon_years, annual_generation_kwh, maintenance_rate, "
            "pv_cost_min, pv_cost_max and the year's energy price and subsidy")
    lowest, midpoint, highest = utilities
    steps = [_needed_steps(low, high, params.alpha, params.beta, params.total_farmers)
             for low, high in zip(lowest.tolist(), highest.tolist())]
    return annuity, energy_prices, yearly_subsidies, midpoint, steps


def _stochastic_years(params, annuity, energy_prices, yearly_subsidies, steps, seed):
    """Per-farmer adoption for Monte Carlo; yields the cumulative count per year.

    PV costs are sampled Uniform[pv_cost_min, pv_cost_max] in id order, then
    each year every farmer who has not adopted gets one Bernoulli draw, in
    id order. Only the costs of those farmers are carried, so adopting
    drops a farmer from the array while keeping the draw order. The year's
    draws are taken before any probability is computed, and only farmers
    whose draw is below beta are scored: the kernel keeps p < beta, so no
    other draw can adopt. A year with no farmers left draws nothing. steps is
    _yearly_inputs' for the same inputs.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
    for energy_price, subsidy, year_steps in zip(energy_prices, yearly_subsidies, steps):
        draws = rng.random(len(costs))
        candidates = np.flatnonzero(draws < params.beta)  # or <= beta: p < beta always
        probabilities = _probability_array(
            _utility(params, annuity, energy_price, costs[candidates], subsidy),
            params.alpha, params.beta, params.total_farmers, year_steps)
        adopters = candidates[draws[candidates] < probabilities]
        del draws
        costs = np.delete(costs, adopters)
        yield float(params.total_farmers - len(costs))


def _stochastic_run(params, annuity, energy_prices, yearly_subsidies, midpoint, steps):
    """Stochastic run as (mean utility, mean probability, new, cumulative) per year.

    The farmers, draws and adoptions are those of _stochastic_years, but the
    means need every remaining farmer scored, so each is scored once and
    adopts iff its draw is below its probability. Pieces of at most _BLOCK
    farmers are walked in id order, each taking its own draws: one PCG64 draw
    per farmer per year. A mean is the pieces' sums added left to right from
    -0.0, over the count: np.mean's bits when one piece holds every farmer.
    Survivors' costs move to the front of the cost array, in order, copied
    out before they are written back and never past their piece. midpoint and steps are
    _yearly_inputs'. A year with every farmer adopted reports the representative farmer at
    midpoint (each a (1,)-array, for the kernel's in-place steps), so records stay finite.
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
    remaining = len(costs)
    for year, (energy_price, subsidy, u_mid, year_steps) in enumerate(
            zip(energy_prices, yearly_subsidies, midpoint[:, None], steps), params.start_year):
        if not remaining:
            p = _probability_array(u_mid, params.alpha, params.beta, params.total_farmers)
            yield float(u_mid[0]), float(p[0]), 0.0, float(len(costs))
            continue
        stayed, sum_u, sum_p = 0, -0.0, -0.0
        for start in range(0, remaining, _BLOCK):
            piece = costs[start:min(start + _BLOCK, remaining)]
            u = _utility(params, annuity, energy_price, piece, subsidy)
            p = _probability_array(u, params.alpha, params.beta, params.total_farmers,
                                   year_steps)
            left = piece[rng.random(len(piece)) >= p]
            costs[stayed:stayed + len(left)] = left
            stayed += len(left)
            sum_u += float(np.add.reduce(u))
            sum_p += float(np.add.reduce(p))
            del u, p, left  # free this piece's arrays before the next piece allocates
        mean_u = sum_u / remaining
        if not math.isfinite(mean_u):  # each U is finite (_yearly_inputs), not their sum
            raise ValidationError(f"mean utility in {year} is not finite: the sum of the "
                                  "remaining farmers' utilities left float range")
        yield mean_u, sum_p / remaining, float(remaining - stayed), float(len(costs) - stayed)
        remaining = stayed


@np.errstate(over="ignore")  # overflows: alpha*U (cap or floor), a stochastic mean's sum (error)
def run_simulation(params, prices, subsidies):
    """Run the full multi-year simulation; one YearRecord per year.

    Inputs are checked (series coverage, finite utilities) before the first
    year, so failures never produce partial results.
    Semantics switches apply to deterministic mode only: hazard semantics
    draw new adopters from the not-yet-adopted pool; literal semantics
    recompute the cumulative level as p * N each year (new adopters
    reported as the non-negative difference).
    """
    annuity, energy_prices, yearly_subsidies, midpoint, steps = _yearly_inputs(
        params, prices, subsidies)
    if params.mode == "deterministic":
        n = float(params.total_farmers)
        probabilities = _probability_array(midpoint, params.alpha, params.beta, n).tolist()
        if params.adoption_semantics == "hazard":
            levels = _hazard(probabilities, n)
            new = [p * (n - prior) for p, prior in zip(probabilities, [0.0, *levels])]
        else:
            levels = [p * n for p in probabilities]
            new = [max(0.0, level - prior) for level, prior in zip(levels, [0.0, *levels])]
        columns = (midpoint.tolist(), probabilities, new, levels)
    elif params.seed is None:  # the one reader of the seed checks it, before any draw
        raise ValidationError("seed is required when mode is 'stochastic'")
    else:
        columns = zip(*_stochastic_run(params, annuity, energy_prices, yearly_subsidies,
                                       midpoint, steps))
    years = range(params.start_year, params.end_year + 1)
    # YearRecord's fields in order: year, energy price, subsidy, then the four columns
    records = tuple(map(YearRecord, years, energy_prices.tolist(), yearly_subsidies.tolist(),
                        *columns))
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


@np.errstate(over="ignore")  # the one overflow: alpha*U, giving the cap or the floor
def run_monte_carlo(params, prices, subsidies, replications, base_seed):
    """Replicate the stochastic simulation and aggregate per-year statistics.

    Every replication is a stochastic run whatever params.mode says, and
    params.seed is not read: replication r runs with seed (base_seed + r) mod
    2**64 and fills column r of a year-by-replication matrix. Each year's
    statistics are reduced over its contiguous row in replication order, so
    the result does not depend on any execution schedule. std is the
    population standard deviation (zero for a single replication).
    """
    replications = require_integer("replications", replications)
    base_seed = require_integer("base_seed", base_seed)
    if replications < 1:
        raise ValidationError(f"replications must be >= 1, got {replications}")
    if not 0 <= base_seed <= _UINT64_MAX:
        raise ValidationError(f"base_seed must fit in an unsigned 64-bit integer, got {base_seed}")
    annuity, energy_prices, yearly_subsidies, _, steps = _yearly_inputs(params, prices, subsidies)

    # one column per replication; C order keeps each year's row contiguous
    curves = np.column_stack([
        list(_stochastic_years(params, annuity, energy_prices, yearly_subsidies, steps,
                               (base_seed + r) % 2**64))
        for r in range(replications)])

    stats = (reduce(curves, axis=1).tolist() for reduce in (np.mean, np.std, np.min, np.max))
    rows = tuple(map(YearStats, range(params.start_year, params.end_year + 1), *stats))
    return MonteCarloSummary(replications=replications, base_seed=base_seed, rows=rows)
