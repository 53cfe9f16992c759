"""Reference routes the program is tested against.

The utility oracle computes one farmer's utility term by term: yearly
savings, their net present value over the horizon, then the net
installation cost. The engine's affine `_utility` kernel must agree with it
to rounding. The deterministic curve takes the numpy probability kernel
over all years, then the yearly recurrence; `run` (through `engine._hazard`)
must give its bits, and each loss the calibrator scores must be its run's
loss.
The stochastic run scores every remaining farmer at once, from the same
PCG64 stream as the engine; the engine, which scores pieces of farmers,
must make the same decisions. The adoption law is what a stochastic run's
counts must follow in distribution, by quadrature over the cost range.
Inputs are not checked here; the program checks them at its boundaries
(ScenarioParams, YearSeries, the loaders).
"""

import math
from dataclasses import replace

import numpy as np

from dairypv.engine import _probability_array, _utility, _yearly_inputs, run_simulation


def annual_savings(generation_kwh, energy_price, pv_cost, maintenance_rate):
    """Yearly energy savings net of maintenance charged on the PV cost, in EUR."""
    return generation_kwh * energy_price - maintenance_rate * pv_cost


def net_present_value(savings, discount_rate):
    """Discounted sum of a savings series, index t = 0 undiscounted, summed left to right."""
    factor = 1.0 + discount_rate
    denominator, total = 1.0, 0.0
    for value in savings:
        total += value / denominator
        denominator *= factor
    return total


def economic_utility(npv, initial_investment, subsidy):
    """Discounted savings minus the installation cost net of subsidy."""
    return npv - initial_investment + subsidy


def agent_utility(pv_cost, params, energy_price, subsidy):
    """One farmer's utility, with savings held at the decision-year price over the horizon."""
    annual = annual_savings(params.annual_generation_kwh, energy_price, pv_cost,
                            params.maintenance_rate)
    npv = net_present_value([annual] * (params.horizon_years + 1), params.discount_rate)
    return economic_utility(npv, pv_cost, subsidy)


def adoption_probability(utility, alpha, beta, total_farmers):
    """The engine's probability kernel at one utility, as a float."""
    return float(_probability_array(np.array([utility]), alpha, beta, total_farmers)[0])


def deterministic_curve(utilities, alpha, beta, total_farmers, semantics):
    """Expected adoption path as (probabilities, new_adopters, cumulative_adopters) lists.

    Hazard semantics draw new adopters from the not-yet-adopted pool;
    literal semantics recompute the cumulative level as p * N each year
    (new adopters reported as the non-negative difference).
    """
    probabilities = _probability_array(utilities, alpha, beta, total_farmers).tolist()
    new, cumulative = [], []
    prior = 0.0
    for p in probabilities:
        if semantics == "hazard":
            added = p * (total_farmers - prior)
            level = prior + added
        else:
            level = p * total_farmers
            added = float(np.maximum(0.0, level - prior))
        new.append(added)
        cumulative.append(level)
        prior = level
    return probabilities, new, cumulative


def stochastic_run(params, annuity, energy_prices, yearly_subsidies, seed):
    """(utilities, probabilities, draws, cumulative adopters) per year, on whole arrays.

    From PCG64(seed): one uniform PV cost per farmer, then each year one draw
    per farmer who has not adopted, in id order; every such farmer is scored
    with the engine kernels and adopts iff draw < p. Once all have adopted,
    the midpoint farmer is scored and no draw is taken.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
    for energy_price, subsidy in zip(energy_prices, yearly_subsidies):
        scored = costs if len(costs) else np.array([params.midpoint_cost])
        utilities = _utility(params, annuity, energy_price, scored, subsidy)
        probabilities = _probability_array(utilities, params.alpha, params.beta,
                                           params.total_farmers)
        draws = rng.random(len(costs))
        costs = costs[~(draws < probabilities[:len(costs)])]
        yield utilities, probabilities, draws, params.total_farmers - len(costs)


def adoption_law(params, prices, subsidies, nodes=16):
    """q̄_t per year: the chance that a farmer has adopted by year t.

    q̄_t = E_c[1 - prod_{s<=t}(1 - p_s(c))] over c ~ Uniform[pv_cost_min, pv_cost_max],
    by Gauss-Legendre quadrature with the engine kernels on a (nodes, 1) cost axis.
    Costs and draws are independent across farmers, so a stochastic run's cumulative
    count in year t is Binomial(total_farmers, q̄_t).
    """
    annuity, energy_prices, yearly_subsidies, _, _ = _yearly_inputs(params, prices, subsidies)
    points, weights = np.polynomial.legendre.leggauss(nodes)
    half_range = (params.pv_cost_max - params.pv_cost_min) / 2.0
    costs = (params.midpoint_cost + half_range * points)[:, None]
    probabilities = _probability_array(
        _utility(params, annuity, energy_prices, costs, yearly_subsidies),
        params.alpha, params.beta, params.total_farmers)
    return weights @ (1.0 - np.cumprod(1.0 - probabilities, axis=1)) / 2.0


def evaluate_loss(candidate, params, prices, subsidies, target):
    """Calibration loss of one (alpha, beta) candidate: the deterministic hazard run's
    cumulative adopters scored against the target, each observation's error summed in
    target order."""
    alpha, beta = candidate
    params = replace(params, alpha=alpha, beta=beta, mode="deterministic",
                     adoption_semantics="hazard")
    records = run_simulation(params, prices, subsidies).records
    levels = {record.year: record.cumulative_adopters for record in records}
    loss = 0.0
    for year, value in target.observations:
        diff = levels[year] - value
        loss += diff * diff if target.loss == "squared_error" else abs(diff)
    return loss


def round_half_up(value):
    """Round a count half-up to an integer (441.5 -> 442), unlike round()'s half-to-even."""
    return math.floor(value + 0.5)
