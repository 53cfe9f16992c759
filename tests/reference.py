"""Reference routes the program is tested against.

The utility oracle computes one farmer's utility term by term: yearly
savings, their net present value over the horizon, then the net
installation cost. The engine's affine `_utility` kernel must agree with it
to rounding. The deterministic curve takes the numpy probability kernel
over all years, then the yearly recurrence; the engine's scalar `_curve`
must give its bits. Inputs are not checked here; the program checks them at its
boundaries (ScenarioParams, YearSeries, the loaders).
"""

import math

import numpy as np

from dairypv.calibration import _Objective
from dairypv.engine import _probability_array


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


def evaluate_loss(candidate, params, prices, subsidies, target):
    """Calibration loss of one (alpha, beta) candidate, through the calibrator's objective."""
    return _Objective(params, prices, subsidies, target, budget=1).loss(*candidate)


def round_half_up(value):
    """Round a count half-up to an integer (441.5 -> 442), unlike round()'s half-to-even."""
    return math.floor(value + 0.5)
