"""Financial calculations: yearly energy savings, discounting, economic utility.

All functions are pure; the summation order in net_present_value is fixed
so identical inputs give bit-identical results across runs and platforms.
"""

from .domain import require_finite
from .errors import ValidationError


def annual_savings(generation_kwh, energy_price, pv_cost, maintenance_rate):
    """Yearly energy savings net of maintenance, in EUR.

    Generation valued at the given price, minus maintenance charged as a
    fixed fraction of the installed PV cost. May be negative when
    maintenance exceeds the value of the generated energy.
    """
    generation_kwh = require_finite("generation_kwh", generation_kwh)
    if generation_kwh < 0:
        raise ValidationError(f"generation_kwh must be >= 0, got {generation_kwh}")
    energy_price = require_finite("energy_price", energy_price)
    if energy_price < 0:
        raise ValidationError(f"energy_price must be >= 0, got {energy_price}")
    pv_cost = require_finite("pv_cost", pv_cost)
    maintenance_rate = require_finite("maintenance_rate", maintenance_rate)
    if not 0 <= maintenance_rate < 1:
        raise ValidationError(f"maintenance_rate must be in [0, 1), got {maintenance_rate}")
    return generation_kwh * energy_price - maintenance_rate * pv_cost


def constant_savings(annual_value, horizon_years):
    """Savings series holding one annual value for t = 0..horizon_years."""
    if horizon_years < 0:
        raise ValidationError(f"horizon_years must be >= 0, got {horizon_years}")
    annual_value = require_finite("annual_value", annual_value)
    return [annual_value] * (horizon_years + 1)


def net_present_value(savings, discount_rate):
    """Discounted sum of a savings series; index t = 0 is undiscounted.

    Accumulates left to right with a running (1 + rate)^t product, using
    only +, * and / so the result is reproducible across platforms.
    """
    discount_rate = require_finite("discount_rate", discount_rate)
    if discount_rate <= -1:
        raise ValidationError(f"discount_rate must be > -1, got {discount_rate}")
    factor = 1.0 + discount_rate
    denominator = 1.0
    total = 0.0
    for t, value in enumerate(savings):
        value = require_finite(f"savings[{t}]", value)
        total += value / denominator
        denominator *= factor
    return total


def economic_utility(npv, initial_investment, subsidy):
    """Adoption attractiveness: discounted savings minus net installation cost."""
    npv = require_finite("npv", npv)
    initial_investment = require_finite("initial_investment", initial_investment)
    subsidy = require_finite("subsidy", subsidy)
    return npv - initial_investment + subsidy


def agent_utility(pv_cost, params, energy_price, subsidy):
    """Utility one farmer assigns to installing PV in the decision year.

    The savings series is held constant at the decision-year price over the
    scenario horizon (myopic price expectation), discounted at the scenario
    rate, and offset by the farmer's installation cost net of subsidy. This
    is the reference the engine's affine utility kernel is tested against.
    """
    annual = annual_savings(
        params.annual_generation_kwh, energy_price, pv_cost, params.maintenance_rate
    )
    npv = net_present_value(
        constant_savings(annual, params.horizon_years), params.discount_rate
    )
    return economic_utility(npv, pv_cost, subsidy)
