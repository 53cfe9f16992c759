"""Agent-based simulator of solar PV adoption on dairy farms.

Pipeline: per-farmer economic utility (discounted energy savings minus net
installation cost) feeds a logistic adoption probability, iterated year by
year over a historical price and subsidy schedule. A calibration module
recovers the curve parameters (alpha, beta) from observed adoption counts.
"""

from .calibration import CalibrationResult, CalibrationTarget, calibrate
from .domain import ScenarioParams, SimulationResult, YearRecord, YearSeries
from .engine import MonteCarloSummary, YearStats, run_monte_carlo, run_simulation
from .io import (
    LoadedScenario,
    load_default_scenario,
    load_scenario,
    parse_year_series,
    render_result,
    write_result,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CalibrationTarget",
    "LoadedScenario",
    "MonteCarloSummary",
    "ScenarioParams",
    "SimulationResult",
    "YearRecord",
    "YearSeries",
    "YearStats",
    "calibrate",
    "errors",
    "load_default_scenario",
    "load_scenario",
    "parse_year_series",
    "render_result",
    "run_monte_carlo",
    "run_simulation",
    "write_result",
]
