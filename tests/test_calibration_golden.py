"""Full-precision calibration results on seeded multi-observation targets.

Each case fits the bundled scenario to a target of 2-3 observations read
off the deterministic curve at a seeded (alpha, beta) and rounded to whole
adopters, for both loss kinds and at budgets that stop the search at the
grid, one poll after it, mid-search and late. The committed results pin
every float bit of alpha, beta and achieved_loss, the evaluation count and
the converged flag, so a change to how the search evaluates its points
must find exactly the same answer. To rewrite the fixture after an
intended change:

    PYTHONPATH=src python tests/test_calibration_golden.py
"""

import json
import math
import random
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from dairypv.calibration import CalibrationTarget, calibrate
from dairypv.engine import run_simulation
from dairypv.io import load_default_scenario

FIXTURE = Path(__file__).parent / "golden" / "calibration_results.json"
SEEDS = (1, 2, 3, 4, 5, 6)
BUDGETS = (400, 401, 777, 2000, 3000)
LOSSES = ("squared_error", "absolute_error")


def seeded_observations(seed):
    """2-3 whole-adopter observations of the curve at a seeded (alpha, beta)."""
    rng = random.Random(seed)
    params, prices, subsidies, _ = load_default_scenario()
    alpha = 10.0 ** rng.uniform(-1.0, 1.0)
    beta = 10.0 ** rng.uniform(-3.0, math.log10(3e-2))
    truth = run_simulation(replace(params, alpha=alpha, beta=beta), prices, subsidies)
    years = sorted(rng.sample(range(params.start_year, params.end_year + 1),
                              rng.randint(2, 3)))
    curve = {r.year: r.cumulative_adopters for r in truth.records}
    return [[year, float(round(curve[year]))] for year in years]


def _cases():
    return [
        {"seed": seed, "budget": budget, "loss": loss,
         "observations": seeded_observations(seed)}
        for seed in SEEDS for loss in LOSSES for budget in BUDGETS
    ]


def _fit(case):
    params, prices, subsidies, _ = load_default_scenario()
    target = CalibrationTarget(
        observations=tuple(map(tuple, case["observations"])), loss=case["loss"])
    return calibrate(params, prices, subsidies, target, budget=case["budget"])


@pytest.fixture(scope="module")
def fixture_cases():
    cases = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {(c["seed"], c["loss"], c["budget"]): c for c in cases}


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("seed", SEEDS)
def test_calibration_matches_fixture(fixture_cases, seed, loss, budget):
    case = fixture_cases[seed, loss, budget]
    assert asdict(_fit(case)) == case["result"]


if __name__ == "__main__":
    cases = _cases()
    for case in cases:
        case["result"] = asdict(_fit(case))
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
