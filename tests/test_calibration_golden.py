"""Full-precision calibration results on seeded multi-observation targets.

Each case fits the bundled scenario to a target of 2-3 observations read
off the deterministic curve at a seeded (alpha, beta) and rounded to whole
adopters, for both loss kinds and at budgets that stop the search at the
grid (400, and 401, one cell past it), mid-search (777) and after it
converged (2000, 3000). The committed results pin every float bit of alpha, beta and achieved_loss, the
evaluation count and the converged flag, so a change to how the search
evaluates its points must find exactly the same answer.

numpy's np.exp can differ in the last bit between its SIMD dispatch paths,
and a loss with it. A case's "result" holds the bits of the path with every
dispatch target the writing host has. Only where another path's bits differ,
the case also holds that path's result under "dispatch", keyed by the
dispatch targets numpy's __cpu_features__ reports enabled on it;
tests/test_dispatch.py reruns this file on each path. To rewrite the fixture
after an intended change, with every path of the host:

    PYTHONPATH=src python tests/test_calibration_golden.py
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from dairypv.calibration import CalibrationTarget, calibrate
from dairypv.engine import run_simulation
from dairypv.io import load_default_scenario

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

FIXTURE = Path(__file__).parent / "golden" / "calibration_results.json"
_FEATURES = getattr(_multiarray_umath, "__cpu_features__", {})
# This process's dispatch path: the dispatch targets numpy runs with, in numpy's order.
ENABLED = " ".join(t for t in getattr(_multiarray_umath, "__cpu_dispatch__", ())
                   if _FEATURES.get(t))
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
    assert asdict(_fit(case)) == case.get("dispatch", {}).get(ENABLED, case["result"])


def _path_fits(disabled):
    """(enabled targets, every case's result) in a fresh process with the given targets
    disabled, as in tests/test_dispatch.py."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    out = subprocess.run([sys.executable, __file__, "--fits"], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


if __name__ == "__main__":
    if sys.argv[1:] == ["--fits"]:
        print(json.dumps([ENABLED, [asdict(_fit(case)) for case in _cases()]]))
        sys.exit()
    enabled = ENABLED.split()
    native, *others = [_path_fits(" ".join(enabled[i:])) for i in range(len(enabled), -1, -1)]
    cases = _cases()
    for index, case in enumerate(cases):
        case["result"] = native[1][index]
        dispatch = {key: fits[index] for key, fits in others if fits[index] != case["result"]}
        if dispatch:
            case["dispatch"] = dispatch
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
