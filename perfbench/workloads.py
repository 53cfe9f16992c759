"""Seeded workload inputs, reference kernels and output checks for the
dairypv benchmark.

Inputs are built from the bundled scenario files in the checkout and from
the workload seed alone. Calibration targets come from a small reference
model kept here, so the generated files do not depend on the version of
the program under test. The same model gives each workload a fixed
reference kernel that run.py times around every op (see reference_for).
"""

import csv
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("calibrate", "monte-carlo", "stochastic-1m")

CALIBRATE_BUDGET = 2000
MC_REPLICATIONS = 50
STOCHASTIC_FARMERS = 1_000_000
# Bytes per farmer in the stochastic population: float64 cost, bool
# adopted flag, int64 adoption year.
POPULATION_BYTES_PER_FARMER = 8 + 1 + 8
# Log-uniform ranges for the synthetic calibration truths. The bundled
# 2022 fit sits near alpha = 0.8, beta = 0.0023.
TRUE_ALPHA = (0.1, 10.0)
TRUE_BETA = (1e-3, 3e-2)
# Acceptance criterion 6: achieved loss within 1e-4 of sum(observed^2).
# Enforced on the bundled target only: on about 1 in 200 generated
# 3-observation targets the budget-2000 search stops in a local basin
# just above it (seed 15, op 18: loss/scale 1.8e-4), which the program
# does not promise to avoid. Generated fits are reported, not failed.
LOSS_OVER_SCALE_LIMIT = 1e-4
# Allowed gap between the reported loss and the reference re-score, as a
# share of sum(observed^2); printing at 6 digits moves it by < 1e-9.
RESCORE_TOLERANCE = 1e-6
# The calibrator's documented search grid (README: 20x20, log-spaced).
GRID = [(min(max(10.0 ** (-3 + 5 * i / 19), 1e-3), 100.0),
         min(max(10.0 ** (-5 + 5 * j / 19), 1e-5), 1.0))
        for i in range(20) for j in range(20)]
# Distinct op inputs generated per run; ops cycle through them.
OP_POOL = 64
# Size of each workload's reference kernel, chosen so that one call takes
# 8-10% of an op on the machine this was tuned on (about 55-70 ms).
REFERENCE_CURVES = 4800                # reference_curve calls (calibrate)
REFERENCE_MC = (18_000, 18, 14)        # farmers, years, replications (monte-carlo)
REFERENCE_LARGE = (500_000, 6, 1)      # (stochastic-1m): 4 MB arrays, past L2


@dataclass(frozen=True)
class Workload:
    """Generated inputs for one workload: scenario, per-op argv and sizes."""

    name: str
    scenario: Path
    ops: tuple        # one entry per op input: (argv without --out, expectation)
    sizes: dict
    reference: object  # no-argument callable: the fixed reference kernel

    def argv(self, index, out):
        args, _ = self.ops[index % len(self.ops)]
        return [*args, "--out", str(out)]

    def expectation(self, index):
        return self.ops[index % len(self.ops)][1]


def _read_series(path, column):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {int(row["year"]): float(row[column]) for row in rows}


def _series(workdir, config):
    """(prices, subsidies) by year, read from the copies in workdir."""
    return (_read_series(workdir / config["price_series"], "price_eur_per_kwh"),
            _read_series(workdir / config["subsidy_series"], "subsidy_eur"))


def reference_curve(config, prices, subsidies, alpha, beta):
    """Deterministic hazard curve: cumulative adopters per year.

    Midpoint-cost farmer, constant savings over the horizon discounted at
    the scenario rate, logistic probability capped at beta.
    """
    rate = config["discount_rate"]
    annuity, denominator = 0.0, 1.0
    for _ in range(config["horizon_years"] + 1):
        annuity += 1.0 / denominator
        denominator *= 1.0 + rate
    cost = (config["pv_cost_min"] + config["pv_cost_max"]) / 2.0
    total = config["total_farmers"]
    cumulative, curve = 0.0, {}
    for year in range(config["start_year"], config["end_year"] + 1):
        revenue = config["annual_generation_kwh"] * prices[year]
        utility = (revenue * annuity - (1.0 + config["maintenance_rate"] * annuity) * cost
                   + subsidies[year])
        x = alpha * utility / total
        if x >= 0:
            p = beta / (1.0 + math.exp(-x))
        else:
            p = beta * math.exp(x) / (1.0 + math.exp(x))
        cumulative += p * (total - cumulative)
        curve[year] = cumulative
    return curve


def reference_population(config, prices, subsidies, farmers, years, seed):
    """Frozen per-farmer stochastic model in plain numpy.

    Uniform costs, annuity-discounted utility, logistic probability capped
    at beta, one Bernoulli draw per not-yet-adopted farmer per year.
    Returns the final adopter count.
    """
    rng = np.random.default_rng(seed)
    costs = rng.uniform(config["pv_cost_min"], config["pv_cost_max"], farmers)
    adopted = np.zeros(farmers, dtype=bool)
    rate = config["discount_rate"]
    annuity = sum((1.0 + rate) ** -k for k in range(config["horizon_years"] + 1))
    for year in range(config["start_year"], config["start_year"] + years):
        remaining = ~adopted
        utility = (config["annual_generation_kwh"] * prices[year] * annuity
                   - (1.0 + config["maintenance_rate"] * annuity) * costs[remaining]
                   + subsidies[year])
        probability = config["beta"] / (1.0 + np.exp(-config["alpha"] * utility / farmers))
        adopts = rng.random(probability.size) < probability
        adopted[np.nonzero(remaining)[0][adopts]] = True
    return int(np.count_nonzero(adopted))


def reference_for(name, config, prices, subsidies):
    """The fixed reference kernel of a workload, as a no-argument callable.

    It does the same kind of work as the workload's ops, on inputs that do
    not depend on the seed: scalar reference curves for calibrate, the numpy
    population model at N = 18k for monte-carlo, and at 500k farmers (4 MB
    arrays, past L2) for stochastic-1m. run.py divides each op's time by the
    mean time of this kernel run just before and after it, which cancels a
    change in the host's speed that lasts longer than an op.
    """
    if name == "calibrate":
        def reference():
            for i in range(REFERENCE_CURVES):
                alpha, beta = GRID[i % len(GRID)]
                reference_curve(config, prices, subsidies, alpha, beta)
        return reference
    farmers, years, replications = REFERENCE_MC if name == "monte-carlo" else REFERENCE_LARGE

    def reference():
        for seed in range(replications):
            reference_population(config, prices, subsidies, farmers, years, seed)
    return reference


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _write_scenario(data_dir, workdir, **overrides):
    """Copy the bundled scenario and its series into workdir, with overrides."""
    with open(data_dir / "default_scenario.yaml", encoding="utf-8") as handle:
        config = yaml.safe_load(handle)
    config.update(overrides)
    for key in ("price_series", "subsidy_series", "target_series"):
        if key in config:
            shutil.copyfile(data_dir / config[key], workdir / config[key])
    path = workdir / "scenario.yaml"
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(config, handle, sort_keys=False)
    return path, config


def _calibrate_ops(rng, workdir, scenario, config, prices, subsidies, budget):
    years = list(range(config["start_year"], config["end_year"] + 1))
    ops = []
    for index in range(OP_POOL):
        if index == 0:
            target = workdir / config["target_series"]
            with open(target, newline="", encoding="utf-8") as handle:
                observations = [(int(r["year"]), float(r["cumulative_adopters"]))
                                for r in csv.DictReader(handle)]
        else:
            alpha = _log_uniform(rng, *TRUE_ALPHA)
            beta = _log_uniform(rng, *TRUE_BETA)
            curve = reference_curve(config, prices, subsidies, alpha, beta)
            chosen = sorted(rng.sample(years, rng.randint(1, 3)))
            observations = [(year, curve[year]) for year in chosen]
            target = workdir / f"target_{index:02d}.csv"
            with open(target, "w", encoding="utf-8", newline="") as handle:
                handle.write("year,cumulative_adopters\n")
                handle.writelines(f"{y},{v!r}\n" for y, v in observations)
        args = ["calibrate", "--config", str(scenario), "--target", str(target),
                "--budget", str(budget)]
        ops.append((args, {"budget": budget, "observations": observations,
                           "must_fit": index == 0,
                           "config": config, "prices": prices, "subsidies": subsidies}))
    return ops


def build_workload(name, seed, data_dir, workdir, tiny=False):
    """Write the inputs of one workload into workdir and describe its ops."""
    rng = random.Random(f"dairypv-bench:{name}:{seed}")
    if name == "calibrate":
        scenario, config = _write_scenario(data_dir, workdir)
        # The accuracy check needs the full budget, so tiny keeps it.
        budget = CALIBRATE_BUDGET
        ops = _calibrate_ops(rng, workdir, scenario, config, *_series(workdir, config), budget)
        sizes = {"total_farmers": config["total_farmers"], "budget": budget,
                 "replications": 0}
        # Deterministic state is two series of n_years floats.
        working_set = 2 * 8 * (config["end_year"] - config["start_year"] + 1)
    elif name == "monte-carlo":
        scenario, config = _write_scenario(data_dir, workdir)
        replications = 4 if tiny else MC_REPLICATIONS
        ops = [(["monte-carlo", "--config", str(scenario), "--replications",
                 str(replications), "--seed", str(rng.getrandbits(32))],
                {"config": config}) for _ in range(OP_POOL)]
        sizes = {"total_farmers": config["total_farmers"], "budget": 0,
                 "replications": replications}
        working_set = POPULATION_BYTES_PER_FARMER * config["total_farmers"]
    elif name == "stochastic-1m":
        farmers = 20_000 if tiny else STOCHASTIC_FARMERS
        scenario, config = _write_scenario(data_dir, workdir, total_farmers=farmers)
        ops = [(["run", "--config", str(scenario), "--mode", "stochastic",
                 "--seed", str(rng.getrandbits(32))], {"config": config})
               for _ in range(OP_POOL)]
        sizes = {"total_farmers": farmers, "budget": 0, "replications": 1}
        working_set = POPULATION_BYTES_PER_FARMER * farmers
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    sizes["working_set_bytes"] = working_set
    reference = reference_for(name, config, *_series(workdir, config))
    return Workload(name=name, scenario=scenario, ops=tuple(ops), sizes=sizes,
                    reference=reference)


def _csv_rows(text, header):
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != header:
        raise ValueError(f"expected header {header}, got {rows[:1]}")
    return [[float(cell) for cell in row] for row in rows[1:]]


def _check_years(rows, config):
    years = [int(row[0]) for row in rows]
    expected = list(range(config["start_year"], config["end_year"] + 1))
    if years != expected:
        raise ValueError(f"years {years} != {expected}")


def _loss(expect, alpha, beta):
    curve = reference_curve(expect["config"], expect["prices"], expect["subsidies"],
                            alpha, beta)
    return sum((curve[year] - value) ** 2 for year, value in expect["observations"])


def check_calibrate(text, expect):
    """Checks on calibrate output that hold for any correct calibrator.

    The reported loss must be the loss at the printed (alpha, beta), as the
    reference model scores it, and no worse than the best cell of the
    documented 20x20 grid. The bundled target must also be fitted within
    the criterion-6 bound. Returns (result, achieved_loss / scale).
    """
    result = json.loads(text)
    if not isinstance(result["evaluations"], int) or result["evaluations"] > expect["budget"]:
        raise ValueError(f"evaluations {result['evaluations']} over budget {expect['budget']}")
    scale = sum(value * value for _, value in expect["observations"])
    reported = result["achieved_loss"]
    rescored = _loss(expect, result["alpha"], result["beta"])
    if not abs(rescored - reported) <= RESCORE_TOLERANCE * scale:
        raise ValueError(f"achieved_loss {reported} but the printed point scores {rescored}")
    grid_best = min(_loss(expect, alpha, beta) for alpha, beta in GRID)
    if not reported <= grid_best * (1.0 + RESCORE_TOLERANCE):
        raise ValueError(f"achieved_loss {reported} worse than the best grid cell {grid_best}")
    ratio = reported / scale
    if expect["must_fit"] and not ratio <= LOSS_OVER_SCALE_LIMIT:
        raise ValueError(f"achieved_loss/scale {ratio:.3g} > {LOSS_OVER_SCALE_LIMIT}")
    return result, ratio


def check_grid(text, budget):
    """calibrate at budget = grid size: only the budget can be checked."""
    result = json.loads(text)
    if result["evaluations"] > budget:
        raise ValueError(f"evaluations {result['evaluations']} over budget {budget}")
    return result


def check_stochastic(text, expect):
    """Adoption counts are non-decreasing, within N, and new sums to final."""
    config = expect["config"]
    rows = _csv_rows(text, ["year", "energy_price", "subsidy", "economic_utility",
                            "probability", "new_adopters", "cumulative_adopters"])
    _check_years(rows, config)
    cumulative = [row[6] for row in rows]
    if any(b < a for a, b in zip(cumulative, cumulative[1:])):
        raise ValueError("cumulative adopters decrease")
    if cumulative[-1] > config["total_farmers"]:
        raise ValueError(f"cumulative {cumulative[-1]} > N {config['total_farmers']}")
    new_total = sum(row[5] for row in rows)
    if abs(new_total - cumulative[-1]) > 0.5:
        raise ValueError(f"new adopters sum {new_total} != final {cumulative[-1]}")


def check_monte_carlo(text, expect):
    """Per-year min <= mean <= max and std >= 0."""
    rows = _csv_rows(text, ["year", "mean_cumulative", "std_cumulative",
                            "min_cumulative", "max_cumulative"])
    _check_years(rows, expect["config"])
    for year, mean, std, low, high in rows:
        if not low <= mean <= high:
            raise ValueError(f"{year:.0f}: expected min <= mean <= max, got {low}, {mean}, {high}")
        if not std >= 0:
            raise ValueError(f"{year:.0f}: std {std} < 0")


CHECKS = {
    "calibrate": check_calibrate,
    "monte-carlo": check_monte_carlo,
    "stochastic-1m": check_stochastic,
}
