"""Byte-exact output contract: CLI results on the bundled scenario.

Each CLI case runs `cli_main` on both output routes, `--out` and stdout,
and compares each route's bytes with a committed fixture under tests/golden/.
Each render case passes a result to `render_result` directly: a calibration
as CSV, a Monte Carlo summary as JSON, a one-replication summary (std
exactly 0; stdout pins its CSV too) and hand-built edge values (-0.0, the
smallest subnormal, counts in e-notation). Stochastic cases pin the engine's draw
stream, so they hold for one numpy build; tests/test_dispatch.py reruns
them on each of its SIMD dispatch paths (see README). A case runs
on the bundled scenario unless it names a `--config`; multi_block_150k.yaml
is the bundled scenario at 150,000 farmers, so its stochastic run spans
several scoring pieces.
The margin tests recompute every printed real of every case, and every draw
of every stochastic case, and fail where a real lies within 1e-12 (relative)
of a rounding tie or a draw within 1e-12 of its probability: there a
last-bit change, such as a dispatch path's np.exp, could change a printed
digit or a farmer's decision.
To rewrite the fixtures after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dairypv import engine, io
from dairypv.calibration import calibrate
from dairypv.cli import cli_main
from dairypv.domain import SimulationResult, YearRecord
from dairypv.engine import _yearly_inputs, run_monte_carlo
from dairypv.io import (
    default_scenario_path,
    load_default_scenario,
    load_scenario,
    render_result,
)
from reference import stochastic_run

GOLDEN = Path(__file__).parent / "golden"
DATA = default_scenario_path().parent
MULTI_BLOCK = GOLDEN / "multi_block_150k.yaml"

CASES = {
    "run.csv": ["run"],
    "run.json": ["run", "--format", "json"],
    "run_literal.csv": ["run", "--semantics", "literal"],
    "run_stochastic_seed11.csv": ["run", "--mode", "stochastic", "--seed", "11"],
    "run_stochastic_150k_seed11.csv": ["run", "--config", str(MULTI_BLOCK),
                                       "--mode", "stochastic", "--seed", "11"],
    "monte_carlo_r8_seed5.csv": ["monte-carlo", "--replications", "8", "--seed", "5"],
    "calibrate_target_2022.json": ["calibrate", "--target", str(DATA / "target_2022.csv")],
    "calibrate_target_2022_grid.json": ["calibrate", "--target", str(DATA / "target_2022.csv"),
                                        "--budget", "400"],
}
# every CLI case, and one whose fixture a render case writes
STDOUT_CASES = {**CASES, "monte_carlo_r1_seed5.csv": ["monte-carlo", "--replications", "1",
                                                      "--seed", "5"]}


def _calibration():
    return calibrate(*load_default_scenario(), budget=2000)


def _monte_carlo(replications, seed):
    params, prices, subsidies, _ = load_default_scenario()
    return run_monte_carlo(params, prices, subsidies,
                           replications=replications, base_seed=seed)


def _edge_values():
    return SimulationResult(params_digest="edge", records=(
        YearRecord(year=2005, energy_price=18.0, subsidy=-0.0,
                   economic_utility=-0.0, probability=5e-324,
                   new_adopters=-0.0, cumulative_adopters=5e-324),
        YearRecord(year=2006, energy_price=0.123456789, subsidy=1e6,
                   economic_utility=-1234567.891, probability=1.0,
                   new_adopters=18.0, cumulative_adopters=1e6),
        YearRecord(year=2007, energy_price=1e-7, subsidy=123456.7,
                   economic_utility=1e21, probability=0.5,
                   new_adopters=123456.7, cumulative_adopters=1234567.0),
    ))


RENDER_CASES = {
    "calibrate_target_2022.csv": (_calibration, "csv"),
    "monte_carlo_r8_seed5.json": (lambda: _monte_carlo(8, 5), "json"),
    "monte_carlo_r1_seed5.csv": (lambda: _monte_carlo(1, 5), "csv"),
    "monte_carlo_r1_seed5.json": (lambda: _monte_carlo(1, 5), "json"),
    "edge_values.csv": (_edge_values, "csv"),
    "edge_values.json": (_edge_values, "json"),
}


def _argv(argv):
    """argv with the bundled scenario's --config unless it names one."""
    command, *rest = argv
    if "--config" not in rest:
        rest = ["--config", str(default_scenario_path()), *rest]
    return [command, *rest]


def _render(argv, out):
    assert cli_main([*_argv(argv), "--out", str(out)]) == 0
    return out.read_bytes()


def _render_direct(name):
    build, format = RENDER_CASES[name]
    return render_result(build(), format).encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    assert _render(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden_bytes(name, capsys):
    assert cli_main(_argv(STDOUT_CASES[name])) == 0
    out, err = capsys.readouterr()
    assert (out.encode("utf-8"), err) == ((GOLDEN / name).read_bytes(), "")


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_render_matches_golden_bytes(name):
    assert _render_direct(name) == (GOLDEN / name).read_bytes()


def test_multi_block_population_spans_several_pieces():
    params = load_scenario(MULTI_BLOCK)[0]
    assert math.ceil(params.total_farmers / engine._BLOCK) >= 2


# A printed real may sit no closer than this, relative, to a rounding tie; an ulp is
# 1.1e-16 relative, so thousands of ulps of drift cannot change a printed digit.
TIE_MARGIN = 1e-12
# Counts, and Monte Carlo means of counts over 8 replications, are exact in binary:
# integers or fractions of at most this many bits, which no dispatch path can move.
EXACT_BITS = 10


def tie_margin(value, unit=None):
    """Relative distance from value to the nearest rounding tie at unit, by default
    one in the 6th significant digit, where format(value, ".6g") rounds."""
    exact = abs(Fraction(value))
    if not exact:
        return math.inf
    if unit is None:
        unit = Fraction(10) ** (Decimal(value).adjusted() - 5)
    scaled = exact / unit
    return float(abs(scaled - math.floor(scaled) - Fraction(1, 2)) / scaled)


def printed_reals(render, monkeypatch):
    """(value, text) of every real number that render() prints, caught in io._table."""
    printed, table = [], io._table

    def recording_table(result):
        head, key, columns, rows = table(result)
        printed.extend((value, show(value)) for row in rows
                       for (_, (show, _)), value in zip(columns, row)
                       if show in (io._fmt, io._fmt_count))
        return head, key, columns, rows

    monkeypatch.setattr(io, "_table", recording_table)
    render()
    return printed


@pytest.mark.parametrize("name", sorted(CASES) + sorted(RENDER_CASES))
def test_printed_reals_are_far_from_rounding_ties(name, tmp_path, monkeypatch):
    render = ((lambda: _render(CASES[name], tmp_path / name)) if name in CASES else
              (lambda: _render_direct(name)))
    printed = printed_reals(render, monkeypatch)
    assert printed
    near = []
    for value, text in printed:
        if math.ldexp(value, EXACT_BITS).is_integer():
            continue
        margin = tie_margin(value)
        if text == format(value, ".2f"):  # a count printed with 2 decimals rounds there too
            margin = min(margin, tie_margin(value, Fraction(1, 100)))
        if margin < TIE_MARGIN:
            near.append(f"{value!r} printed as {text} is {margin:.2g} from a tie")
    assert not near, f"{name}: " + "; ".join(near)


@pytest.mark.parametrize("value, tie", [
    (480.0945 * (1 + 1e-13), "480.0945"),
    (480.0945 * (1 - 1e-13), "480.0945"),
    (0.001234565 * (1 + 1e-13), "0.001234565"),
    (1234565.0 * (1 - 1e-13), "1234565"),
])
def test_tie_margin_flags_a_value_1e_13_from_a_tie(value, tie):
    assert value != float(tie)
    assert 0.5e-13 < tie_margin(value) < TIE_MARGIN


def test_tie_margin_of_known_values():
    # the golden value closest to a tie: 480.0944998898248 prints as 480.094
    assert tie_margin(480.0944998898248) == pytest.approx(2.3e-10, rel=0.01)
    assert tie_margin(18000.005 + 1e-9, Fraction(1, 100)) < TIE_MARGIN
    assert tie_margin(18000.25, Fraction(1, 100)) == pytest.approx(0.5 / 1800025)


# golden case: (scenario, seeds of its stochastic runs, the column of their mean count)
STOCHASTIC = {
    "run_stochastic_seed11.csv": (default_scenario_path(), [11], "cumulative_adopters"),
    "run_stochastic_150k_seed11.csv": (MULTI_BLOCK, [11], "cumulative_adopters"),
    "monte_carlo_r1_seed5.csv": (default_scenario_path(), [5], "mean_cumulative"),
    "monte_carlo_r8_seed5.csv": (default_scenario_path(), range(5, 13), "mean_cumulative"),
}
# A draw may sit no closer than this, relative, to the probability it is compared with.
DRAW_MARGIN = 1e-12


def draw_margin(draws, probabilities):
    """Smallest |draw - p| / p over one year's decisions (inf for none)."""
    return float(np.min(np.abs(draws - probabilities) / probabilities, initial=np.inf))


@pytest.mark.parametrize("name", sorted(STOCHASTIC))
def test_stochastic_draws_are_far_from_their_probabilities(name):
    config, seeds, column = STOCHASTIC[name]
    params, prices, subsidies, _ = load_scenario(config)
    annuity, energy_prices, yearly_subsidies, _ = _yearly_inputs(params, prices, subsidies)
    years = range(params.start_year, params.end_year + 1)
    near, curves = [], []
    for seed in seeds:
        curves.append([])
        for year, (_, probabilities, draws, cumulative) in zip(
                years, stochastic_run(params, annuity, energy_prices, yearly_subsidies, seed)):
            margin = draw_margin(draws, probabilities)
            if margin < DRAW_MARGIN:
                near.append(f"seed {seed}, year {year}: a draw is {margin:.2g} from its p")
            curves[-1].append(cumulative)
    with open(GOLDEN / name, encoding="utf-8", newline="") as handle:
        golden = [row[column] for row in csv.DictReader(handle)]
    # the reference run makes the golden decisions: its mean counts print as the file's
    assert golden == [io._fmt_count(sum(counts) / len(counts)) for counts in zip(*curves)]
    assert not near, f"{name}: " + "; ".join(near)


@pytest.mark.parametrize("relative", [1e-13, -1e-13])
def test_draw_margin_flags_a_draw_1e_13_from_its_probability(relative):
    probabilities = np.array([0.0050647, 0.00520441, 0.0099])
    draws = np.array([0.5, probabilities[1] * (1 + relative), 0.0])
    assert 0.5e-13 < draw_margin(draws, probabilities) < DRAW_MARGIN
    assert draw_margin(np.array([0.5, 0.9, 0.0]), probabilities) == 1.0


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        _render(argv, GOLDEN / name)
    for name in RENDER_CASES:
        (GOLDEN / name).write_bytes(_render_direct(name))
