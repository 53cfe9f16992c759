"""Byte-exact output contract: CLI results on the bundled scenario.

Each case runs `cli_main` with `--out` and compares the written bytes with
a committed fixture under tests/golden/. Stochastic cases pin the PCG64
draw stream, so they hold for one numpy build and CPU (see README).
To rewrite the fixtures after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from dairypv.cli import cli_main
from dairypv.io import default_scenario_path

GOLDEN = Path(__file__).parent / "golden"
DATA = default_scenario_path().parent

CASES = {
    "run.csv": ["run"],
    "run.json": ["run", "--format", "json"],
    "run_literal.csv": ["run", "--semantics", "literal"],
    "run_stochastic_seed11.csv": ["run", "--mode", "stochastic", "--seed", "11"],
    "monte_carlo_r8_seed5.csv": ["monte-carlo", "--replications", "8", "--seed", "5"],
    "calibrate_target_2022.json": ["calibrate", "--target", str(DATA / "target_2022.csv")],
}


def _render(argv, out):
    command, *rest = argv
    code = cli_main([command, "--config", str(default_scenario_path()), *rest,
                     "--out", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    assert _render(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        _render(argv, GOLDEN / name)
