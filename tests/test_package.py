"""The names `import dairypv` exports, the surface README's "Package layout" documents, and the
data files a normal install ships."""

import importlib
from pathlib import Path

import pytest

import dairypv

DOCUMENTED = [
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


def test_all_is_the_documented_surface_and_every_name_resolves():
    assert sorted(dairypv.__all__) == DOCUMENTED
    for name in dairypv.__all__:
        assert getattr(dairypv, name) is not None


@pytest.mark.parametrize("name", [
    "agent_utility", "annual_savings", "constant_savings", "economic_utility",
    "net_present_value", "adoption_probability", "evaluate_loss", "round_half_up",
])
def test_test_only_reference_code_is_not_exported(name):
    assert not hasattr(dairypv, name)


def test_economics_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("dairypv.economics")


INPUT_ERRORS = ("ValidationError", "MissingHeaderError", "DuplicateYearError",
                "YearGapError", "BadValueError", "CoverageGapError")


@pytest.mark.parametrize("cls", [v for v in vars(dairypv.errors).values() if isinstance(v, type)],
                         ids=lambda cls: cls.__name__)
def test_every_error_is_a_package_error_and_input_errors_are_value_errors(cls):
    assert issubclass(cls, dairypv.errors.DairyPvError)
    assert issubclass(cls, ValueError) == (cls.__name__ in INPUT_ERRORS)
    assert issubclass(cls, RuntimeError) == (cls is dairypv.errors.CalibrationFailedError)


def test_every_data_file_matches_a_package_data_glob():
    # CI installs in editable mode, which reads the source tree; a normal install ships
    # only the data files that pyproject.toml's package-data globs name
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["dairypv"]
    package = root / "src" / "dairypv"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    data = {path for path in (package / "data").rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")}
    assert data, "no data files found"
    assert sorted(str(path.relative_to(package)) for path in data - shipped) == []
