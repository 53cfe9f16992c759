import json
import os
import re
import stat
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import dairypv
from dairypv.calibration import calibrate
from dairypv.cli import cli_main
from dairypv.engine import run_monte_carlo, run_simulation
from dairypv.io import default_scenario_path, load_default_scenario, load_scenario, render_result

from conftest import write_scenario


@pytest.fixture()
def default_config():
    return str(default_scenario_path())


class TestRunCommand:
    def test_missing_config_exits_1_and_names_path(self, capsys):
        code = cli_main(["run", "--config", "does/not/exist.yaml"])
        err = capsys.readouterr().err
        assert code == 1
        assert "does/not/exist.yaml" in err

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        code = cli_main(["run", "--config", "x.yaml", "--frobnicate"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["explode"]) == 1

    def test_duplicate_scenario_key_exits_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        path.write_text(path.read_text() + "total_farmers: 100\n")
        code = cli_main(["run", "--config", str(path)])
        assert code == 1
        assert "duplicate key 'total_farmers'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"pv_cost_min: [5000\nbeta: 0.02\n",
        b"pv_cost_min: !!python/object:os.system [echo]\n",
        b"# caf\xe9 in Latin-1\n",
        b"1: 2\nfoo: 3\n",
        b"null: 2\n",
    ], ids=["syntax_error", "unsafe_tag", "not_utf8", "int_key", "null_key"])
    def test_malformed_scenario_yaml_exits_1_naming_file(self, tmp_path, capsys, text):
        path = write_scenario(tmp_path)
        path.write_bytes(text + path.read_bytes())
        code = cli_main(["run", "--config", str(path)])
        assert code == 1
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("config, text, message", [
        (None, "- 1\n- 2\n", "scenario file must be a flat key/value mapping"),
        (None, "5\n", "scenario file must be a flat key/value mapping"),
        ({"price_series": 5}, None, "key 'price_series' must be a string, got 5"),
        ({"target_loss": "rmse"}, None,
         "loss must be one of ('squared_error', 'absolute_error'), got 'rmse'"),
    ], ids=["list", "scalar", "int_series_path", "bad_target_loss"])
    def test_scenario_of_wrong_shape_exits_1_naming_file(self, tmp_path, capsys, config, text,
                                                         message):
        path = write_scenario(tmp_path, config=config)
        if text is not None:
            path.write_text(text)
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_unexpected_error_exits_2(self, default_config, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("dairypv.cli.run_simulation", boom)
        assert cli_main(["run", "--config", default_config]) == 2
        assert capsys.readouterr().err == "error: boom\n"

    def test_stochastic_without_seed_is_validation_error(self, tmp_path, capsys):
        # stochastic by --mode, or by the scenario's mode
        path = write_scenario(tmp_path)
        seedless = write_scenario(tmp_path, config={"mode": "stochastic"}, name="seedless.yaml")
        for argv in (["--config", str(path), "--mode", "stochastic"], ["--config", str(seedless)]):
            assert cli_main(["run", *argv]) == 1
            assert capsys.readouterr() == (
                "", "error: seed is required when mode is 'stochastic'\n")

    def test_horizon_past_the_last_calendar_year_exits_1_before_any_work(self, tmp_path,
                                                                         capsys):
        path = write_scenario(tmp_path, config={"horizon_years": 10**7})
        start = time.perf_counter()
        code = cli_main(["run", "--config", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 1
        assert "horizon_years must be in 0-9999" in capsys.readouterr().err
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_out_in_missing_directory_names_out_path(self, default_config, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = cli_main(["run", "--config", default_config, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert not out.parent.exists()

    def test_out_naming_a_directory_names_out_path(self, default_config, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        code = cli_main(["run", "--config", default_config, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert not any(out.iterdir())


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so stderr shows what a user would see."""
    src = str(Path(dairypv.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dairypv.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("fifo", [True, False], ids=["fifo", "dev-stdout-pipe"])
def test_out_naming_no_regular_file_exits_1_and_replaces_nothing(default_config, tmp_path,
                                                                 fifo):
    # a FIFO (or /dev/stdout, here a pipe) is neither replaced nor opened: the run's
    # timeout stops a writer blocked on the FIFO with no reader
    out = tmp_path / "fifo" if fifo else Path("/dev/stdout")
    if fifo:
        os.mkfifo(out)
    done = run_cli("run", "--config", default_config, "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", f"error: not a regular file: '{out}'\n")
    assert [p.name for p in tmp_path.iterdir()] == (["fifo"] if fifo else [])
    assert not fifo or stat.S_ISFIFO(out.stat().st_mode)


def test_help_exits_0_and_a_usage_error_exits_1():
    # the process's own status, through main() and sys.exit
    shown = run_cli("--help")
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.startswith("usage: dairypv")
    refused = run_cli("run", "--config", "x.yaml", "--frobnicate")
    assert (refused.returncode, refused.stdout) == (1, "")
    assert refused.stderr.startswith("usage: dairypv")
    assert refused.stderr.endswith("error: unrecognized arguments: --frobnicate\n")


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--mode", "stochastic", "--seed", "3"],
    ["monte-carlo", "--replications", "2", "--seed", "3"],
])
def test_kernel_overflow_prints_nothing_on_stderr(tmp_path, argv):
    # alpha * utility overflows to +-inf: the probability is the cap or the floor
    config = write_scenario(tmp_path, config={"alpha": 1.0e308})
    proc = run_cli(*argv, "--config", str(config))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 4  # header + 3 years


def test_subsidy_outside_the_study_range_warns_on_one_stderr_line(tmp_path, capsys):
    subsidies = "year,subsidy_eur\n2005,500\n2006,1500\n2007,2000\n"
    config = write_scenario(tmp_path, subsidies=subsidies)
    proc = run_cli("run", "--config", str(config))
    assert cli_main(["run", "--config", str(config)]) == 0
    assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)
    assert proc.stderr == (f"warning: {tmp_path / 'subsidies.csv'}: subsidy outside the study "
                           "range 1000-3500 EUR in years: 2005\n")


@pytest.mark.parametrize("name, text, line", [
    ("scenario.yaml", b"seed: [5\nbeta: 0.02\n", 2),
    ("scenario.yaml", b"seed: !!python/object:os.system [echo]\n", 1),
    ("scenario.yaml", "# café crème brûlée\nseed: \x01\n".encode(), 2),
    ("scenario.yaml", b"seed: *anchor\n", 1),
    ("scenario.yaml", b"total_farmers: 100\n", 1),
    pytest.param("scenario.yaml", b"seed: 1" + b"0" * 5000 + b"\n", 1,
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python converts ints of any length")),
    ("scenario.yaml", b"# caf\xe9\n", 1),
    ("prices.csv", b"year,price_eur_per_kwh\n2005,0.14\n2006,0.1\xff\n", 3),
    ("prices.csv", b"year,price_eur_per_kwh\n2005,0.14\n2006,abc\n", 3),
    ("prices.csv", b"year,price_eur_per_kwh\n2005,0.14\n2007,0.16\n", 3),
    ("prices.csv", b"year,price_eur_per_kwh\n2005,0.14\n2006," + b"1" * 131_073 + b"\n", 3),
], ids=["yaml_syntax", "unsafe_tag", "control_character_after_non_ascii", "undefined_alias",
        "duplicate_key", "5001_digit_integer", "yaml_not_utf8", "csv_not_utf8", "bad_value",
        "year_gap", "field_past_the_csv_limit"])
def test_a_located_input_error_is_one_stderr_line(tmp_path, name, text, line):
    # appended to the scenario's own lines, or the whole CSV; line counts from the text
    config = write_scenario(tmp_path)
    path = tmp_path / name
    before = path.read_bytes() if name == "scenario.yaml" else b""
    path.write_bytes(before + text)
    proc = run_cli("run", "--config", str(config))
    assert (proc.returncode, proc.stdout) == (1, "")
    line += before.count(b"\n")
    assert re.fullmatch(re.escape(f"error: {path}: line {line}: ") + r"[^\n]+\n", proc.stderr)


@pytest.mark.parametrize("horizon, annuity", [(153, "1.0101010101008717e+306"), (200, "inf")],
                         ids=["153", "200"])
@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--mode", "stochastic", "--seed", "3"],
    ["monte-carlo", "--replications", "2", "--seed", "3"],
    ["calibrate", "--target", str(default_scenario_path().parent / "target_2022.csv")],
], ids=["run", "stochastic", "monte-carlo", "calibrate"])
def test_utilities_past_the_float_range_exit_1_before_any_work(tmp_path, argv, horizon,
                                                               annuity):
    # (1 + rate)^t underflows: at horizon 153 gen*price*A - (1 + m*A)*c is inf - inf,
    # and at horizon 200 the annuity A itself is inf
    config = bundled_config_copy(tmp_path, discount_rate=-0.99, horizon_years=horizon)
    proc = run_cli(*argv, "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: utility in 2005 is not finite (annuity {annuity}); it depends on "
        "discount_rate, horizon_years, annual_generation_kwh, maintenance_rate, "
        "pv_cost_min, pv_cost_max and the year's energy price and subsidy\n")


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--mode", "stochastic", "--seed", "3"],
    ["monte-carlo", "--replications", "2", "--seed", "3"],
    ["calibrate", "--target", str(default_scenario_path().parent / "target_2022.csv")],
], ids=["run", "stochastic", "monte-carlo", "calibrate"])
def test_total_farmers_past_the_float_range_exits_1_naming_the_field(tmp_path, argv):
    # runs take N as a float: 10**400 has none, so the scenario load rejects it
    config = bundled_config_copy(tmp_path, total_farmers=10**400)
    proc = run_cli(*argv, "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {config}: total_farmers must be finite, got an integer too large for a float\n")


@pytest.mark.parametrize("field", ["total_farmers", "alpha"])
def test_integer_of_5001_digits_exits_1_naming_the_file(tmp_path, field):
    # past Python's int-string digit limit (3.11+) the YAML int does not convert;
    # with no limit (3.10) the value is past the float range
    config = bundled_config_copy(tmp_path, **{field: 7})
    config.write_text(config.read_text().replace(f"{field}: 7", f"{field}: 1" + "0" * 5000))
    proc = run_cli("run", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {config}: ")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 300  # the value is not printed


def test_stochastic_mean_past_the_float_range_exits_1_naming_the_year(tmp_path):
    # at horizon 152 every farmer's U is finite (about 6.5e306), but their sum is not
    config = bundled_config_copy(tmp_path, discount_rate=-0.99, horizon_years=152)
    proc = run_cli("run", "--mode", "stochastic", "--seed", "3", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: mean utility in 2005 is not finite: the sum of the "
                           "remaining farmers' utilities left float range\n")


@pytest.mark.parametrize("argv, code, stderr", [
    (["run"], 0, ""),
    (["monte-carlo", "--replications", "2", "--seed", "3"], 0, ""),
    (["run", "--mode", "stochastic", "--seed", "3"], 1,
     "error: mean utility in 2005 is not finite: the sum of the remaining farmers' "
     "utilities left float range\n"),
], ids=["run", "monte-carlo", "stochastic"])
def test_costs_whose_sum_leaves_float_range_keep_a_finite_midpoint(tmp_path, argv, code,
                                                                    stderr):
    # pv_cost_min + pv_cost_max is inf, but the midpoint is 1e308 and so is every
    # farmer's cost: each U is -1e308, while 18,000 of them sum past float range
    config = bundled_config_copy(tmp_path, pv_cost_min=1e308, pv_cost_max=1e308,
                                 maintenance_rate=0)
    proc = run_cli(*argv, "--config", str(config))
    assert (proc.returncode, proc.stderr) == (code, stderr)
    if argv == ["run"]:
        assert {row.split(",")[3] for row in proc.stdout.splitlines()[1:]} == {"-1e+308"}


@pytest.mark.parametrize("argv", [
    ["run"],
    ["monte-carlo", "--replications", "2", "--seed", "3"],
    ["calibrate", "--target", str(default_scenario_path().parent / "target_2022.csv")],
], ids=["run", "monte-carlo", "calibrate"])
def test_short_series_exit_1_naming_the_price_file(tmp_path, argv):
    # both series lack 2005-2006: the price file is read, and named, first
    for name, header in (("prices.csv", "year,price_eur_per_kwh"),
                         ("subsidies.csv", "year,subsidy_eur")):
        rows = "".join(f"{year},0.2\n" for year in range(2007, 2023))
        (tmp_path / name).write_text(f"{header}\n{rows}")
    config = bundled_config_copy(tmp_path, price_series="prices.csv",
                                 subsidy_series="subsidies.csv")
    proc = run_cli(*argv, "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {tmp_path / 'prices.csv'}: price series covers 2007-2022 but the scenario "
        "needs 2005-2022; missing years: 2005, 2006\n")


@pytest.mark.parametrize("argv, bundled", [
    (["run", "--seed", "5"], ["--mode", "stochastic"]),
    (["monte-carlo", "--replications", "1", "--seed", "5"], []),
    (["calibrate", "--budget", "400"], []),
], ids=["run", "monte-carlo", "calibrate"])
def test_seedless_stochastic_scenario_serves_every_command(tmp_path, capsys, argv, bundled):
    # only a stochastic run reads the seed, which run's --seed gives it;
    # monte-carlo and calibrate read neither the mode nor the seed
    assert cli_main([*argv, *bundled, "--config", str(default_scenario_path())]) == 0
    expected = capsys.readouterr()
    config = bundled_config_copy(tmp_path, mode="stochastic")
    assert cli_main([*argv, "--config", str(config)]) == 0
    assert capsys.readouterr() == expected


def bundled_config_copy(tmp_path, **overrides):
    """The bundled scenario with absolute series paths and overrides, as a file."""
    data = yaml.safe_load(default_scenario_path().read_text())
    for key in ("price_series", "subsidy_series", "target_series"):
        data[key] = str(default_scenario_path().parent / data[key])
    data.update(overrides)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestCalibrateCommand:
    def test_calibrate_then_run_reproduces_441(self, default_config, tmp_path, capsys):
        target = str(default_scenario_path().parent / "target_2022.csv")
        code = cli_main(["calibrate", "--config", default_config, "--target", target,
                         "--budget", "1200"])
        assert code == 0
        fit = json.loads(capsys.readouterr().out)
        fitted_config = bundled_config_copy(tmp_path, alpha=float(fit["alpha"]),
                                            beta=float(fit["beta"]))
        out = tmp_path / "fitted.csv"
        assert cli_main(["run", "--config", str(fitted_config), "--out", str(out)]) == 0
        final = float(out.read_text().splitlines()[-1].split(",")[-1])
        assert abs(final - 441.0) <= 1.0

    def test_calibrate_to_the_observed_target_renders_360(self, default_config, capsys):
        # the fit is repeated in-process: the printed fit's 6 digits move the level to 359.999
        # (test_the_printed_observed_fit_reruns_to_359_999)
        observed = default_scenario_path().parent / "target_2022_observed.csv"
        assert cli_main(["calibrate", "--config", default_config, "--target", str(observed)]) == 0
        params, prices, subsidies, target = load_scenario(default_config, observed)
        fit = calibrate(params, prices, subsidies, target)
        assert capsys.readouterr().out == render_result(fit, "json")
        assert fit.achieved_loss <= 1e-4 * sum(value * value for _, value in target.observations)
        run = run_simulation(replace(params, alpha=fit.alpha, beta=fit.beta), prices, subsidies)
        last = render_result(run).splitlines()[-1].split(",")
        assert (last[0], last[-1]) == ("2022", "360.00")

    def test_the_printed_observed_fit_reruns_to_359_999(self, default_config, tmp_path, capsys):
        # README's Calibration note: 6 printed digits are too coarse to give back the fit's 360
        observed = default_scenario_path().parent / "target_2022_observed.csv"
        assert cli_main(["calibrate", "--config", default_config, "--target", str(observed)]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert (fit["alpha"], fit["beta"]) == (0.106246, 0.00219346)
        config = bundled_config_copy(tmp_path, alpha=fit["alpha"], beta=fit["beta"])
        assert cli_main(["run", "--config", str(config)]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert (last[0], last[-1]) == ("2022", "359.999")

    def test_the_modelled_fit_sits_045_points_above_the_observed_target(self, default_config):
        observed = default_scenario_path().parent / "target_2022_observed.csv"
        (_, actual), = load_scenario(default_config, observed).target.observations
        params, prices, subsidies, target = load_default_scenario()
        (_, modelled), = target.observations
        fit = calibrate(params, prices, subsidies, target)
        run = run_simulation(replace(params, alpha=fit.alpha, beta=fit.beta), prices, subsidies)
        gap = run.records[-1].cumulative_adopters - actual
        assert abs(gap - (modelled - actual)) <= 1e-4
        assert round(100 * gap / params.total_farmers, 4) == 0.45

    def test_target_defaults_to_the_scenarios_target_series(self, default_config, capsys):
        assert cli_main(["calibrate", "--config", default_config]) == 0
        golden = Path(__file__).parent / "golden" / "calibrate_target_2022.json"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("given", [False, True], ids=["target_series", "target_flag"])
    def test_scenario_target_loss_reaches_calibrate(self, tmp_path, capsys, given):
        config = bundled_config_copy(tmp_path, target_loss="absolute_error")
        flag = ["--target", str(default_scenario_path().parent / "target_2022.csv")]
        assert cli_main(["calibrate", "--config", str(config), "--budget", "400",
                         *(flag if given else [])]) == 0
        params, prices, subsidies, target = load_default_scenario()
        fit = calibrate(params, prices, subsidies, replace(target, loss="absolute_error"),
                        budget=400)
        squared = calibrate(params, prices, subsidies, target, budget=400)
        assert capsys.readouterr().out == render_result(fit, "json")
        assert fit != squared

    def test_no_target_exits_1_naming_the_config(self, tmp_path, capsys):
        config = bundled_config_copy(tmp_path)
        config.write_text("".join(line for line in config.read_text().splitlines(True)
                                  if not line.startswith("target_series:")))
        assert cli_main(["calibrate", "--config", str(config)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {config}: calibrate needs --target or a target_series\n")

    def test_bad_budget_exits_1(self, default_config, capsys):
        target = str(default_scenario_path().parent / "target_2022.csv")
        code = cli_main(["calibrate", "--config", default_config, "--target", target,
                         "--budget", "10"])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (b"year,cumulative_adopters\n2022,441\n2010,50\n", "line 3: years must increase"),
        (b"year,cumulative_adopters\n2022,\xff\n",
         "line 2: 'utf-8' codec can't decode byte 0xff"),
        (b"year,cumulative_adopters\n2010,50\n2022," + b"4" * 131_073 + b"\n",
         "line 3: field larger than field limit (131072)"),
    ], ids=["years_decrease", "not_utf8", "field_past_the_csv_limit"])
    def test_malformed_target_exits_1_naming_file(self, default_config, tmp_path, capsys,
                                                  text, message):
        target = tmp_path / "bad_target.csv"
        target.write_bytes(text)
        code = cli_main(["calibrate", "--config", default_config, "--target", str(target)])
        assert code == 1
        assert f"error: {target}: {message}" in capsys.readouterr().err

    def test_target_outside_scenario_names_target_file(self, default_config, tmp_path,
                                                        capsys):
        target = tmp_path / "late_target.csv"
        target.write_text("year,cumulative_adopters\n2030,441\n")
        code = cli_main(["calibrate", "--config", default_config, "--target", str(target)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {target}: target year 2030 outside scenario range 2005-2022\n")

    def test_target_series_outside_scenario_names_target_file(self, tmp_path, capsys):
        target = tmp_path / "late_target.csv"
        target.write_text("year,cumulative_adopters\n2022,20000\n")
        config = bundled_config_copy(tmp_path, target_series=str(target))
        code = cli_main(["run", "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {target}: target value 20000.0 for year 2022 outside [0, 18000]\n")

    def test_no_finite_grid_loss_exits_2(self, tmp_path):
        # every loss overflows: (p*N - 1e299)**2 exceeds the float range
        config = bundled_config_copy(tmp_path, total_farmers=10**300)
        target = tmp_path / "huge_target.csv"
        target.write_text("year,cumulative_adopters\n2022,1e299\n")
        proc = run_cli("calibrate", "--config", str(config), "--target", str(target))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("calibration failed: no grid point produced a finite loss; "
                               "calibration cannot proceed\n")


class TestMonteCarloCommand:
    def test_bad_replications_exit_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = cli_main(["monte-carlo", "--config", str(path),
                         "--replications", "0", "--seed", "3"])
        assert code == 1

    def test_negative_seed_exits_1_naming_base_seed(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = cli_main(["monte-carlo", "--config", str(path),
                         "--replications", "1", "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: base_seed must fit in an unsigned 64-bit integer, got -1\n")

    def test_loaded_params_pass_through_unchanged(self, default_config, monkeypatch, capsys):
        # Monte Carlo reads neither the scenario's mode nor its seed, so the CLI rewrites neither
        seen = []

        def recording(params, *args):
            seen.append(params)
            return run_monte_carlo(params, *args)

        monkeypatch.setattr("dairypv.cli.run_monte_carlo", recording)
        assert cli_main(["monte-carlo", "--config", default_config,
                         "--replications", "1", "--seed", "5"]) == 0
        assert seen == [load_default_scenario().params]
        assert seen[0].mode == "deterministic" and seen[0].seed is None
