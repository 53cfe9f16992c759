import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import dairypv
from dairypv.cli import cli_main
from dairypv.io import default_scenario_path

from conftest import write_scenario


@pytest.fixture()
def default_config():
    return str(default_scenario_path())


class TestRunCommand:
    def test_happy_path_writes_csv_to_stdout(self, default_config, capsys):
        code = cli_main(["run", "--config", default_config])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("year,energy_price")
        assert len(lines) == 19  # header + 18 years

    def test_json_format(self, default_config, capsys):
        code = cli_main(["run", "--config", default_config, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 18

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

    def test_mode_and_seed_overrides(self, default_config, tmp_path, capsys):
        code = cli_main([
            "run", "--config", default_config, "--mode", "stochastic", "--seed", "42",
            "--out", str(tmp_path / "stoch.csv"),
        ])
        assert code == 0
        text = (tmp_path / "stoch.csv").read_text()
        # stochastic counts are whole numbers of farmers
        final = text.splitlines()[-1].split(",")[-1]
        assert float(final) == int(float(final))

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

    def test_stochastic_without_seed_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = cli_main(["run", "--config", str(path), "--mode", "stochastic"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_horizon_past_the_last_calendar_year_exits_1_before_any_work(self, tmp_path,
                                                                         capsys):
        path = write_scenario(tmp_path, config={"horizon_years": 10**7})
        start = time.perf_counter()
        code = cli_main(["run", "--config", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 1
        assert "horizon_years must be in 0-9999" in capsys.readouterr().err
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_semantics_override(self, default_config, tmp_path):
        out_h = tmp_path / "hazard.csv"
        out_l = tmp_path / "literal.csv"
        assert cli_main(["run", "--config", default_config, "--out", str(out_h)]) == 0
        assert cli_main(["run", "--config", default_config, "--semantics", "literal",
                         "--out", str(out_l)]) == 0
        assert out_h.read_bytes() != out_l.read_bytes()

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

    def test_repeat_invocations_byte_identical(self, default_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli_main(["run", "--config", default_config, "--mode", "stochastic",
                             "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so stderr shows what a user would see."""
    src = str(Path(dairypv.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dairypv.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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

    def test_bad_budget_exits_1(self, default_config, capsys):
        target = str(default_scenario_path().parent / "target_2022.csv")
        code = cli_main(["calibrate", "--config", default_config, "--target", target,
                         "--budget", "10"])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (b"year,cumulative_adopters\n2022,441\n2010,50\n", "line 3: years must increase"),
        (b"year,cumulative_adopters\n2022,\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["years_decrease", "not_utf8"])
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

    def test_target_series_outside_scenario_names_config(self, tmp_path, capsys):
        target = tmp_path / "late_target.csv"
        target.write_text("year,cumulative_adopters\n2022,20000\n")
        config = bundled_config_copy(tmp_path, target_series=str(target))
        code = cli_main(["run", "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}: target value 20000.0 for year 2022 outside [0, 18000]\n")

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

    def test_out_file(self, default_config, tmp_path):
        target = str(default_scenario_path().parent / "target_2022.csv")
        out = tmp_path / "fit.json"
        code = cli_main(["calibrate", "--config", default_config, "--target", target,
                         "--budget", "400", "--out", str(out)])
        assert code == 0
        assert "alpha" in json.loads(out.read_text())


class TestMonteCarloCommand:
    def test_summary_on_stdout(self, tmp_path, capsys):
        path = write_scenario(tmp_path, config={"total_farmers": 100})
        code = cli_main(["monte-carlo", "--config", str(path),
                         "--replications", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("year,mean_cumulative")
        assert len(out.splitlines()) == 4  # header + 3 years

    def test_identical_invocations_identical_summaries(self, tmp_path):
        path = write_scenario(tmp_path, config={"total_farmers": 100})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli_main(["monte-carlo", "--config", str(path), "--replications", "5",
                             "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_replications_exit_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = cli_main(["monte-carlo", "--config", str(path),
                         "--replications", "0", "--seed", "3"])
        assert code == 1
