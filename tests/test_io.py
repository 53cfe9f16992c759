import builtins
import io
import json
import os
import stat
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest
import yaml

from dairypv.calibration import CalibrationResult, CalibrationTarget
from dairypv.domain import SimulationResult, YearRecord
from dairypv.engine import run_monte_carlo
from dairypv.errors import (
    BadValueError,
    CoverageGapError,
    DuplicateYearError,
    MissingHeaderError,
    ValidationError,
    YearGapError,
)
from dairypv.io import (
    TARGET_COLUMN,
    _parse_rows,
    _parse_target,
    _read,
    default_scenario_path,
    load_scenario,
    parse_year_series,
    render_result,
    write_result,
)

from conftest import write_scenario


def parse(text, column="price_eur_per_kwh"):
    return parse_year_series(io.StringIO(text), column)


class TestParseYearSeries:
    def test_two_row_series(self):
        series = parse("year,price_eur_per_kwh\n2005,0.14\n2006,0.15\n")
        assert dict(series.items()) == {2005: 0.14, 2006: 0.15}
        assert parse(" year , price_eur_per_kwh \n2005,0.14\n2006,0.15\n") == series

    def test_year_gap_names_missing_year(self):
        with pytest.raises(YearGapError) as excinfo:
            parse("year,price_eur_per_kwh\n2005,0.14\n2007,0.15\n")
        assert excinfo.value.missing_years == (2006,)
        assert "2006" in str(excinfo.value)
        assert excinfo.value.line == 3

    def test_duplicate_year(self):
        with pytest.raises(DuplicateYearError) as excinfo:
            parse("year,price_eur_per_kwh\n2005,0.14\n2005,0.15\n")
        assert excinfo.value.year == 2005
        assert excinfo.value.line == 3

    def test_decreasing_years(self):
        with pytest.raises(YearGapError, match="increase"):
            parse("year,price_eur_per_kwh\n2006,0.14\n2005,0.15\n")

    def test_empty_file_is_missing_header(self):
        with pytest.raises(MissingHeaderError, match="empty"):
            parse("")

    def test_wrong_header(self):
        with pytest.raises(MissingHeaderError, match="price_eur_per_kwh"):
            parse("year,price\n2005,0.14\n")

    def test_bad_year_names_line(self):
        with pytest.raises(BadValueError) as excinfo:
            parse("year,price_eur_per_kwh\n2005,0.14\nBAD,0.15\n")
        assert excinfo.value.line == 3
        assert "BAD" in str(excinfo.value)

    def test_bad_value_names_line(self):
        with pytest.raises(BadValueError) as excinfo:
            parse("year,price_eur_per_kwh\n2005,abc\n")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(BadValueError, match="finite") as excinfo:
            parse(f"year,price_eur_per_kwh\n2005,{value}\n")
        assert str(excinfo.value) == f"line 2: price_eur_per_kwh {value!r} is not finite"
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("row, count", [("2005,0.14,extra", 3), ("2005", 1)],
                             ids=["three", "one"])
    def test_wrong_column_count(self, row, count):
        with pytest.raises(BadValueError, match="columns") as excinfo:
            parse(f"year,price_eur_per_kwh\n{row}\n")
        assert str(excinfo.value) == f"line 2: expected 2 columns, got {count}"
        assert excinfo.value.line == 2

    def test_field_past_the_csv_limit_names_line(self):
        with pytest.raises(BadValueError) as excinfo:
            parse("year,price_eur_per_kwh\n\n2005,0.14\n2006," + "1" * 131_073 + "\n")
        assert str(excinfo.value) == "line 4: field larger than field limit (131072)"
        assert excinfo.value.line == 4

    def test_empty_lines_are_skipped_but_counted(self):
        series = parse("year,price_eur_per_kwh\n2005,0.14\n\n2006,0.15\n\n\n")
        assert dict(series.items()) == {2005: 0.14, 2006: 0.15}
        with pytest.raises(BadValueError, match="line 5: ") as excinfo:
            parse("year,price_eur_per_kwh\n\n2005,0.14\n\n2006,abc\n\n")
        assert excinfo.value.line == 5
        # a quoted value that spans two lines: csv's line count, not the record count
        with pytest.raises(BadValueError, match="line 4: ") as excinfo:
            parse('year,price_eur_per_kwh\n"2005","0.1\n"\n2006,abc\n')
        assert excinfo.value.line == 4

    def test_header_only(self):
        with pytest.raises(BadValueError, match="no data rows") as excinfo:
            parse("year,price_eur_per_kwh\n")
        assert excinfo.value.line is None


def parse_target(text):
    return _parse_rows(io.StringIO(text), TARGET_COLUMN, require_contiguous=False)


class TestParseTarget:
    def test_sparse_years_allowed(self):
        obs = parse_target("year,cumulative_adopters\n2010,100\n2022,441\n")
        assert obs == [(2010, 100.0), (2022, 441.0)]

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateYearError):
            parse_target("year,cumulative_adopters\n2022,441\n2022,360\n")

    def test_decreasing_rejected(self):
        with pytest.raises(YearGapError, match="must increase, got 2010 after 2022") as excinfo:
            parse_target("year,cumulative_adopters\n2022,441\n2010,100\n")
        assert excinfo.value.line == 3
        assert excinfo.value.missing_years == ()


class TestLoadScenario:
    def test_bundled_default_loads(self, default_bundle):
        params, prices, subsidies, target = default_bundle
        assert params.total_farmers == 18000
        assert params.start_year == 2005 and params.end_year == 2022
        assert prices.first_year == 2005 and prices.last_year == 2022
        assert subsidies.window(range(2022, 2023), "subsidy") == (3500.0,)
        assert target.observations == ((2022, 441.0),)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        with pytest.raises(FileNotFoundError, match="nope.yaml"):
            load_scenario(missing)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, config={"pv_cost_typo": 1})
        with pytest.raises(ValidationError, match="pv_cost_typo"):
            load_scenario(path)

    def test_duplicate_key_rejected_naming_key_and_file(self, tmp_path):
        path = write_scenario(tmp_path)
        path.write_text(path.read_text() + "beta: 0.5\nbeta: 0.02\n")
        line = len(path.read_text().splitlines())
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"{path}: line {line}: duplicate key 'beta'"
        assert excinfo.value.line == line

    @pytest.mark.parametrize("value, message", [
        ("!!int 12abc", "invalid literal for int()"),
        pytest.param("1" + "0" * 5000, "Exceeds the limit",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="this Python converts ints of any length")),
    ], ids=["bad_literal", "5001_digits"])
    def test_unconvertible_integer_names_line_and_file(self, tmp_path, value, message):
        path = write_scenario(tmp_path)
        lines = path.read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if text.startswith("total_farmers:"))
        lines[line - 1] = f"total_farmers: {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value).startswith(
            f"{path}: line {line}: integer cannot be read: {message}")
        assert excinfo.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("seed: [5\nbeta: 0.02\n", 2),
        ("seed: !!python/object:os.system [echo]\n", 1),
        ("# café crème brûlée\nseed: \x01\n", 2),  # libyaml counts bytes, not characters
        ("seed: *anchor\n", 1),
    ], ids=["syntax", "unsafe_tag", "control_character_after_non_ascii", "undefined_alias"])
    def test_yaml_that_does_not_parse_names_its_line_without_marks(self, tmp_path, text, line):
        path = write_scenario(tmp_path)
        before = path.read_bytes()
        path.write_bytes(before + text.encode())
        line += before.count(b"\n")
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value).startswith(f"{path}: line {line}: ")
        assert "\n" not in str(excinfo.value)
        assert excinfo.value.line == line

    def test_yaml_error_with_no_mark_keeps_its_first_text_line(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path)

        def unmarked(stream, Loader):
            raise yaml.YAMLError("no mark\n  and a second line")

        monkeypatch.setattr(yaml, "load", unmarked)
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"{path}: no mark"
        assert excinfo.value.line is None

    def test_missing_required_key(self, tmp_path):
        path = write_scenario(tmp_path)
        data = yaml.safe_load(path.read_text())
        del data["total_farmers"]
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ValidationError, match="total_farmers"):
            load_scenario(path)

    def test_invalid_beta_names_field_and_bound(self, tmp_path):
        path = write_scenario(tmp_path, config={"beta": 1.5})
        with pytest.raises(ValidationError, match=r"beta.*\(0, 1\]"):
            load_scenario(path)

    def test_bool_is_not_a_number(self, tmp_path):
        path = write_scenario(tmp_path, config={"total_farmers": True})
        with pytest.raises(ValidationError, match="total_farmers"):
            load_scenario(path)

    def test_null_seed_rejected(self, tmp_path):
        path = write_scenario(tmp_path)
        path.write_text(path.read_text() + "seed: null\n")
        with pytest.raises(ValidationError, match=r"scenario\.yaml: key 'seed' must not be null"):
            load_scenario(path)

    def test_malformed_series_error_names_file_and_keeps_line(self, tmp_path):
        subsidies = "year,subsidy_eur\n2005,1000\n2006,abc\n2007,2000\n"
        path = write_scenario(tmp_path, subsidies=subsidies)
        with pytest.raises(BadValueError,
                           match=r"subsidies\.csv: line 3: subsidy_eur 'abc'") as excinfo:
            load_scenario(path)
        assert excinfo.value.line == 3

    def test_non_utf8_series_names_file(self, tmp_path):
        path = write_scenario(tmp_path)
        (tmp_path / "prices.csv").write_bytes(b"year,price_eur_per_kwh\n2005,0.14\xff\n")
        with pytest.raises(BadValueError,
                           match=r"prices\.csv: line 2: 'utf-8' codec can't decode") as excinfo:
            load_scenario(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("name", ["prices.csv", "scenario.yaml"])
    def test_non_utf8_past_8kb_gives_file_offset_and_line(self, tmp_path, name):
        path = write_scenario(tmp_path)
        if name == "prices.csv":
            good = "year,price_eur_per_kwh\n" + "".join(f"{y},0.14\n" for y in range(1, 2006))
            good, bad, tail = good.encode() + b"2006,0.1", b"\xff", b"\n2007,0.16\n"
        else:
            good, bad, tail = path.read_bytes() + b"# padding\n" * 1000 + b"# caf", b"\xe9", b"\n"
        assert len(good) > 8192  # past the text decoder's first read chunk
        (tmp_path / name).write_bytes(good + bad + tail)
        line = good.count(b"\n") + 1
        with pytest.raises((BadValueError, ValidationError)) as excinfo:
            load_scenario(path)
        assert str(excinfo.value).startswith(
            f"{tmp_path / name}: line {line}: 'utf-8' codec can't decode byte 0x{bad.hex()} "
            f"in position {len(good)}:")
        assert excinfo.value.line == line

    def test_coverage_gap_lists_missing_years(self, tmp_path):
        prices = "year,price_eur_per_kwh\n2006,0.15\n2007,0.16\n"
        path = write_scenario(tmp_path, prices=prices)
        with pytest.raises(CoverageGapError) as excinfo:
            load_scenario(path)
        assert excinfo.value.missing_years == (2005,)
        assert str(excinfo.value) == (
            f"{tmp_path / 'prices.csv'}: price series covers 2006-2007 but the scenario "
            "needs 2005-2007; missing years: 2005")

    def test_subsidy_outside_study_range_warns(self, tmp_path):
        subsidies = "year,subsidy_eur\n2005,500\n2006,1500\n2007,2000\n"
        path = write_scenario(tmp_path, subsidies=subsidies)
        with pytest.warns(UserWarning, match=r"subsidies\.csv: subsidy outside .* years: 2005$"):
            load_scenario(path)

    def test_series_with_byte_order_mark_loads(self, tmp_path):
        path = write_scenario(tmp_path)
        plain = load_scenario(path)
        for name in ("prices.csv", "subsidies.csv"):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        assert load_scenario(path) == plain

    def test_target_with_byte_order_mark_loads(self, tmp_path, default_params):
        target = tmp_path / "target.csv"
        target.write_bytes(b"\xef\xbb\xbfyear,cumulative_adopters\r\n2022,441\r\n")
        loaded = _read(target, _parse_target, default_params, "squared_error")
        assert loaded.observations == ((2022, 441.0),)

    def test_decode_error_after_byte_order_mark_counts_it(self, tmp_path):
        path = write_scenario(tmp_path)
        good = b"\xef\xbb\xbfyear,price_eur_per_kwh\n2005,0.1"
        (tmp_path / "prices.csv").write_bytes(good + b"\xff\n")
        with pytest.raises(BadValueError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == (
            f"{tmp_path / 'prices.csv'}: line 2: 'utf-8' codec can't decode byte 0xff in "
            f"position {len(good)}: invalid start byte")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("broken", [None, "scenario.yaml", "prices.csv", "target.csv"])
    def test_each_input_file_is_read_once(self, tmp_path, monkeypatch, broken):
        (tmp_path / "target.csv").write_text("year,cumulative_adopters\n2007,50\n")
        path = write_scenario(tmp_path, config={"target_series": "target.csv"})
        if broken:
            (tmp_path / broken).write_bytes((tmp_path / broken).read_bytes() + b"\xff\n")
        reads = Counter()
        read_bytes, open_file = Path.read_bytes, builtins.open

        def counted_read_bytes(self):
            reads[self.name] += 1
            return read_bytes(self)

        def counted_open(file, *args, **kwargs):
            reads[Path(file).name] += 1
            return open_file(file, *args, **kwargs)

        failure = pytest.raises((BadValueError, ValidationError)) if broken else nullcontext()
        with monkeypatch.context() as patch, failure:
            patch.setattr(Path, "read_bytes", counted_read_bytes)
            patch.setattr(builtins, "open", counted_open)
            load_scenario(path)
        order = ["scenario.yaml", "prices.csv", "subsidies.csv", "target.csv"]
        read = order[:order.index(broken) + 1] if broken else order
        assert reads == Counter(read)

    def test_target_series_loaded_and_validated(self, tmp_path):
        (tmp_path / "target.csv").write_text("year,cumulative_adopters\n2007,50\n")
        path = write_scenario(tmp_path, config={"target_series": "target.csv"})
        loaded = load_scenario(path)
        assert loaded.target.observations == ((2007, 50.0),)

    def test_target_path_replaces_target_series_which_is_still_validated(self, tmp_path):
        (tmp_path / "target.csv").write_text("year,cumulative_adopters\n2007,50\n")
        (tmp_path / "given.csv").write_text("year,cumulative_adopters\n2006,20\n")
        path = write_scenario(tmp_path, config={"target_series": "target.csv",
                                                "target_loss": "absolute_error"})
        loaded = load_scenario(path, tmp_path / "given.csv")
        assert loaded.target == CalibrationTarget(((2006, 20.0),), loss="absolute_error")
        (tmp_path / "target.csv").write_text("year,cumulative_adopters\n2030,50\n")
        with pytest.raises(ValidationError,
                           match=f"^{tmp_path / 'target.csv'}: target year 2030 outside"):
            load_scenario(path, tmp_path / "given.csv")

    def test_bad_target_loss_names_config(self, tmp_path):
        (tmp_path / "target.csv").write_text("year,cumulative_adopters\n2007,50\n")
        # read from target_series, or given as a path with no target_series: the key is
        # the config's either way
        for config, given in (({"target_series": "target.csv"}, None),
                              ({}, tmp_path / "target.csv")):
            path = write_scenario(tmp_path, config={**config, "target_loss": "rmse"})
            with pytest.raises(ValidationError, match=f"^{path}: loss must be one of"):
                load_scenario(path, given)

    def test_unpacks_as_tuple(self, tmp_path):
        path = write_scenario(tmp_path)
        params, prices, subsidies, target = load_scenario(path)
        assert params.start_year == 2005
        assert target is None

    def test_default_scenario_path_exists(self):
        assert default_scenario_path().is_file()


def small_result():
    records = (
        YearRecord(year=2005, energy_price=0.141, subsidy=1000.0,
                   economic_utility=425.351234, probability=0.00117968123,
                   new_adopters=21.2343123, cumulative_adopters=21.2343123),
        YearRecord(year=2006, energy_price=0.151, subsidy=1147.0,
                   economic_utility=1447.77123, probability=0.0012080912,
                   new_adopters=21.7199456, cumulative_adopters=42.9542579),
    )
    return SimulationResult(params_digest="abc123", records=records)


def sig6(x):
    return float(f"{float(x):.6g}")


class TestRenderResult:
    def test_csv_roundtrip_preserves_six_significant_digits(self):
        result = small_result()
        import csv as csvmod

        rows = list(csvmod.reader(io.StringIO(render_result(result, "csv"))))
        for row, record in zip(rows[1:], result.records):
            assert int(row[0]) == record.year
            assert sig6(row[6]) == sig6(record.cumulative_adopters)
            assert sig6(row[5]) == sig6(record.new_adopters)
            assert sig6(row[3]) == sig6(record.economic_utility)

    def test_adopter_columns_carry_at_least_two_decimals(self):
        records = (
            YearRecord(year=2005, energy_price=0.2, subsidy=1000.0,
                       economic_utility=0.0, probability=0.001,
                       new_adopters=18.0, cumulative_adopters=18.0),
        )
        text = render_result(SimulationResult(params_digest="d", records=records), "csv")
        assert text.splitlines()[1].endswith("18.00,18.00")

    def test_json_mirrors_fields(self):
        payload = json.loads(render_result(small_result(), "json"))
        assert payload["params_digest"] == "abc123"
        assert len(payload["records"]) == 2
        assert payload["records"][0]["year"] == 2005
        assert payload["records"][1]["cumulative_adopters"] == sig6(42.9542579)

    def test_calibration_result_render(self):
        result = CalibrationResult(alpha=1.5, beta=0.02, achieved_loss=0.5,
                                   evaluations=700, converged=True)
        text = render_result(result, "csv")
        assert text.splitlines()[0] == "alpha,beta,achieved_loss,evaluations,converged"
        assert text.splitlines()[1] == "1.5,0.02,0.5,700,true"
        payload = json.loads(render_result(result, "json"))
        assert payload["converged"] is True
        assert payload["evaluations"] == 700

    def test_monte_carlo_render(self, default_bundle):
        from dataclasses import replace

        params = replace(default_bundle.params, total_farmers=50)
        summary = run_monte_carlo(params, default_bundle.prices, default_bundle.subsidies,
                                  replications=3, base_seed=4)
        text = render_result(summary, "csv")
        assert text.splitlines()[0] == ("year,mean_cumulative,std_cumulative,"
                                        "min_cumulative,max_cumulative")
        assert len(text.splitlines()) == 19
        payload = json.loads(render_result(summary, "json"))
        assert payload["replications"] == 3 and payload["base_seed"] == 4

    def test_unsupported_result_type_rejected(self):
        with pytest.raises(ValidationError, match="unsupported result type: object"):
            render_result(object())

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            render_result(small_result(), "xml")


class TestWriteResult:
    def test_write_and_reread(self, tmp_path):
        out = tmp_path / "result.csv"
        write_result(small_result(), "csv", out)
        assert out.read_text() == render_result(small_result(), "csv")

    def test_no_partial_output_on_error(self, tmp_path):
        out = tmp_path / "missing-dir" / "result.csv"
        with pytest.raises(OSError):
            write_result(small_result(), "csv", out)
        assert not out.exists()
        assert not (tmp_path / "missing-dir").exists()

    def test_no_stray_tempfiles_after_success(self, tmp_path):
        out = tmp_path / "result.json"
        write_result(small_result(), "json", out)
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]

    def test_mode_is_what_open_for_writing_leaves(self, tmp_path):
        # a new file: 0o666 less the umask; a replaced file: its own mode
        out = tmp_path / "result.csv"
        umask = os.umask(0o022)
        try:
            write_result(small_result(), "csv", out)
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
            out.chmod(0o640)
            write_result(small_result(), "csv", out)
            assert stat.S_IMODE(out.stat().st_mode) == 0o640
        finally:
            os.umask(umask)

    def test_mode_needs_no_umask_call(self, tmp_path, monkeypatch):
        # the OS applies the umask to the create; reading it would set it process-wide
        out = tmp_path / "result.csv"
        umask = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", _umask_called)
            write_result(small_result(), "csv", out)
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
            out.chmod(0o640)
            write_result(small_result(), "csv", out)
            assert stat.S_IMODE(out.stat().st_mode) == 0o640
        finally:
            monkeypatch.undo()
            os.umask(umask)

    def test_a_taken_temp_name_fails_naming_the_output_and_removes_nothing(self, tmp_path,
                                                                           monkeypatch):
        out = tmp_path / "result.csv"
        out.write_bytes(b"previous result\n")
        taken = tmp_path / f"result.csv.{bytes(8).hex()}"
        taken.write_bytes(b"another writer's file\n")
        monkeypatch.setattr(os, "urandom", bytes)  # bytes(8): eight zero bytes
        with pytest.raises(OSError) as raised:
            write_result(small_result(), "csv", out)
        assert raised.value.filename == str(out)
        assert out.read_bytes() == b"previous result\n"
        assert taken.read_bytes() == b"another writer's file\n"

    def test_a_symlink_is_written_through(self, tmp_path):
        # as open(out, "w") writes: the link stays, its target takes the text and keeps its mode
        target, out = tmp_path / "target.csv", tmp_path / "out.csv"
        target.write_text("previous result\n")
        target.chmod(0o640)
        out.symlink_to(target.name)
        write_result(small_result(), "csv", out)
        assert out.is_symlink() and os.readlink(out) == target.name
        assert target.read_text() == render_result(small_result(), "csv")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "target.csv"]

    def test_a_dangling_symlink_creates_its_target(self, tmp_path):
        target, out = tmp_path / "target.csv", tmp_path / "out.csv"
        out.symlink_to(target.name)
        write_result(small_result(), "json", out)
        assert out.is_symlink()
        assert target.read_text() == render_result(small_result(), "json")


def _raise_on_replace(src, dst):
    raise OSError("replace refused")


def _umask_called(mask):
    raise AssertionError("os.umask called")


def _temp_file_whose_write_raises(*args, **kwargs):
    handle = builtins.open(*args, **kwargs)

    def write(text):
        raise OSError("disk full")

    handle.write = write
    return handle


@pytest.mark.parametrize("patch", [
    ("os.replace", _raise_on_replace),
    ("dairypv.io.open", _temp_file_whose_write_raises),
])
def test_failed_write_keeps_existing_output_and_leaves_no_temp_file(tmp_path, monkeypatch,
                                                                    patch):
    out = tmp_path / "result.csv"
    out.write_bytes(b"previous result\n")
    monkeypatch.setattr(*patch, raising=False)  # a global open in dairypv.io shadows the builtin
    with pytest.raises(OSError):
        write_result(small_result(), "csv", out)
    monkeypatch.undo()
    assert out.read_bytes() == b"previous result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.csv"]
