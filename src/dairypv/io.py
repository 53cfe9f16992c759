"""Scenario configuration, CSV series ingestion and result serialization.

The scenario file is a flat YAML mapping of typed scalars; unknown and
duplicated keys are rejected so typos cannot silently fall back to
defaults or override an earlier value. Series files are plain CSV with a
fixed two-column header. Every input file is read once, through one reader
that names the file in each error. Results are written atomically, so a
failure leaves no partial output: a temp file, created exclusively beside
the target with the mode the OS gives a new file, is renamed over it.
"""

import csv
import errno
import io
import json
import math
import os
import stat
import warnings
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import yaml

from .calibration import LOSS_KINDS, CalibrationResult, CalibrationTarget
from .domain import ScenarioParams, SimulationResult, YearSeries
from .engine import MonteCarloSummary
from .errors import (
    BadValueError,
    DairyPvError,
    DuplicateYearError,
    MissingHeaderError,
    ValidationError,
    YearGapError,
)

PRICE_COLUMN = "price_eur_per_kwh"
SUBSIDY_COLUMN = "subsidy_eur"
TARGET_COLUMN = "cumulative_adopters"

# Table-style study range for subsidies; values outside it warn but load.
SUBSIDY_RANGE_EUR = (1000.0, 3500.0)


def _parse_rows(stream, value_column, require_contiguous):
    """Shared row machinery for series and target files.

    Returns (year, value) pairs. Errors name csv's 1-based physical line, header
    and blank lines counted; a record that spans lines is named by its last.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header is None:
            raise MissingHeaderError(f"empty input: expected header 'year,{value_column}'")
        header = [cell.strip() for cell in header]
        if header != ["year", value_column]:
            raise MissingHeaderError(
                f"expected header 'year,{value_column}', got '{','.join(header)}'")

        pairs, prev_year = [], None
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 2:
                raise BadValueError(f"expected 2 columns, got {len(row)}", line)
            year_text, value_text = row[0].strip(), row[1].strip()
            try:
                year = int(year_text)
            except ValueError:
                raise BadValueError(f"year {year_text!r} is not an integer", line) from None
            try:
                value = float(value_text)
            except ValueError:
                raise BadValueError(
                    f"{value_column} {value_text!r} is not a number", line) from None
            if not math.isfinite(value):
                raise BadValueError(f"{value_column} {value_text!r} is not finite", line)
            if prev_year is not None:
                if year == prev_year:
                    raise DuplicateYearError(f"duplicate year {year}", year=year, line=line)
                if year < prev_year:
                    raise YearGapError(f"years must increase, got {year} after {prev_year}",
                                       line=line)
                if require_contiguous and year > prev_year + 1:
                    missing = list(range(prev_year + 1, year))
                    raise YearGapError("year gap, missing " + ", ".join(map(str, missing)),
                                       missing_years=missing, line=line)
            pairs.append((year, value))
            prev_year = year
    except csv.Error as exc:  # a field past csv's size limit, say
        raise BadValueError(str(exc), reader.line_num) from None

    if not pairs:
        raise BadValueError("no data rows after the header")
    return pairs


def parse_year_series(stream, value_column):
    """Parse a contiguous year/value CSV into a YearSeries.

    Distinct errors for a missing/mismatched header, duplicate years, year
    gaps and non-numeric cells, each naming the offending line.
    """
    pairs = _parse_rows(stream, value_column, require_contiguous=True)
    return YearSeries(first_year=pairs[0][0], values=tuple(v for _, v in pairs))


# Scenario keys that are not ScenarioParams fields: key -> required. Their
# values are strings; ScenarioParams types and checks every other key.
_NON_PARAM_KEYS = {
    "price_series": True,
    "subsidy_series": True,
    "target_series": False,
    "target_loss": False,
}


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml when built) rejecting a key given twice; YAML keeps the last."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node)
            if key in seen:
                raise ValidationError(f"duplicate key {key!r}", key_node.start_mark.line + 1)
            seen.add(key)
        return mapping

    def construct_yaml_int(self, node):
        """YAML int; one Python cannot convert (past its digit limit, say) names its line."""
        try:
            return super().construct_yaml_int(node)
        except ValueError as exc:
            raise ValidationError(f"integer cannot be read: {exc}",
                                  node.start_mark.line + 1) from None


_UniqueKeyLoader.add_constructor("tag:yaml.org,2002:int", _UniqueKeyLoader.construct_yaml_int)


class LoadedScenario(NamedTuple):
    """Validated bundle returned by load_scenario; unpacks as a 4-tuple."""

    params: ScenarioParams
    prices: YearSeries
    subsidies: YearSeries
    target: CalibrationTarget | None


def _decode(data):
    """data's UTF-8 text; a byte that is not UTF-8 raises BadValueError at its line."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")  # a leading byte-order mark goes
    except UnicodeDecodeError as exc:
        raise BadValueError(str(exc), data.count(b"\n", 0, exc.start) + 1) from None


def _read(path, parse, *args):
    """Return parse(stream, *args) over path's _decode-d text; package errors gain the path."""
    data = Path(path).read_bytes()
    try:
        return parse(io.StringIO(_decode(data), newline=""), *args)
    except DairyPvError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _parse_scenario(stream):
    """Return (mapping, ScenarioParams) from scenario YAML.

    A key is required when its ScenarioParams field has no default; no key
    may be null, and target_loss must be one of LOSS_KINDS. YAML that does not
    parse raises ValidationError at its line, in YAML's words without its marks;
    the first character a reader refuses is the first occurrence of that character.
    """
    try:
        data = yaml.load(stream, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        message, line = str(exc).partition("\n")[0], None  # the text before its first mark
        if isinstance(exc, yaml.reader.ReaderError):  # libyaml's .position counts bytes
            line = stream.getvalue().partition(chr(exc.character))[0].count("\n") + 1
        elif getattr(exc, "problem_mark", None):
            message, line = exc.problem, exc.problem_mark.line + 1
        raise ValidationError(message, line) from None
    if not isinstance(data, dict):
        raise ValidationError("scenario file must be a flat key/value mapping")
    params = {f.name: f.default is MISSING for f in fields(ScenarioParams)}
    required = {**params, **_NON_PARAM_KEYS}
    unknown = sorted(str(key) for key in data if key not in required)
    if unknown:
        raise ValidationError("unknown keys: " + ", ".join(unknown))
    missing = sorted(k for k, needed in required.items() if needed and k not in data)
    if missing:
        raise ValidationError("missing required keys: " + ", ".join(missing))
    for key, value in data.items():
        if value is None:
            raise ValidationError(f"key {key!r} must not be null")
        if key in _NON_PARAM_KEYS and not isinstance(value, str):
            raise ValidationError(f"key {key!r} must be a string, got {value!r}")
    if data.get("target_loss", LOSS_KINDS[0]) not in LOSS_KINDS:
        raise ValidationError(f"loss must be one of {LOSS_KINDS}, got {data['target_loss']!r}")
    return data, ScenarioParams(**{k: v for k, v in data.items() if k in params})


def _parse_covering_series(stream, value_column, name, params):
    """parse_year_series, then check that it covers every simulated year."""
    series = parse_year_series(stream, value_column)
    series.window(range(params.start_year, params.end_year + 1), name)
    return series


def _parse_target(stream, params, loss):
    """A target CSV's observations (years increasing, gaps allowed), checked against params."""
    rows = _parse_rows(stream, TARGET_COLUMN, require_contiguous=False)
    target = CalibrationTarget(observations=tuple(rows), loss=loss)
    target.validate_against(params)
    return target


def load_scenario(config_path, target_path=None):
    """Load and fully validate a scenario bundle from a YAML config file.

    Series paths are resolved relative to the config file. Coverage against
    [start_year, end_year] is checked here so later runs cannot hit gaps.
    Subsidy values outside the study range warn but do not fail. A given
    target_path replaces the scenario's target_series, which is still
    validated; target_loss applies to whichever target is returned.
    """
    config_path = Path(config_path)
    data, params = _read(config_path, _parse_scenario)
    base = config_path.parent
    subsidy_path = base / data["subsidy_series"]
    prices = _read(base / data["price_series"], _parse_covering_series, PRICE_COLUMN,
                   "price", params)
    subsidies = _read(subsidy_path, _parse_covering_series, SUBSIDY_COLUMN, "subsidy", params)

    out_of_range = [
        year for year, value in subsidies.items()
        if not SUBSIDY_RANGE_EUR[0] <= value <= SUBSIDY_RANGE_EUR[1]
    ]
    if out_of_range:
        warnings.warn(f"{subsidy_path}: subsidy outside the study range "
                      f"{SUBSIDY_RANGE_EUR[0]:.0f}-{SUBSIDY_RANGE_EUR[1]:.0f} EUR in years: "
                      + ", ".join(str(y) for y in out_of_range), stacklevel=2)

    target, loss = None, data.get("target_loss", LOSS_KINDS[0])
    if "target_series" in data:
        target = _read(base / data["target_series"], _parse_target, params, loss)
    if target_path is not None:
        target = _read(target_path, _parse_target, params, loss)

    return LoadedScenario(params=params, prices=prices, subsidies=subsidies, target=target)


def default_scenario_path():
    """Path of the bundled baseline scenario (Irish dairy, 2005-2022)."""
    return Path(resources.files("dairypv.data") / "default_scenario.yaml")


def load_default_scenario():
    """Load the bundled baseline scenario."""
    return load_scenario(default_scenario_path())


def _fmt(value):
    """Real number at 6 significant digits."""
    return format(float(value), ".6g")


def _fmt_count(value):
    """Adopter counts: 6 significant digits, but never fewer than 2 decimals."""
    text = _fmt(value)
    decimals = len(text.partition(".")[2]) if "e" not in text else 2
    if decimals < 2:
        return format(float(value), ".2f")
    return text


# Column kinds: (CSV text of a value, JSON value read back from that text).
# JSON numbers are the printed digits, so the two formats cannot drift.
_REAL = (_fmt, float)
_COUNT = (_fmt_count, float)
_WHOLE = (str, int)
_FLAG = (lambda value: "true" if value else "false", lambda text: text == "true")
_YEAR = ("year", _WHOLE)


def _table(result):
    """Return (leading JSON fields, JSON key of the rows, columns, rows).

    A column is (name, kind). With no key, JSON is the single row as a flat
    object.
    """
    if isinstance(result, SimulationResult):
        columns = (
            _YEAR, ("energy_price", _REAL), ("subsidy", _REAL),
            ("economic_utility", _REAL), ("probability", _REAL),
            ("new_adopters", _COUNT), ("cumulative_adopters", _COUNT),
        )
        rows = [[getattr(r, name) for name, _ in columns] for r in result.records]
        return {"params_digest": result.params_digest}, "records", columns, rows
    if isinstance(result, MonteCarloSummary):
        columns = (
            _YEAR, ("mean_cumulative", _COUNT), ("std_cumulative", _REAL),
            ("min_cumulative", _COUNT), ("max_cumulative", _COUNT),
        )
        rows = [(row.year, row.mean, row.std, row.min, row.max) for row in result.rows]
        head = {"replications": result.replications, "base_seed": result.base_seed}
        return head, "years", columns, rows
    if isinstance(result, CalibrationResult):
        columns = (
            ("alpha", _REAL), ("beta", _REAL), ("achieved_loss", _REAL),
            ("evaluations", _WHOLE), ("converged", _FLAG),
        )
        return {}, None, columns, [[getattr(result, name) for name, _ in columns]]
    raise ValidationError(f"unsupported result type: {type(result).__name__}")


def render_result(result, format="csv"):
    """Serialize a result to a CSV or JSON string (byte-stable)."""
    if format not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {format!r}")
    head, key, columns, rows = _table(result)
    texts = [[show(value) for (_, (show, _)), value in zip(columns, row)] for row in rows]
    if format == "csv":
        lines = [",".join(name for name, _ in columns)] + [",".join(row) for row in texts]
        return "\n".join(lines) + "\n"
    objects = [
        {name: read(text) for (name, (_, read)), text in zip(columns, row)}
        for row in texts
    ]
    payload = {**head, key: objects} if key else objects[0]
    return json.dumps(payload, indent=2) + "\n"


def write_result(result, format, output_path):
    """Render a result and write it atomically (temp file, then rename). Only a regular
    file is replaced: a directory, FIFO or device fails before anything is created."""
    text = render_result(result, format)
    output_path = Path(output_path)
    target = Path(os.path.realpath(output_path))  # through a symlink, as open() writes
    temp = target.with_name(f"{target.name}.{os.urandom(8).hex()}")
    try:
        try:  # through a symlink: /dev/stdout's pipe has no path for realpath to name
            mode = os.stat(output_path).st_mode
        except FileNotFoundError:
            mode = None
        else:
            if stat.S_ISDIR(mode):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), output_path)
            if not stat.S_ISREG(mode):
                raise OSError(f"not a regular file: {str(output_path)!r}")
        handle = open(temp, "x", encoding="utf-8", newline="\n")  # O_EXCL at 0o666, as "w" creates
        try:
            with handle:
                handle.write(text)
            if mode is not None:  # a replaced file keeps its mode, as open(path, "w") leaves it
                os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:  # name the output, never the temp file
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(output_path)) from exc
