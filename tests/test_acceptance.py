"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line when its criterion holds (visible with -s;
`pytest -v` reports one line per criterion either way).
"""

import csv
import io as stdio
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dairypv import (
    CalibrationTarget,
    ScenarioParams,
    YearSeries,
    calibrate,
    load_default_scenario,
    run_monte_carlo,
    run_simulation,
)
from dairypv.cli import cli_main
from dairypv.engine import _annuity
from dairypv.errors import (
    BadValueError,
    CoverageGapError,
    DuplicateYearError,
    YearGapError,
)
from dairypv.io import default_scenario_path, parse_year_series, render_result
from reference import adoption_probability, round_half_up


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_reproduces_published_2022_figure():
    """Calibrated deterministic hazard run reproduces 441 adopters by 2022."""
    start = time.perf_counter()
    params, prices, subsidies, target = load_default_scenario()
    assert params.total_farmers == 18000
    assert params.maintenance_rate == 0.02 and params.discount_rate == 0.04
    assert params.midpoint_cost == 10000.0
    assert (params.start_year, params.end_year) == (2005, 2022)

    fit = calibrate(params, prices, subsidies, target)
    fitted = replace(params, alpha=fit.alpha, beta=fit.beta)
    result = run_simulation(fitted, prices, subsidies)
    elapsed = time.perf_counter() - start

    final = result.records[-1].cumulative_adopters
    assert round_half_up(final) == 441
    share = final / params.total_farmers
    assert abs(share - 0.0245) <= 0.0001  # 2.45% within +/-0.01 points
    assert elapsed < 1.0, f"calibrate+run took {elapsed:.2f}s"

    # documented model-vs-reality gap: |441 - 360| / 18000 = 0.45 points
    assert abs((441 - 360) / 18000 - 0.0045) < 1e-12
    report("1 published-2022-figure",
           f"final={final:.4f}, rounds to 441, {elapsed:.2f}s")


def test_criterion_2_npv_annuity_oracle():
    """Constant 1000 EUR over t=0..20 at 4% matches the closed-form annuity."""
    params, _, _, _ = load_default_scenario()
    npv = 1000.0 * _annuity(replace(params, horizon_years=20, discount_rate=0.04))
    oracle = 1000.0 * (1.0 + (1.0 - 1.04**-20) / 0.04)
    assert abs(npv - oracle) < 1e-6
    assert abs(npv - 14590.33) <= 0.01
    report("2 npv-oracle", f"npv={npv:.4f}")


def test_criterion_3_probability_properties():
    """10,000 random draws: bounds, strict monotonicity, scale identity."""
    rng = np.random.default_rng(2023)
    for _ in range(10_000):
        alpha = float(10.0 ** rng.uniform(-3, 2))
        beta = float(10.0 ** rng.uniform(-6, 0))
        n = int(rng.integers(1, 10**6))
        x = float(rng.uniform(-25.0, 25.0))
        eu = x * n / alpha

        p = adoption_probability(eu, alpha, beta, n)
        assert 0.0 < p < beta

        eu_higher = (x + 0.01) * n / alpha
        assert adoption_probability(eu_higher, alpha, beta, n) > p

        k = float(10.0 ** rng.uniform(-3, 3))
        p_scaled = adoption_probability(k * eu, alpha / k, beta, n)
        assert abs(p_scaled - p) <= 1e-12 * p

    # saturated tails keep the open-interval bounds
    for eu in (-1e12, 1e12):
        p = adoption_probability(eu, 1.0, 0.05, 18000)
        assert 0.0 < p < 0.05
    report("3 probability-properties", "10000 draws")


def test_criterion_4_hazard_invariants():
    """1,000 random scenarios: cumulative non-decreasing and bounded by N."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(1000):
        first = int(rng.integers(1980, 2040))
        span = int(rng.integers(1, 25))
        cost_lo = float(rng.uniform(0, 20000))
        params = ScenarioParams(
            pv_cost_min=cost_lo,
            pv_cost_max=cost_lo + float(rng.uniform(0, 30000)),
            maintenance_rate=float(rng.uniform(0, 0.5)),
            discount_rate=float(rng.uniform(-0.5, 0.5)),
            total_farmers=int(rng.integers(1, 10**5)),
            start_year=first,
            end_year=first + span,
            horizon_years=int(rng.integers(0, 41)),
            annual_generation_kwh=float(rng.uniform(0, 20000)),
            alpha=float(10.0 ** rng.uniform(-3, 2)),
            beta=float(10.0 ** rng.uniform(-5, 0)),
            adoption_semantics="hazard",
        )
        years = range(params.start_year, params.end_year + 1)
        prices = YearSeries(first, [float(rng.uniform(0, 2)) for _ in years])
        subsidies = YearSeries(first, [float(rng.uniform(0, 6000)) for _ in years])
        result = run_simulation(params, prices, subsidies)
        previous = 0.0
        for record in result.records:
            assert record.cumulative_adopters >= previous
            assert record.cumulative_adopters <= params.total_farmers
            previous = record.cumulative_adopters
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report("4 hazard-invariants", f"1000 scenarios, {elapsed:.1f}s")


def test_criterion_5_stochastic_consistency():
    """Homogeneous agents, N=500, 1000 replications vs deterministic curve."""
    start = time.perf_counter()
    params, prices, subsidies, _ = load_default_scenario()
    stochastic = replace(
        params, total_farmers=500, pv_cost_min=10000.0, pv_cost_max=10000.0,
        beta=0.04, mode="stochastic", seed=0,
    )
    deterministic = replace(stochastic, mode="deterministic", seed=None)
    expected = [r.cumulative_adopters
                for r in run_simulation(deterministic, prices, subsidies).records]

    summary = run_monte_carlo(stochastic, prices, subsidies,
                              replications=1000, base_seed=2024)
    for row, mean_expected in zip(summary.rows, expected):
        se = row.std / math.sqrt(1000)
        assert se > 0.0
        assert abs(row.mean - mean_expected) <= 3.0 * se, (
            f"year {row.year}: mean {row.mean} vs expected {mean_expected} (se={se})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report("5 stochastic-consistency", f"1000 replications, {elapsed:.1f}s")


def test_criterion_6_calibration_round_trip():
    """Target from (alpha*=1.5, beta*=0.02) over 18 years is recovered."""
    start = time.perf_counter()
    params, prices, subsidies, _ = load_default_scenario()
    true_params = replace(params, alpha=1.5, beta=0.02)
    curve = run_simulation(true_params, prices, subsidies)
    observations = tuple((r.year, r.cumulative_adopters) for r in curve.records)
    target = CalibrationTarget(observations=observations)

    fit = calibrate(params, prices, subsidies, target, budget=3000)
    scale = sum(value * value for _, value in observations)
    assert fit.achieved_loss < 1e-4 * scale
    assert abs(fit.beta - 0.02) <= 0.05 * 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report("6 calibration-round-trip",
           f"beta={fit.beta:.6f}, loss={fit.achieved_loss:.2e}, {elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path):
    """Identical invocations produce byte-identical outputs."""
    config = str(default_scenario_path())
    for mode_args in ([], ["--mode", "stochastic", "--seed", "11"]):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}-{len(mode_args)}.csv"
            assert cli_main(["run", "--config", config, *mode_args,
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    summaries = []
    for name in ("a", "b"):
        out = tmp_path / f"mc-{name}.csv"
        assert cli_main(["monte-carlo", "--config", config, "--replications", "8",
                         "--seed", "5", "--out", str(out)]) == 0
        summaries.append(out.read_bytes())
    assert summaries[0] == summaries[1]
    report("7 determinism")


def test_criterion_8_io_contract():
    """Distinct error variants with line/year identification; 6-digit round trip."""
    with pytest.raises(YearGapError) as gap:
        parse_year_series(
            stdio.StringIO("year,price_eur_per_kwh\n2005,0.1\n2007,0.2\n"),
            "price_eur_per_kwh",
        )
    assert gap.value.missing_years == (2006,) and gap.value.line == 3

    with pytest.raises(DuplicateYearError) as dup:
        parse_year_series(
            stdio.StringIO("year,price_eur_per_kwh\n2005,0.1\n2005,0.2\n"),
            "price_eur_per_kwh",
        )
    assert dup.value.year == 2005 and dup.value.line == 3

    with pytest.raises(BadValueError) as bad:
        parse_year_series(
            stdio.StringIO("year,price_eur_per_kwh\n2005,0.1\n2006,oops\n"),
            "price_eur_per_kwh",
        )
    assert bad.value.line == 3

    params, prices, subsidies, _ = load_default_scenario()
    short = YearSeries(2010, [0.2] * 13)
    with pytest.raises(CoverageGapError) as cov:
        run_simulation(params, short, subsidies)
    assert cov.value.missing_years == tuple(range(2005, 2010))

    # round trip: write a simulation result, re-parse year/cumulative columns
    result = run_simulation(params, prices, subsidies)
    rows = list(csv.reader(stdio.StringIO(render_result(result, "csv"))))
    assert rows[0][0] == "year" and rows[0][6] == "cumulative_adopters"
    for row, record in zip(rows[1:], result.records):
        assert int(row[0]) == record.year
        assert float(f"{float(row[6]):.6g}") == float(f"{record.cumulative_adopters:.6g}")
        assert float(f"{float(row[4]):.6g}") == float(f"{record.probability:.6g}")
    report("8 io-contract")
