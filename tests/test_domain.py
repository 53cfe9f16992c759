import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dairypv.calibration import CalibrationTarget
from dairypv.domain import SimulationResult, YearRecord, YearSeries
from dairypv.errors import CoverageGapError, ValidationError
from conftest import make_params
from reference import round_half_up


class TestScenarioParams:
    def test_valid_defaults(self):
        p = make_params()
        assert p.midpoint_cost == 10000.0
        assert p.alpha == 1.0 and p.beta == 0.01

    @settings(max_examples=200, deadline=None)
    @given(*[st.one_of(st.just(0.0), st.floats(2.0**-1021, sys.float_info.max))] * 2)
    @example(2.0**-1021, 2.0**-1021)  # the smallest cost whose half is exact
    @example(0.0, sys.float_info.max)
    @example(1e308, 1e308)  # the sum is inf
    def test_midpoint_cost_is_finite_and_has_the_bits_of_the_halved_sum(self, a, b):
        # halving a cost of 0 or at least 2**-1021 is exact, so min/2 + max/2 rounds
        # as (min + max)/2 does wherever that sum is finite
        midpoint = make_params(pv_cost_min=min(a, b), pv_cost_max=max(a, b)).midpoint_cost
        assert np.isfinite(midpoint)
        if np.isfinite(a + b):
            assert midpoint.hex() == ((a + b) / 2.0).hex()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(beta=1.5), "beta"),
            (dict(beta=0.0), "beta"),
            (dict(beta=-0.1), "beta"),
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=-2.0), "alpha"),
            (dict(maintenance_rate=1.0), "maintenance_rate"),
            (dict(maintenance_rate=-0.01), "maintenance_rate"),
            (dict(discount_rate=-1.0), "discount_rate"),
            (dict(pv_cost_min=-1.0), "pv_cost_min"),
            (dict(pv_cost_min=20000.0), "pv_cost_min"),
            (dict(total_farmers=0), "total_farmers"),
            (dict(start_year=2023), "start_year"),
            (dict(horizon_years=-1), "horizon_years"),
            (dict(annual_generation_kwh=-5.0), "annual_generation_kwh"),
            (dict(adoption_semantics="both"), "adoption_semantics"),
            (dict(mode="hybrid"), "mode"),
            (dict(seed=-1), "seed"),
            (dict(seed=2**64), "seed"),
            (dict(beta=float("nan")), "beta"),
            (dict(pv_cost_max=float("inf")), "pv_cost_max"),
            (dict(alpha=True), "alpha"),
            (dict(discount_rate=True), "discount_rate"),
            (dict(alpha="2"), "alpha"),
            (dict(total_farmers=5.0), "total_farmers"),
            (dict(start_year=0), "start_year"),
            (dict(end_year=10_000), "end_year"),
            (dict(alpha=10**400), "alpha"),
            (dict(horizon_years=10_000), "horizon_years"),
            (dict(horizon_years=10**9), "horizon_years"),
            (dict(total_farmers=True), "total_farmers"),
            (dict(start_year="2005"), "start_year"),
            (dict(seed=7.0), "seed"),
            (dict(seed=False), "seed"),
            (dict(total_farmers=10**400), "total_farmers"),
            (dict(total_farmers=10**5000), "total_farmers"),
            (dict(alpha=10**5000), "alpha"),
        ],
    )
    def test_invalid_fields_are_named(self, overrides, field):
        with pytest.raises(ValidationError, match=field):
            make_params(**overrides)

    @pytest.mark.parametrize("exponent", [400, 5000])  # repr(10**5000) itself raises
    @pytest.mark.parametrize("field", ["alpha", "total_farmers"])
    def test_integer_past_the_float_range_is_named_not_printed(self, field, exponent):
        with pytest.raises(ValidationError) as excinfo:
            make_params(**{field: 10**exponent})
        assert str(excinfo.value) == (
            f"{field} must be finite, got an integer too large for a float")

    def test_digest_is_stable_and_distinguishes_params(self):
        a = make_params()
        b = make_params()
        c = make_params(beta=0.02)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_horizon_up_to_the_last_calendar_year_is_accepted(self):
        assert make_params(horizon_years=9999).horizon_years == 9999

    def test_integer_for_real_field_is_stored_as_float(self):
        p = make_params(alpha=1, pv_cost_min=np.int64(5000))
        assert type(p.alpha) is float and type(p.pv_cost_min) is float
        assert p.digest == make_params(alpha=1.0).digest

    def test_numpy_integer_for_int_field_is_stored_as_int(self):
        p = make_params(total_farmers=np.int64(18000), seed=np.uint64(7))
        assert type(p.total_farmers) is int and type(p.seed) is int
        assert p.digest == make_params(total_farmers=18000, seed=7).digest


class TestYearSeries:
    def test_items_roundtrip(self):
        s = YearSeries(2005, (0.14, 0.15, 0.16))
        assert s.first_year == 2005 and s.last_year == 2007
        assert list(s.items()) == [(2005, 0.14), (2006, 0.15), (2007, 0.16)]

    @settings(max_examples=200, deadline=None)
    @given(first_year=st.integers(-3000, 3000), length=st.integers(1, 30),
           offset=st.integers(-40, 40), span=st.integers(1, 40))
    def test_window_is_the_slice_or_lists_missing_years(self, first_year, length, offset,
                                                         span):
        s = YearSeries(first_year, tuple(float(i) for i in range(length)))
        start = first_year + offset
        years = range(start, start + span)
        missing = [y for y in years if y < first_year or y > s.last_year]
        if not missing:
            assert s.window(years, "price") == s.values[offset:offset + span]
            return
        with pytest.raises(CoverageGapError) as excinfo:
            s.window(years, "price")
        assert excinfo.value.missing_years == tuple(missing)
        assert str(excinfo.value) == (
            f"price series covers {first_year}-{s.last_year} but the scenario needs "
            f"{start}-{years[-1]}; missing years: " + ", ".join(map(str, missing)))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="values"):
            YearSeries(2005, ())

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValidationError, match="values"):
            YearSeries(first_year=2005, values=(1.0, float("nan")))

    @pytest.mark.parametrize("first_year", [True, 2005.0, "2005", None])
    def test_first_year_must_be_an_integer(self, first_year):
        with pytest.raises(ValidationError, match="first_year must be an integer"):
            YearSeries(first_year=first_year, values=(1.0,))

    def test_numpy_integer_first_year_is_stored_as_int(self):
        s = YearSeries(first_year=np.int64(2005), values=(1.0,))
        assert type(s.first_year) is int and s.first_year == 2005


def make_record(year=2005, probability=0.01, new=10.0, cumulative=10.0):
    return YearRecord(
        year=year,
        energy_price=0.14,
        subsidy=1000.0,
        economic_utility=425.0,
        probability=probability,
        new_adopters=new,
        cumulative_adopters=cumulative,
    )


class TestYearRecord:
    def test_probability_bounds(self):
        with pytest.raises(ValidationError, match="probability"):
            make_record(probability=1.5)
        with pytest.raises(ValidationError, match="probability"):
            make_record(probability=-0.1)

    def test_counts_non_negative(self):
        with pytest.raises(ValidationError, match="new_adopters"):
            make_record(new=-1.0)
        with pytest.raises(ValidationError, match="cumulative_adopters"):
            make_record(cumulative=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            make_record(new=float("inf"))


@pytest.mark.parametrize("value", ["0.14", True], ids=["str", "bool"])
@pytest.mark.parametrize("build, field", [
    (lambda value: make_params(pv_cost_min=value), "pv_cost_min"),
    (lambda value: YearSeries(2005, (0.14, value)), "values[1]"),
    (lambda value: CalibrationTarget(((2022, value),)), "observation[2022]"),
    (lambda value: YearRecord(2005, value, 1000.0, 425.0, 0.01, 10.0, 10.0), "energy_price"),
], ids=["ScenarioParams", "YearSeries", "CalibrationTarget", "YearRecord"])
def test_a_real_field_takes_no_str_and_no_bool(build, field, value):
    # one rule for a real number, require_finite's, in every type that stores one
    with pytest.raises(ValidationError) as excinfo:
        build(value)
    assert str(excinfo.value) == f"{field} must be a real number, got {value!r}"


class TestSimulationResult:
    def test_consecutive_years_required(self):
        records = (make_record(year=2005), make_record(year=2007))
        with pytest.raises(ValidationError, match="consecutive"):
            SimulationResult(params_digest="x", records=records)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SimulationResult(params_digest="x", records=())


class TestRoundHalfUp:
    """The half-up rounding criterion 1 applies to the fitted 2022 count."""

    @pytest.mark.parametrize(
        "value, expected",
        [(0.0, 0), (0.4999, 0), (0.5, 1), (440.49, 440), (440.5, 441), (441.0, 441)],
    )
    def test_values(self, value, expected):
        assert round_half_up(value) == expected

    def test_banker_rounding_not_used(self):
        # round() would give 442 for 442.5 but 442 for 441.5; half-up gives 442
        assert round_half_up(441.5) == 442
        assert round_half_up(442.5) == 443
