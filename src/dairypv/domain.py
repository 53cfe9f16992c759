"""Shared domain types for the PV adoption simulator.

Money is plain floating-point EUR: the model is a projection, not
accounting, so comparisons in tests use tolerances rather than exact cents.
All types here are immutable after construction and validate their
invariants in __post_init__, raising ValidationError naming the bad field.
"""

import hashlib
import math
import numbers
from dataclasses import dataclass, fields
from datetime import MAXYEAR, MINYEAR

from .errors import CoverageGapError, ValidationError

ADOPTION_SEMANTICS = ("hazard", "literal")
MODES = ("deterministic", "stochastic")

_UINT64_MAX = 2**64 - 1


def require_finite(name, value):
    """Return value as float, rejecting NaN, infinities and ints beyond float range."""
    try:
        value = float(value)
    except OverflowError:  # never formatted: repr of a long enough int raises
        raise ValidationError(
            f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def require_integer(name, value):
    """Return value as int, rejecting bools and numbers that are not integral types."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class YearSeries:
    """Contiguous year-indexed series of EUR values.

    Contiguity is structural: the series stores its first year plus one
    value per consecutive year, so gaps and duplicates cannot exist.
    window is the one check that a series covers a run's years.
    """

    first_year: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "first_year", require_integer("first_year", self.first_year))
        if len(self.values) == 0:
            raise ValidationError("values must contain at least one entry")
        checked = tuple(require_finite(f"values[{i}]", v) for i, v in enumerate(self.values))
        object.__setattr__(self, "values", checked)

    @property
    def last_year(self):
        return self.first_year + len(self.values) - 1

    def window(self, years, name):
        """The values of the consecutive years in range `years`, as a tuple.

        Raises CoverageGapError naming the series `name` and carrying the
        years of the range the series lacks, in order.
        """
        missing = [y for y in years if not self.first_year <= y <= self.last_year]
        if missing:
            raise CoverageGapError(
                f"{name} series covers {self.first_year}-{self.last_year} but the "
                f"scenario needs {years[0]}-{years[-1]}; missing years: "
                + ", ".join(str(y) for y in missing),
                missing_years=missing,
            )
        return tuple(self.values[y - self.first_year] for y in years)

    def items(self):
        for i, value in enumerate(self.values):
            yield self.first_year + i, value


@dataclass(frozen=True)
class ScenarioParams:
    """Complete input set for one simulation scenario.

    The annotations are the schema: a float field takes any finite real but
    bool and stores it as float; an int field takes any integer type but
    bool (a numpy integer too) and stores it as int.
    """

    pv_cost_min: float
    pv_cost_max: float
    maintenance_rate: float
    discount_rate: float
    total_farmers: int
    start_year: int
    end_year: int
    horizon_years: int = 20
    annual_generation_kwh: float = 6000.0
    alpha: float = 1.0
    beta: float = 0.01
    adoption_semantics: str = "hazard"
    mode: str = "deterministic"
    seed: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValidationError(f"{f.name} must be a real number, got {value!r}")
                object.__setattr__(self, f.name, require_finite(f.name, value))
            elif f.type is int or (f.type == int | None and value is not None):
                object.__setattr__(self, f.name, require_integer(f.name, value))
        if not 0 <= self.pv_cost_min <= self.pv_cost_max:
            raise ValidationError(
                "pv_cost_min must satisfy 0 <= pv_cost_min <= pv_cost_max, got "
                f"[{self.pv_cost_min}, {self.pv_cost_max}]"
            )
        if not 0 <= self.maintenance_rate < 1:
            raise ValidationError(
                f"maintenance_rate must be in [0, 1), got {self.maintenance_rate}"
            )
        if self.discount_rate <= -1:
            raise ValidationError(f"discount_rate must be > -1, got {self.discount_rate}")
        if self.total_farmers < 1:
            raise ValidationError(f"total_farmers must be >= 1, got {self.total_farmers}")
        require_finite("total_farmers", self.total_farmers)  # runs take it as a float
        for name in ("start_year", "end_year"):
            if not MINYEAR <= getattr(self, name) <= MAXYEAR:
                raise ValidationError(
                    f"{name} must be in {MINYEAR}-{MAXYEAR}, got {getattr(self, name)}"
                )
        if self.start_year > self.end_year:
            raise ValidationError(
                f"start_year must be <= end_year, got {self.start_year} > {self.end_year}"
            )
        if not 0 <= self.horizon_years <= MAXYEAR:
            raise ValidationError(
                f"horizon_years must be in 0-{MAXYEAR}, got {self.horizon_years}"
            )
        if self.annual_generation_kwh < 0:
            raise ValidationError(
                f"annual_generation_kwh must be >= 0, got {self.annual_generation_kwh}"
            )
        if self.alpha <= 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")
        if not 0 < self.beta <= 1:
            raise ValidationError(f"beta must be in (0, 1], got {self.beta}")
        if self.adoption_semantics not in ADOPTION_SEMANTICS:
            raise ValidationError(
                f"adoption_semantics must be one of {ADOPTION_SEMANTICS}, "
                f"got {self.adoption_semantics!r}"
            )
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed is not None and not 0 <= self.seed <= _UINT64_MAX:
            raise ValidationError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")

    @property
    def midpoint_cost(self):
        """Representative PV cost used by the deterministic mode. Halved before the sum, so
        it is finite when both costs are; (min + max)/2's bits when each is 0 or >= 2**-1021."""
        return self.pv_cost_min / 2.0 + self.pv_cost_max / 2.0

    @property
    def digest(self):
        """Short stable identifier of this parameter set."""
        text = ";".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class YearRecord:
    """Outputs of one simulated year."""

    year: int
    energy_price: float
    subsidy: float
    economic_utility: float
    probability: float
    new_adopters: float
    cumulative_adopters: float

    def __post_init__(self):
        for name in ("energy_price", "subsidy", "economic_utility", "probability",
                     "new_adopters", "cumulative_adopters"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        if not 0 <= self.probability <= 1:
            raise ValidationError(f"probability must be in [0, 1], got {self.probability}")
        if self.new_adopters < 0:
            raise ValidationError(f"new_adopters must be >= 0, got {self.new_adopters}")
        if self.cumulative_adopters < 0:
            raise ValidationError(
                f"cumulative_adopters must be >= 0, got {self.cumulative_adopters}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """One record per simulated year, tagged with the scenario's digest."""

    params_digest: str
    records: tuple

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        if not records:
            raise ValidationError("records must contain at least one YearRecord")
        for prev, nxt in zip(records, records[1:]):
            if nxt.year != prev.year + 1:
                raise ValidationError(
                    f"records must cover consecutive years: got {nxt.year} after {prev.year}"
                )
