"""Exception types shared across the package.

Parse/validation problems raise distinct classes so callers can tell them
apart without string matching. The CLI exits 2 on CalibrationFailedError and
1 on any other DairyPvError.
"""


class DairyPvError(Exception):
    """Base class for all package errors.

    An error at line N of an input file starts its message `line N: ` and keeps N as `.line`.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(DairyPvError, ValueError):
    """A domain invariant or precondition was violated; message names the field."""


class MissingHeaderError(DairyPvError, ValueError):
    """Input is empty or its header row does not match the expected columns."""


class DuplicateYearError(DairyPvError, ValueError):
    """The same calendar year appears on more than one row."""

    def __init__(self, message, year=None, line=None):
        super().__init__(message, line)
        self.year = year


class YearGapError(DairyPvError, ValueError):
    """Years are not contiguous and increasing; carries the missing years."""

    def __init__(self, message, missing_years=(), line=None):
        super().__init__(message, line)
        self.missing_years = tuple(missing_years)


class BadValueError(DairyPvError, ValueError):
    """A row or cell is not the expected numbers, or the text is not UTF-8."""


class CoverageGapError(DairyPvError, ValueError):
    """A series does not cover every simulated year; carries the missing years."""

    def __init__(self, message, missing_years=()):
        super().__init__(message)
        self.missing_years = tuple(missing_years)


class CalibrationFailedError(DairyPvError, RuntimeError):
    """Calibration could not produce a finite loss anywhere in the search space."""
