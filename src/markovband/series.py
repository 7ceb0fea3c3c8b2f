"""Time-series container, CSV ingestion, and first differencing.

The error sequence of a series x_0..x_K is the vector of first differences
e_k = x_k - x_{k-1}.  Under the additive white-noise random-walk model these
differences are the noise draws themselves, which is what the downstream
normality check examines.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

__all__ = [
    "TimeSeries",
    "ErrorSequence",
    "SeriesFormatError",
    "DegenerateSeriesError",
    "load_series",
    "difference",
]


class SeriesFormatError(ValueError):
    """Raised when input is not UTF-8 text or CSV that forms a numeric series."""


class DegenerateSeriesError(ValueError):
    """Raised when an error sequence has zero variance.

    All first differences being identical (e.g. a pure ramp) carries no noise
    information, so neither the normality check nor a prediction band is
    defined for such a series.
    """


def _freeze(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An ordered numeric series with optional per-observation labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = _freeze(np.atleast_1d(np.asarray(self.values, dtype=float)))
        if arr.ndim != 1:
            raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("series must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != arr.size:
                raise ValueError(
                    f"got {len(labels)} labels for {arr.size} observations"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class ErrorSequence:
    """First differences of a series plus their summary moments.

    ``variance`` is the centered unbiased sample variance (n-1 divisor); it is
    zero exactly when all errors are equal.  For a single error the estimator
    carries no spread information and the variance is reported as 0.0.  The
    mean is reported separately so callers can flag drift rather than silently
    absorbing it into the spread estimate.
    """

    errors: np.ndarray
    mean: float
    variance: float
    stddev: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "errors", _freeze(self.errors))

    def __len__(self) -> int:
        return int(self.errors.size)


def difference(series: TimeSeries) -> ErrorSequence:
    """Error sequence e_k = x_k - x_{k-1} of a series of length >= 2."""
    if len(series) < 2:
        raise ValueError("differencing requires a series of length >= 2")
    errors = np.diff(series.values)
    mean = float(errors.mean())
    if errors.size < 2:
        variance = 0.0
    else:
        variance = float(errors.var(ddof=1))
    return ErrorSequence(
        errors=errors, mean=mean, variance=variance, stddev=math.sqrt(variance)
    )


Source = Union[str, Path, IO[str], IO[bytes]]


def read_text(source: Source) -> str:
    """Text of a path or open stream; bytes are UTF-8 with an optional BOM."""
    if isinstance(source, (str, Path)):
        raw: Union[str, bytes] = Path(source).read_bytes()
    else:
        raw = source.read()
    if isinstance(raw, bytes):
        try:
            return raw.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise SeriesFormatError(f"input is not valid UTF-8 text: {exc}") from exc
    return raw


def _pick_column(first_row: Sequence[str], column: int | str | None) -> int:
    """Resolve the value-column index against the first CSV row."""
    width = len(first_row)
    if isinstance(column, str):
        try:
            return first_row.index(column)
        except ValueError:
            raise SeriesFormatError(
                f"no column named {column!r}; header row is {list(first_row)}"
            ) from None
    if column is None:
        return 0 if width == 1 else width - 1
    if not -width <= column < width:
        raise SeriesFormatError(
            f"column index {column} out of range for {width}-column input"
        )
    return column % width


def load_series(source: Source, column: int | str | None = None) -> TimeSeries:
    """Parse CSV text (path or open stream) into a :class:`TimeSeries`.

    ``column`` selects the value column by index or header name; by default a
    single-column file uses that column and a multi-column file uses the last
    one.  A header row is detected by attempting to parse the selected field
    of the first row; selecting a column by name requires a header.  When the
    value column is not the first one, the first column is kept as labels.
    """
    text = read_text(source)
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise SeriesFormatError("input contains no rows")

    idx = _pick_column(rows[0], column)
    if isinstance(column, str):
        data_rows = rows[1:]
    else:
        try:
            float(rows[0][idx])
        except ValueError:
            data_rows = rows[1:]  # unparseable first field: treat as header
        else:
            data_rows = rows
    if len(data_rows) < 2:
        raise SeriesFormatError(
            f"need at least 2 data rows to form a series, got {len(data_rows)}"
        )

    width = len(rows[0])
    values = []
    labels = [] if (width > 1 and idx != 0) else None
    for i, row in enumerate(data_rows, start=1):
        if len(row) != width:
            raise SeriesFormatError(
                f"data row {i} has {len(row)} fields, expected {width}"
            )
        cell = row[idx]
        try:
            value = float(cell)
        except ValueError:
            raise SeriesFormatError(
                f"non-numeric value {cell!r} in data row {i}"
            ) from None
        if not math.isfinite(value):
            raise SeriesFormatError(f"non-finite value {cell!r} in data row {i}")
        values.append(value)
        if labels is not None:
            labels.append(row[0])

    return TimeSeries(
        values=np.array(values, dtype=float),
        labels=tuple(labels) if labels is not None else None,
    )
