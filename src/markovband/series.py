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
    "diff_rows",
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
            labels = tuple(self.labels)
            if set(map(type, labels)) != {str}:  # str() each only when needed
                labels = tuple(map(str, labels))
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
    zero when all errors are equal, and also when errors that differ are so
    close (spread below about 1e-162) that the squares underflow to zero
    (see :func:`zero_variance_error`).  For a single error the estimator
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


def diff_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First differences of each last-axis row, with their means and variances.

    The variance is the unbiased one, bitwise ``errors.var(axis=-1, ddof=1)``
    (the same steps, sharing the mean), and 0.0 for a lone difference.
    Raises ValueError, naming the overflow, when a difference or a
    variance of finite values leaves the float64 range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.diff(values, axis=-1)
        count = errors.shape[-1]
        mean = np.add.reduce(errors, axis=-1, keepdims=True) / count
        squares = errors - mean
        np.multiply(squares, squares, out=squares)
        variance = np.add.reduce(squares, axis=-1) / max(count - 1, 1)
    # A non-finite difference makes its row's mean, and so its variance,
    # non-finite too.
    if not np.all(np.isfinite(variance)):
        raise ValueError(
            "first differences overflow: a step of the series or their "
            "variance exceeds the float64 range; rescale the series"
        )
    return errors, mean[..., 0], variance


def zero_variance_error(errors: np.ndarray) -> DegenerateSeriesError:
    """The refusal of first differences whose variance came out as 0.0.

    Names which of the two causes it was: all differences equal (no noise),
    or differences that differ but whose squared spread underflowed float64.
    """
    if (errors == errors[..., :1]).all():
        return DegenerateSeriesError(
            "all first differences are equal; the normality check and the "
            "prediction band are undefined for a noise-free series"
        )
    return DegenerateSeriesError(
        "first differences underflow: they differ, but their variance is "
        "below the float64 range; rescale the series"
    )


def difference(series: TimeSeries) -> ErrorSequence:
    """Error sequence e_k = x_k - x_{k-1} of a series of length >= 2."""
    if len(series) < 2:
        raise ValueError("differencing requires a series of length >= 2")
    errors, mean, variance = diff_rows(series.values)
    mean, variance = float(mean), float(variance)
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


def read_csv(source: Source) -> list[list[str]]:
    """Rows of CSV text, blank lines as empty rows; lines end in LF, CRLF or CR.

    A line the csv module cannot parse raises :class:`SeriesFormatError`
    naming it.
    """
    reader = csv.reader(io.StringIO(read_text(source), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise SeriesFormatError(
            f"malformed CSV line {reader.line_num}: {exc}"
        ) from None


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


def _data_start(first_row: Sequence[str], idx: int, column: int | str | None) -> int:
    """Index of the first data row: 1 after a header row, else 0.

    A column selected by name needs a header.  Otherwise the first row is a
    header when its value field does not parse as a float and does not start
    like a number (``[+-]?[0-9.]`` after leading whitespace); a field that
    does, such as ``1j`` or ``0x1p3``, is a mistyped value and is refused as
    data row 1.
    """
    if isinstance(column, str):
        return 1
    cell = first_row[idx]
    try:
        float(cell)
    except ValueError:
        lead = cell.lstrip()
        lead = lead[1:] if lead[:1] in ("+", "-") else lead
        if lead and lead[0] in "0123456789.":
            raise SeriesFormatError(
                f"non-numeric value {cell!r} in data row 1"
            ) from None
        return 1
    return 0


def _load_plain(text: str, column: int | str | None) -> TimeSeries | None:
    """The series of ``text`` split at C speed, or None to leave it to csv.

    Returns only where the csv module would read ``text`` as plain splits at
    commas and line breaks: no quote, no NUL (which csv refuses on Python
    3.10), no CR outside a CRLF, no blank line, no line longer than
    ``csv.field_size_limit()``, at least two lines, every line as wide as
    the first and every value finite.  Values are parsed by ``float``, as on
    the csv path.  The first row is judged by the same column and header
    rules, and only once csv could raise nothing before them, so an error
    they raise here is the one the csv path would raise.
    """
    if '"' in text or "\x00" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    if "\n\n" in text or text.startswith("\n"):
        return None
    text = text.removesuffix("\n")
    # Byte counts: "\n" and "," never occur inside a multi-byte UTF-8
    # character, and a line has at least as many bytes as characters.
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    edges = np.concatenate(([-1], np.flatnonzero(data == ord("\n")), [data.size]))
    if edges.size < 3 or (np.diff(edges) - 1).max() > csv.field_size_limit():
        return None

    head = text.partition("\n")[0].split(",")
    idx = _pick_column(head, column)
    start = _data_start(head, idx, column)
    width = len(head)
    if edges.size - 1 - start < 2:
        return None
    if width > 1:
        commas = np.flatnonzero(data == ord(","))
        if not (np.diff(np.searchsorted(commas, edges)) == width - 1).all():
            return None
        fields = text.replace("\n", ",").split(",")
    else:
        fields = text.split("\n")  # a line with a comma fails float()

    cells = fields[start * width + idx :: width]
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    labels = tuple(fields[start * width :: width]) if width > 1 and idx != 0 else None
    return TimeSeries(values=values, labels=labels)


def load_series(source: Source, column: int | str | None = None) -> TimeSeries:
    """Parse CSV text (path or open stream) into a :class:`TimeSeries`.

    ``column`` selects the value column by index or header name; by default a
    single-column file uses that column and a multi-column file uses the last
    one.  A header row is detected by attempting to parse the selected field
    of the first row (see :func:`_data_start`); selecting a column by name
    requires a header.  When the value column is not the first one, the first
    column is kept as labels.

    Plain text is split in one pass (:func:`_load_plain`), to exactly what
    the csv path gives; anything else is read row by row through the csv
    module, which names the row it refuses.
    """
    text = read_text(source)
    series = _load_plain(text, column)
    if series is not None:
        return series
    rows = [row for row in read_csv(io.StringIO(text)) if row]
    if not rows:
        raise SeriesFormatError("input contains no rows")

    idx = _pick_column(rows[0], column)
    data_rows = rows[_data_start(rows[0], idx, column):]
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
