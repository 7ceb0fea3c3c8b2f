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
from typing import IO, Union

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
    """An ordered numeric series."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, ndmin=1)
        if arr.ndim != 1:
            raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("series must contain at least one observation")
        if not np.isfinite(arr).all():
            raise ValueError("series values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

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
        errors = values[..., 1:] - values[..., :-1]  # np.diff's own step
        count = errors.shape[-1]
        mean = np.add.reduce(errors, axis=-1, keepdims=True) / count
        squares = errors - mean
        np.multiply(squares, squares, out=squares)
        variance = np.add.reduce(squares, axis=-1) / max(count - 1, 1)
    # A non-finite difference makes its row's mean, and so its variance,
    # non-finite too.
    if not np.isfinite(variance).all():
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
        with open(source, "rb") as fh:
            raw: Union[str, bytes] = fh.read()
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


def _data_start(head: str) -> int:
    """Index of the first data row: 1 after a header row, else 0.

    ``head`` is the last field of the first row.  The first row is a header
    when that field does not parse as a float and does not start like a
    number (``[+-]?[0-9.]`` after leading whitespace); a field that does,
    such as ``1j`` or ``0x1p3``, is a mistyped value and is refused as data
    row 1.
    """
    try:
        float(head)
    except ValueError:
        lead = head.lstrip()
        lead = lead[1:] if lead[:1] in ("+", "-") else lead
        if lead and lead[0] in "0123456789.":
            raise SeriesFormatError(
                f"non-numeric value {head!r} in data row 1"
            ) from None
        return 1
    return 0


def _split_plain(text: str) -> tuple[list[str], np.ndarray] | None:
    """The fields of ``text`` and each line's field count, split at C speed.

    Returns what :func:`_split_csv` returns, or None to leave the text to
    it: only text that the csv module reads as plain splits at commas and
    line breaks is split here.  That is text with no quote, no NUL (which
    csv refuses on Python 3.10), no CR outside a CRLF, no blank line and no
    line longer than ``csv.field_size_limit()``.
    """
    if '"' in text or "\x00" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:  # a CR outside a CRLF
            return None
    if not text or "\n\n" in text or text.startswith("\n"):
        return None
    text = text.removesuffix("\n")
    # Byte counts: "\n" and "," never occur inside a multi-byte UTF-8
    # character, and a line has at least as many bytes as characters.
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    edges = np.concatenate(([-1], (data == ord("\n")).nonzero()[0], [data.size]))
    if (edges[1:] - edges[:-1] - 1).max() > csv.field_size_limit():
        return None
    bounds = (data == ord(",")).nonzero()[0].searchsorted(edges)
    widths = bounds[1:] - bounds[:-1] + 1
    return text.replace("\n", ",").split(","), widths


def _split_csv(text: str) -> tuple[list[str], np.ndarray]:
    """The fields of the non-blank csv rows of ``text``, and each row's width."""
    rows = [row for row in read_csv(io.StringIO(text)) if row]
    widths = np.array([len(row) for row in rows], dtype=np.intp)
    return [field for row in rows for field in row], widths


def _refusal(fields: list[str], widths: list[int], start: int) -> SeriesFormatError:
    """The error that names the first refused data row.

    A row is refused when it is not as wide as the first row, when its last
    field does not parse as a float, or when that float is not finite,
    checked in that order.  ``start`` is the index of the first data row.
    """
    width = widths[0]
    end = width * start  # fields up to the end of the row
    for i, count in enumerate(widths[start:], start=1):
        end += count
        if count != width:
            return SeriesFormatError(
                f"data row {i} has {count} fields, expected {width}"
            )
        cell = fields[end - 1]
        try:
            value = float(cell)
        except ValueError:
            return SeriesFormatError(f"non-numeric value {cell!r} in data row {i}")
        if not math.isfinite(value):
            return SeriesFormatError(f"non-finite value {cell!r} in data row {i}")
    raise AssertionError("every data row is a finite value")


def load_series(source: Source) -> TimeSeries:
    """Parse CSV text (path or open stream) into a :class:`TimeSeries`.

    The values are the last field of each row; the other fields are not
    read.  Rows are the csv module's rows of the text, blank ones skipped,
    and every data row must be as wide as the first row.  The first row is
    a header when its last field is not a number (see :func:`_data_start`).

    Plain text is split in one pass (:func:`_split_plain`), to exactly the
    fields the csv module gives (:func:`_split_csv`); either split is then
    parsed by one ``float`` call a value, and a refused row is named.
    """
    text = read_text(source)
    split = _split_plain(text)
    fields, widths = split if split is not None else _split_csv(text)
    if not widths.size:
        raise SeriesFormatError("input contains no rows")
    width = int(widths[0])
    start = _data_start(fields[width - 1])
    rows = widths.size - start
    if rows < 2:
        raise SeriesFormatError(
            f"need at least 2 data rows to form a series, got {rows}"
        )
    if (widths == width).all():
        cells = fields[(start + 1) * width - 1 :: width]
        try:
            values = np.fromiter(map(float, cells), float, rows)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return TimeSeries(values=values)
    raise _refusal(fields, widths.tolist(), start)
