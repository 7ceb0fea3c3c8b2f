import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovband.series import (
    SeriesFormatError,
    TimeSeries,
    diff_rows,
    difference,
    load_series,
)

# Dyadic-grid values: k / 2**20 with |k| < 2**30 sums exactly in float64,
# letting translation properties be asserted bitwise.
dyadic = st.integers(min_value=-(2**30), max_value=2**30).map(lambda k: k / 2.0**20)


def test_timeseries_basics():
    ts = TimeSeries(values=[1.0, 2.5, 4.0])
    assert len(ts) == 3
    assert ts.values.dtype == np.float64


def test_timeseries_is_immutable():
    ts = TimeSeries(values=[1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


@pytest.mark.parametrize(
    "values",
    [[], [1.0, np.inf], [1.0, np.nan], [[1.0, 2.0], [3.0, 4.0]]],
)
def test_timeseries_rejects_bad_values(values):
    with pytest.raises(ValueError):
        TimeSeries(values=np.array(values))


def test_difference_known_values():
    es = difference(TimeSeries(values=[1.0, 2.0, 4.0, 8.0]))
    assert np.array_equal(es.errors, [1.0, 2.0, 4.0])
    assert es.mean == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert es.variance == pytest.approx(7.0 / 3.0, rel=1e-12)  # ddof=1
    assert es.stddev == pytest.approx(np.sqrt(7.0 / 3.0), rel=1e-12)
    assert len(es) == 3


def test_difference_single_error_has_zero_variance():
    es = difference(TimeSeries(values=[3.0, 7.5]))
    assert np.array_equal(es.errors, [4.5])
    assert es.variance == 0.0 and es.stddev == 0.0


def test_difference_ramp_is_exactly_degenerate():
    es = difference(TimeSeries(values=np.arange(1.0, 6.0)))
    assert np.all(es.errors == 1.0)
    assert es.variance == 0.0


def test_difference_requires_two_points():
    with pytest.raises(ValueError):
        difference(TimeSeries(values=[42.0]))


@pytest.mark.parametrize("values", [
    [1e308, -1e308, 1e308],              # a step overflows
    [0.0, 1e200, 0.0, -1e200],           # the variance of the steps overflows
])
def test_difference_names_the_overflow_without_warnings(values):
    # tier-1 turns a leaked warning into an error
    with pytest.raises(ValueError, match="first differences overflow"):
        difference(TimeSeries(values=values))


@pytest.mark.parametrize("shape", [(2,), (3,), (50,), (7, 12), (2, 3, 201)])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
def test_diff_rows_moments_are_numpys_bitwise(shape, scale):
    values = np.random.default_rng(5).standard_normal(shape).cumsum(axis=-1) * scale
    errors, mean, variance = diff_rows(values)
    expect = np.diff(values, axis=-1)
    assert np.array_equal(errors, expect)
    assert np.array_equal(mean, expect.mean(axis=-1))
    if shape[-1] > 2:
        assert np.array_equal(variance, expect.var(axis=-1, ddof=1))
    else:
        assert np.all(variance == 0.0)


@given(st.lists(dyadic, min_size=2, max_size=40), dyadic)
@settings(max_examples=150, deadline=None)
def test_difference_translation_invariant_bitwise(values, shift):
    base = difference(TimeSeries(values=values)).errors
    moved = difference(TimeSeries(values=np.asarray(values) + shift)).errors
    assert np.array_equal(base, moved)


# ---------------------------------------------------------------- loading


def test_load_single_column_no_header():
    ts = load_series(io.StringIO("1.5\n2.5\n3.5\n"))
    assert np.array_equal(ts.values, [1.5, 2.5, 3.5])


def test_load_single_column_with_header():
    ts = load_series(io.StringIO("count\n1\n2\n"))
    assert np.array_equal(ts.values, [1.0, 2.0])


@pytest.mark.parametrize("first", ["1j", "0x1p3", "1#x", "-2e", " +.5e", ".x"])
@pytest.mark.parametrize("label", [None, "a"])
def test_load_refuses_a_first_value_that_starts_like_a_number(first, label):
    rows = [first, "1", "2", "4", "3", "5"]
    if label is not None:
        rows = [f"{label},{cell}" for cell in rows]
    with pytest.raises(SeriesFormatError,
                       match=f"^non-numeric value {re.escape(repr(first))} in data row 1$"):
        load_series(io.StringIO("\n".join(rows) + "\n"))


@pytest.mark.parametrize("header", ["value", "month,value", "-x", "+", " v1", "x1", "e5"])
def test_load_takes_a_first_row_that_does_not_start_like_a_number_as_header(header):
    width = header.count(",") + 1
    rows = [header] + [",".join(["r"] * (width - 1) + [str(v)]) for v in (1, 2, 4)]
    assert load_series(io.StringIO("\n".join(rows) + "\n")).values.tolist() == [1.0, 2.0, 4.0]


def test_load_multi_column_defaults_to_last():
    ts = load_series(io.StringIO("month,count\nJan,5\nFeb,7\nMar,6\n"))
    assert np.array_equal(ts.values, [5.0, 7.0, 6.0])


def test_load_from_path(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("7\n8\n9\n")
    assert np.array_equal(load_series(p).values, [7.0, 8.0, 9.0])
    assert np.array_equal(load_series(str(p)).values, [7.0, 8.0, 9.0])


def test_load_from_bytes_stream():
    ts = load_series(io.BytesIO(b"1\n2\n3\n"))
    assert np.array_equal(ts.values, [1.0, 2.0, 3.0])


def test_load_empty_input():
    with pytest.raises(SeriesFormatError, match="no rows"):
        load_series(io.StringIO(""))


def test_load_too_few_rows():
    with pytest.raises(SeriesFormatError, match="at least 2"):
        load_series(io.StringIO("count\n5\n"))


def test_load_reports_bad_cell_row_number():
    with pytest.raises(SeriesFormatError, match=r"'oops' in data row 2"):
        load_series(io.StringIO("count\n5\noops\n7\n"))


def test_load_rejects_non_finite():
    with pytest.raises(SeriesFormatError, match="data row 2"):
        load_series(io.StringIO("1\ninf\n3\n"))


def test_load_rejects_ragged_rows():
    with pytest.raises(SeriesFormatError, match="data row 2"):
        load_series(io.StringIO("a,b\n1,2\n3\n"))


def test_load_skips_a_utf8_bom():
    series = load_series(io.BytesIO(b"\xef\xbb\xbf1.0\n2.0\n3.5\n"))
    assert series.values.tolist() == [1.0, 2.0, 3.5]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_load_accepts_each_line_ending(end):
    text = end.join(["t,v", "a,1", "b,2.5", "c,3"]) + end
    series = load_series(io.StringIO(text))
    assert series.values.tolist() == [1.0, 2.5, 3.0]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_load_keeps_line_breaks_inside_quoted_labels(end):
    text = end.join(["t,v", f'"a{end}b",1', "c,2"]) + end
    series = load_series(io.StringIO(text))
    assert series.values.tolist() == [1.0, 2.0]


def test_load_names_a_csv_error():
    # a field past the csv module's size limit
    with pytest.raises(SeriesFormatError, match="CSV line 3"):
        load_series(io.StringIO("1\n2\n" + "3" * 200_000 + "\n"))


def test_load_invalid_utf8():
    with pytest.raises(SeriesFormatError, match="UTF-8"):
        load_series(io.BytesIO(b"\xff\xfe1\n2\n"))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64,
                          min_value=-1e12, max_value=1e12),
                min_size=2, max_size=50))
@settings(max_examples=150, deadline=None)
def test_load_round_trips_repr_exactly(values):
    text = "\n".join(repr(v) for v in values) + "\n"
    ts = load_series(io.StringIO(text))
    assert np.array_equal(ts.values, np.asarray(values))
