"""Property tests for the three input loaders and the CLI that reads them.

Each well-formed input must load exactly, row for row; any other input must
either load or be refused with the loader's named error, and the CLI must
exit 0, 1 or 2 on it, never with a traceback.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovband.cli import main
from markovband.cost import CostRates, MonthlyEvents, load_events, load_rates
from markovband.series import SeriesFormatError, load_series

ENDS = st.sampled_from(["\n", "\r\n", "\r"])
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# text cells without CSV structure (separator, quote, line break) or NUL
# (which Python 3.10's csv refuses); leading or trailing spaces are kept
plain = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n\x00'),
    max_size=8,
)
# any text, and the raw bytes of a file: NUL, lone CRs, quotes, bad UTF-8
anything = st.one_of(
    st.text(max_size=60),
    st.binary(max_size=60),
    st.lists(st.sampled_from(["1", "2.5", "-3e2", ",", '"', "\r", "\n", "\x00",
                              "x", " ", "nan", "\ufeff"]), max_size=30).map("".join),
)


def as_stream(data):
    return io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)


def is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@given(st.lists(finite, min_size=2, max_size=30), ENDS, st.booleans(),
       st.sampled_from([None, "value", "x,value"]))
@settings(max_examples=200, deadline=None)
def test_series_rows_load_exactly(values, end, trailing, header):
    labelled = header == "x,value"
    rows = [f"r{i},{v!r}" if labelled else repr(v) for i, v in enumerate(values)]
    if header is not None:
        rows.insert(0, header)
    text = end.join(rows) + (end if trailing else "")
    series = load_series(io.StringIO(text))
    assert [float(x) for x in series.values] == values
    assert [math.copysign(1.0, x) for x in series.values] == [
        math.copysign(1.0, v) for v in values
    ]
    assert series.labels == (tuple(f"r{i}" for i in range(len(values)))
                             if labelled else None)


@given(st.lists(st.one_of(finite.map(repr), plain), min_size=1, max_size=12), ENDS)
@settings(max_examples=300, deadline=None)
def test_series_cells_load_or_are_named(cells, end):
    # blank lines are skipped; a first cell that is not a number is a header
    rows = [c for c in cells if c]
    text = end.join(cells) + end
    data = rows[1:] if rows and not is_number(rows[0]) else rows
    if len(data) >= 2 and all(is_number(c) and math.isfinite(float(c)) for c in data):
        assert load_series(io.StringIO(text)).values.tolist() == [float(c) for c in data]
    else:
        with pytest.raises(SeriesFormatError):
            load_series(io.StringIO(text))


@given(anything)
@settings(max_examples=300, deadline=None)
def test_series_input_loads_or_is_named(data):
    try:
        series = load_series(as_stream(data))
    except SeriesFormatError:
        return
    assert len(series) >= 2


counts = st.integers(min_value=0, max_value=10**6)
EVENT_FIELDS = ["delays", "cancellations", "diversions", "air_turnbacks", "spares"]


@given(st.lists(st.tuples(counts, counts, counts, counts, counts), min_size=1,
                max_size=15), st.permutations(EVENT_FIELDS + ["month"]), ENDS)
@settings(max_examples=200, deadline=None)
def test_event_rows_load_exactly(rows, order, end):
    months = [dict(zip(EVENT_FIELDS, row), month=f"m{i}") for i, row in enumerate(rows)]
    lines = [",".join(order)] + [",".join(str(m[f]) for f in order) for m in months]
    loaded = load_events(io.StringIO(end.join(lines) + end))
    assert loaded == [MonthlyEvents(**dict(zip(EVENT_FIELDS, row))) for row in rows]


@given(anything)
@settings(max_examples=300, deadline=None)
def test_events_input_loads_or_is_named(data):
    header = "delays,cancellations,diversions,air_turnbacks,spares\n"
    for raw in (data, header + data if isinstance(data, str) else header.encode() + data):
        with contextlib.suppress(ValueError):
            assert all(isinstance(m, MonthlyEvents) for m in load_events(as_stream(raw)))


rate = st.floats(min_value=0.0, allow_infinity=False, width=64)
RATE_FIELDS = ["delay", "cancellation", "diversion", "air_turnback", "spare"]


@given(st.tuples(rate, rate, rate, rate, rate), st.permutations(RATE_FIELDS), ENDS,
       st.sampled_from(["", " ", "  # note"]))
@settings(max_examples=200, deadline=None)
def test_rate_lines_load_exactly(values, order, end, pad):
    given_rates = dict(zip(RATE_FIELDS, values))
    lines = ["# rates"] + [f"{k}{pad[:1]}={pad[:1]}{given_rates[k]!r}{pad}" for k in order]
    loaded = load_rates(io.StringIO(end.join(lines) + end))
    assert loaded == CostRates(**given_rates)


@given(anything)
@settings(max_examples=300, deadline=None)
def test_rates_input_loads_or_is_named(data):
    with contextlib.suppress(ValueError):
        assert isinstance(load_rates(as_stream(data)), CostRates)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    series = root / "series.csv"
    series.write_text("10\n12\n10\n10\n9\n")
    events = root / "events.csv"
    events.write_text("delays,cancellations,diversions,air_turnbacks,spares\n2,1,0,1,3\n")
    rates = root / "rates.cfg"
    rates.write_text("delay=1\ncancellation=2\ndiversion=3\nair_turnback=4\nspare=5\n")
    return {"series": series, "events": events, "rates": rates, "fuzz": root / "fuzz"}


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(anything, st.sampled_from(["series", "events", "rates"]))
@settings(max_examples=200, deadline=None)
def test_cli_exits_0_1_or_2_on_any_input(files, data, which):
    path = files["fuzz"]
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8", "replace"))
    paths = {k: str(path if k == which else files[k]) for k in ("series", "events", "rates")}
    argvs = [["cost", "--input", paths["series"], "--events", paths["events"],
              "--rates", paths["rates"], "--force"]]
    if which == "series":
        argvs += [["check", "--input", paths["series"]],
                  ["forecast", "--input", paths["series"], "--force"]]
    for argv in argvs:
        assert run_quietly(argv) in (0, 1, 2)
