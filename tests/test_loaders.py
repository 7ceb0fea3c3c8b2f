"""Property tests for the three input loaders and the CLI that reads them.

Each well-formed input must load exactly, row for row; any other input must
either load or be refused with the loader's named error, and the CLI must
exit 0, 1 or 2 on it, never with a traceback.
"""

import contextlib
import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovband import series as series_module
from markovband.cli import main
from markovband.cost import CostRates, MonthlyEvents, load_events, load_rates
from markovband.series import SeriesFormatError, load_series
from oracles import reference_load_series

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


def starts_like_number(cell: str) -> bool:
    return re.match(r"\s*[+-]?[0-9.]", cell) is not None


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


@given(st.lists(st.one_of(finite.map(repr), plain), min_size=1, max_size=12), ENDS)
@settings(max_examples=300, deadline=None)
def test_series_cells_load_or_are_named(cells, end):
    # blank lines are skipped; a first cell that is not a number is a header,
    # unless it starts like one
    rows = [c for c in cells if c]
    text = end.join(cells) + end
    data = rows[1:] if rows and not is_number(rows[0]) else rows
    if rows and not is_number(rows[0]) and starts_like_number(rows[0]):
        with pytest.raises(SeriesFormatError, match="in data row 1$"):
            load_series(io.StringIO(text))
    elif len(data) >= 2 and all(is_number(c) and math.isfinite(float(c)) for c in data):
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


# cells for the differential test: numbers in the forms float() reads, and
# every CSV structure the fast path must leave to the csv module
number = st.one_of(finite.map(repr), st.integers(-10**6, 10**6).map(str))
# quoted fields, with separators, doubled quotes and line breaks inside
quoted = st.lists(st.sampled_from(["1", "2.5", "a", ",", '""', "\n", "\r\n", "\r", " "]),
                  max_size=5).map(lambda parts: '"' + "".join(parts) + '"')
odd_number = st.sampled_from(["1_0", "\u0661\u0662", "\uff17", " 7 ", "\t8", '"2.5"'])
odd_cell = st.one_of(
    plain,
    quoted,
    odd_number,
    st.sampled_from([
        "1__0", "inf", "-Infinity", "nan", "1e999", "", " ", "1j", "0x1p3", "value",
        "x", "a\x00b", "\x00", "\x0c", "\u2028", "\x85", '"', '1"', '"1', "\r",
        "0" * 140_000 + "1",  # longer than csv.field_size_limit()
        "x" * (csv.field_size_limit() + 1),
        "x" * csv.field_size_limit(),
    ]),
)
name = st.one_of(st.sampled_from(["value", "x", "t", "1j", ".5x", " v"]), plain)
# per kind of text: (value cells, label cells)
CELLS = {
    "plain": (number, plain),
    "awkward": (st.one_of(number, odd_number), st.one_of(plain, quoted)),
    "rough": (st.one_of(*[number] * 7, odd_cell), st.one_of(number, odd_cell)),
}


@st.composite
def csv_texts(draw):
    """CSV text of rows as wide as the first, of one of three kinds.

    Plain text (numbers, text labels in the first column, LF or CRLF) is
    what the fast path takes.  Awkward text should load through the csv
    path: quoted labels, numbers that only ``float`` reads, blank lines and
    mixed line endings.  Rough text adds any odd cell and ragged rows.
    """
    kind = draw(st.sampled_from(sorted(CELLS)))
    value, label = CELLS[kind]
    width = draw(st.integers(1, 4))
    row_cells = [value] * width
    if width > 1 and draw(st.booleans()):
        row_cells[0] = label
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(name, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 8))):
        if kind == "rough" and draw(st.integers(0, 9)) == 0:  # ragged
            cells = draw(st.lists(value, min_size=1, max_size=6))
        else:
            cells = [draw(c) for c in row_cells]
        lines.append(",".join(cells))
    if kind == "plain":
        ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    else:
        for _ in range(draw(st.integers(0, 2))):  # blank, whitespace-only
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", " ", "\t", ","])))
        ends = draw(st.lists(ENDS, min_size=len(lines), max_size=len(lines)))
    if lines and not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def outcome(load, text):
    """What ``load`` gives: value bits, or the error it raises."""
    try:
        series = load(text)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return series.values.view(np.uint64).tolist()


# Texts whose outcome turns on which row is refused first, or on which
# column is read; each is also given after a blank line, which leaves the
# split to the csv module.
ONE_PARSE = [
    "1\nx\n2\n3,4\n",  # a non-numeric row before a ragged one
    "1\n2,3\nx\n4\n",  # a ragged row before a non-numeric one
    "1\ninf\nx\n2\n",  # a non-finite row before a non-numeric one
    "t,v\n1\n2,3\n4,5\n",  # a header, then a ragged first data row
    "1,10\n2,11\n3,13\n",  # a numeric first column, not read
    't,v\n"a\nb",1\n"c\r\nd",2\n"e",3\n',  # line breaks in a quoted first column
]


def with_one_parse_examples(test):
    for text in ONE_PARSE:
        test = example("\n" + text)(example(text)(test))
    return test


@given(csv_texts())
@example("ab,1")  # a single line
@example('"t",v\n"a",1\nb,2\n')  # quoted header and label
@example("x" * (csv.field_size_limit() + 1) + ",1j\n1,2\n3,4\n")
@example("a,1\n" + "b" * (csv.field_size_limit() + 1) + ",2\nc,3\n")
@example("a\x00,1\nb,2\nc,3\n")
@example("1\r\n2\r3\r\n")
@example("\r\n1\n2\n")  # a blank first line
@example("a,1\r\n\r\nb,2\r\nc,3\r\n")
@with_one_parse_examples
@settings(max_examples=400, deadline=None)
def test_series_loader_is_the_csv_reference(text):
    plain = series_module._split_plain(text)
    if plain is not None:  # the fast split is the csv module's, field for field
        fields, widths = series_module._split_csv(text)
        assert plain[0] == fields and plain[1].tolist() == widths.tolist()
    got = outcome(lambda t: load_series(io.StringIO(t)), text)
    assert got == outcome(reference_load_series, text)


@pytest.mark.parametrize(
    "text",
    ["a\r\r\nb", "a\rb", "a\n\rb", "a\nb\r", "\r", "\r\n\r\n",
     "1\r\r\n2\r\n3\r\n", "1\r\n2\n\r3\n", "1\r\n2\r\n3\r", "1\r\n2\r\n3\r\n"],
)
def test_carriage_returns_get_the_csv_result(text):
    # Only CRs that begin a CRLF are plain line breaks; any other CR leaves
    # the split to the csv module.
    plain = series_module._split_plain(text)
    if "\r" in text.replace("\r\n", ""):
        assert plain is None
    elif plain is not None:
        fields, widths = series_module._split_csv(text)
        assert plain[0] == fields and plain[1].tolist() == widths.tolist()
    got = outcome(lambda t: load_series(io.StringIO(t)), text)
    assert got == outcome(reference_load_series, text)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("rows", [
    ["1.5", "2", "-3e-2", "4_0"],
    ["value", "1.5", "2", "-3e-2"],
    ["month,value", "Jan,1.5", "Feb,2", "Mar,-3e-2"],
    ["t,a,b", "x,1,2", "y,3,4", "z,5,6"],
])
@pytest.mark.parametrize("trailing", [True, False])
def test_plain_series_files_never_reach_the_csv_module(monkeypatch, rows, end, trailing):
    def refuse(source):
        raise AssertionError("plain CSV took the csv path")

    monkeypatch.setattr(series_module, "read_csv", refuse)
    text = end.join(rows) + (end if trailing else "")
    expected = reference_load_series(text)
    for source in (io.StringIO(text), io.BytesIO(b"\xef\xbb\xbf" + text.encode())):
        series = load_series(source)
        assert series.values.tolist() == expected.values.tolist()


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
