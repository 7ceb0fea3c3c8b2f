"""Seeded inputs for the benchmark workloads.

Everything the program sees is generated here from the workload seed and
written as files; the same seed gives byte-identical files.  Each generated
case also carries its ground truth, which the oracles in ``oracles.py`` use
and the program never sees.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Regular series in the screen corpus, with stratified log-uniform lengths.
SCREEN_SERIES = 1000
MIN_LENGTH, MAX_LENGTH = 10, 5000
#: Series longer than the 5000-difference limit; the program must refuse them.
LONG_LENGTHS = (5002, 5600, 6100, 6800, 7400, 8000)
#: Kind mix of the regular series (fixed counts, shuffled per seed).
KIND_COUNTS = {"gaussian": 450, "heavy": 250, "drift": 250, "ramp": 50}
#: File formats of the non-ramp regular series (fixed counts, shuffled).
#: A BOM in front of a single-column file is where today's loader drops the
#: first row, so ``bom-single`` is the count of expected mangled series.
FORMAT_COUNTS = {
    "single": 380,
    "labeled": 285,
    "crlf-single": 95,
    "crlf-labeled": 95,
    "bom-single": 48,
    "bom-labeled": 47,
}
#: Files ``python -m markovband check`` runs on as a subprocess (corpus order).
SCREEN_CLI_FILES = 13

#: Calibration configurations, cycled in this order (walk length, rule).
CALIBRATE_CONFIGS = (
    (20, "paper-threshold"),
    (50, "p-value"),
    (200, "paper-threshold"),
    (20, "p-value"),
    (50, "paper-threshold"),
    (200, "p-value"),
)
CALIBRATE_TRIALS = 2000
HORIZON = 12
SIGMA = 1.0
P_LEVEL = 0.05

SAMPLE_PATHS = 1_000_000
SAMPLE_LENGTH = 120
SAMPLE_MONTHS = 24

#: Small fixed inputs for timing a layer that a workload never calls.
PROBE_LENGTH = 500

EVENT_FIELDS = ("delays", "cancellations", "diversions", "air_turnbacks", "spares")


@dataclass
class SeriesCase:
    """One screen-corpus file and what a correct program does with it.

    ``expect`` is ``ok`` (parsed exactly and checked) or one of the named
    refusals: ``format`` (SeriesFormatError), ``degenerate``
    (DegenerateSeriesError) or ``long`` (more than 5000 differences).
    """

    path: str
    kind: str
    fmt: str
    expect: str
    values: list[float] | None = None


@dataclass
class Inputs:
    workload: str
    seed: int
    cases: list[SeriesCase] = field(default_factory=list)
    fixtures: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _write(path: Path, data: bytes) -> None:
    """Write an input file and flush it to disk, so that no writeback of the
    inputs competes with the measurement."""
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _fmt(values) -> list[str]:
    return [f"{v:.6f}" for v in values]


def _walk(rng, length: int, steps) -> list[str]:
    x0 = rng.uniform(100.0, 1000.0)
    values = np.concatenate([[x0], x0 + np.cumsum(steps)])
    assert values.size == length
    return _fmt(values)


def _series_text(cells: list[str], fmt: str) -> bytes:
    newline = "\r\n" if fmt.startswith("crlf") else "\n"
    if fmt.endswith("labeled"):
        rows = ["month,value"] + [f"m{j + 1:05d},{c}" for j, c in enumerate(cells)]
    else:
        rows = cells
    data = (newline.join(rows) + newline).encode("utf-8")
    return b"\xef\xbb\xbf" + data if fmt.startswith("bom") else data


def _regular_cells(rng, kind: str, length: int) -> list[str]:
    sigma = rng.uniform(0.5, 20.0)
    n = length - 1
    if kind == "gaussian":
        return _walk(rng, length, rng.normal(0.0, sigma, n))
    if kind == "heavy":
        return _walk(rng, length, sigma * rng.standard_t(2, n))
    if kind == "drift":
        mu = 0.5 * sigma * rng.choice((-1.0, 1.0))
        return _walk(rng, length, rng.normal(mu, sigma, n))
    if kind == "ramp":
        start = int(rng.integers(0, 1000))
        step = int(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)))
        return [f"{start + step * j}.0" for j in range(length)]
    raise ValueError(kind)


def _malformed(rng) -> list[tuple[str, bytes]]:
    """Files every loader must refuse with SeriesFormatError."""
    cells = _walk(rng, 60, rng.normal(0.0, 3.0, 59))
    ragged = _series_text(cells, "labeled").decode().splitlines()
    ragged[17] = cells[16]
    wide = _series_text(cells, "labeled").decode().splitlines()
    wide[23] += ",extra"
    return [
        ("non-numeric", _series_text(cells[:20] + ["n/a"] + cells[21:], "single")),
        ("nan", _series_text(cells[:9] + ["nan"] + cells[10:], "single")),
        ("inf", _series_text(cells[:30] + ["inf"] + cells[31:], "labeled")),
        ("ragged", ("\n".join(ragged) + "\n").encode()),
        ("wide", ("\n".join(wide) + "\n").encode()),
        ("empty", b""),
        ("header-only", b"value\n"),
        ("one-row", cells[0].encode() + b"\n"),
        ("bad-utf8", b"1.0\n\xff\xfe2.0\n3.0\n4.0\n"),
        ("text-values", _series_text(["high", "low"] * 10, "labeled")),
    ]


def make_screen(seed: int, work: Path) -> Inputs:
    rng = _rng(seed, 1)
    u = (np.arange(SCREEN_SERIES) + rng.random(SCREEN_SERIES)) / SCREEN_SERIES
    lengths = np.rint(
        np.exp(np.log(MIN_LENGTH) + u * np.log(MAX_LENGTH / MIN_LENGTH))
    ).astype(int)
    lengths = rng.permutation(lengths)
    kinds = rng.permutation([k for k, c in KIND_COUNTS.items() for _ in range(c)])
    formats = iter(rng.permutation([f for f, c in FORMAT_COUNTS.items() for _ in range(c)]))

    specs = []  # (kind, fmt, expect, cells or raw bytes)
    for j, (kind, length) in enumerate(zip(kinds, lengths)):
        if kind == "ramp":
            fmt, expect = ("single", "labeled")[j % 2], "degenerate"
        else:
            fmt, expect = str(next(formats)), "ok"
        specs.append((str(kind), fmt, expect, _regular_cells(rng, str(kind), int(length))))
    for length in LONG_LENGTHS:
        specs.append(("long", "single", "long", _regular_cells(rng, "gaussian", length)))
    for name, raw in _malformed(rng):
        specs.append(("malformed", name, "format", raw))

    inputs = Inputs("screen", seed)
    corpus = work / "corpus"
    corpus.mkdir()
    for i, idx in enumerate(rng.permutation(len(specs))):
        kind, fmt, expect, body = specs[idx]
        path = corpus / f"s{i:05d}.csv"
        if isinstance(body, bytes):
            _write(path, body)
            values = None
        else:
            _write(path, _series_text(body, fmt))
            values = [float(c) for c in body]
        inputs.cases.append(SeriesCase(str(path), kind, fmt, expect, values))
    return inputs


def make_calibrate(seed: int) -> Inputs:
    base = int(_rng(seed, 2).integers(1, 2**32))
    inputs = Inputs("calibrate", seed)
    inputs.fixtures = {"base_seed": base}
    return inputs


def calibrate_call(fixtures: dict, k: int) -> dict:
    """Arguments of the k-th calibration call (configs cycle, seeds advance)."""
    walk_length, rule = CALIBRATE_CONFIGS[k % len(CALIBRATE_CONFIGS)]
    return {
        "trials": CALIBRATE_TRIALS,
        "walk_length": walk_length,
        "sigma": SIGMA,
        "horizon": HORIZON,
        "p": P_LEVEL,
        "rule": rule,
        "seed": fixtures["base_seed"] + k,
    }


def _write_cost_fixtures(rng, work: Path, tag: str, length: int) -> tuple[dict, dict]:
    sigma = rng.uniform(5.0, 15.0)
    cells = _walk(rng, length, rng.normal(0.0, sigma, length - 1))
    months = [
        {
            "delays": int(rng.poisson(40)) + 1,
            "cancellations": int(rng.poisson(5)),
            "diversions": int(rng.poisson(2)),
            "air_turnbacks": int(rng.poisson(1)),
            "spares": int(rng.poisson(3)),
        }
        for _ in range(SAMPLE_MONTHS)
    ]
    rate_cells = {
        "delay": f"{rng.uniform(500, 2000):.2f}",
        "cancellation": f"{rng.uniform(10000, 60000):.2f}",
        "diversion": f"{rng.uniform(5000, 30000):.2f}",
        "air_turnback": f"{rng.uniform(5000, 30000):.2f}",
        "spare": f"{rng.uniform(1000, 8000):.2f}",
    }
    paths = {
        "series": work / f"{tag}-series.csv",
        "events": work / f"{tag}-events.csv",
        "rates": work / f"{tag}-rates.cfg",
    }
    _write(paths["series"], _series_text(cells, "labeled"))
    header = "month," + ",".join(EVENT_FIELDS)
    rows = [header] + [
        f"m{j + 1:03d}," + ",".join(str(m[f]) for f in EVENT_FIELDS)
        for j, m in enumerate(months)
    ]
    _write(paths["events"], ("\n".join(rows) + "\n").encode())
    _write(paths["rates"], ("# dollars per event\n" + "".join(
        f"{k} = {v}\n" for k, v in rate_cells.items())).encode())
    truth = {
        "values": [float(c) for c in cells],
        "months": months,
        "rates": {k: float(v) for k, v in rate_cells.items()},
    }
    return {k: str(v) for k, v in paths.items()}, truth


def make_sample(seed: int, work: Path) -> Inputs:
    rng = _rng(seed, 3)
    inputs = Inputs("sample", seed)
    inputs.fixtures, inputs.truth = _write_cost_fixtures(rng, work, "sample", SAMPLE_LENGTH)
    inputs.fixtures["base_seed"] = int(rng.integers(1, 2**32))
    return inputs


def sample_argv(fixtures: dict, k: int) -> list[str]:
    """CLI arguments of the k-th cost call (one new sampling seed per call)."""
    f = fixtures
    return [
        "cost",
        "--input", f["series"],
        "--events", f["events"],
        "--rates", f["rates"],
        "--horizon", str(HORIZON),
        "--sample", str(SAMPLE_PATHS),
        "--seed", str(f["base_seed"] + k),
    ]


def make_probe(seed: int, work: Path) -> dict:
    """Fixtures for timing layers the workload itself leaves idle."""
    rng = _rng(seed, 4)
    fixtures, _ = _write_cost_fixtures(rng, work, "probe", PROBE_LENGTH)
    return fixtures


def make(workload: str, seed: int, work: Path) -> Inputs:
    if workload == "screen":
        inputs = make_screen(seed, work)
    elif workload == "calibrate":
        inputs = make_calibrate(seed)
    else:
        inputs = make_sample(seed, work)
    inputs.fixtures["probe"] = make_probe(seed, work)
    return inputs
