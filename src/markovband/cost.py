"""Cost impact of schedule interruptions.

Monthly operational event counts (delays, cancellations, diversions, air
turnbacks, plus spare-aircraft deployments) and per-event dollar rates are
reduced to two averages:

* ADC, the average direct cost per schedule interruption, and
* ASC, the average spare-aircraft cost per schedule interruption,

each computed month by month (cost of the month divided by that month's
interruption count) and then averaged across months.  Spare deployments are
costed but are not interruptions, so they never enter a denominator.  The
sum ADC + ASC converts an interruption-count forecast into dollars: a
prediction band scales edge by edge, and sampled paths scale path by path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .forecast import ForecastBand, check_walk, sample_paths, walk_in_place
from .rng import row_blocks, stream_filler
from .series import Source, read_csv, read_text

__all__ = [
    "CostRates",
    "MonthlyEvents",
    "CostSummary",
    "CostBand",
    "compute_adc",
    "compute_asc",
    "summarize_costs",
    "cost_band",
    "sample_costs",
    "sample_cost_moments",
    "load_events",
    "load_rates",
]

_EVENT_FIELDS = ("delays", "cancellations", "diversions", "air_turnbacks", "spares")
_RATE_FIELDS = ("delay", "cancellation", "diversion", "air_turnback", "spare")


@dataclass(frozen=True)
class CostRates:
    """Dollar cost per event, by event class."""

    delay: float
    cancellation: float
    diversion: float
    air_turnback: float
    spare: float

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"rate {name!r} must be finite and >= 0, got {value!r}"
                )


@dataclass(frozen=True)
class MonthlyEvents:
    """Event counts for one month.

    Delays, cancellations, diversions, and air turnbacks are schedule
    interruptions; spare-aircraft deployments are tracked for cost but do
    not count as interruptions.
    """

    delays: int
    cancellations: int
    diversions: int
    air_turnbacks: int
    spares: int

    def __post_init__(self) -> None:
        for name in _EVENT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"count {name!r} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"count {name!r} must be >= 0, got {value}")

    @property
    def total_interruptions(self) -> int:
        return self.delays + self.cancellations + self.diversions + self.air_turnbacks


@dataclass(frozen=True)
class CostSummary:
    """ADC and ASC averaged over the months that produced them."""

    adc: float
    asc: float
    months: int

    @property
    def per_interruption(self) -> float:
        """Combined dollar cost per schedule interruption (ADC + ASC)."""
        return self.adc + self.asc


def _averages(months: Sequence[MonthlyEvents], rates: CostRates) -> tuple[float, float]:
    """ADC and ASC from one pass over the months, each checked as it comes."""
    if len(months) == 0:
        raise ValueError("need at least one month of event counts")
    direct_total = 0.0
    spare_total = 0.0
    for i, month in enumerate(months, start=1):
        if month.total_interruptions == 0:
            raise ValueError(
                f"month {i} has zero schedule interruptions; "
                "per-interruption cost is undefined"
            )
        direct = (
            rates.delay * month.delays
            + rates.cancellation * month.cancellations
            + rates.diversion * month.diversions
            + rates.air_turnback * month.air_turnbacks
        )
        direct_total += direct / month.total_interruptions
        spare_total += rates.spare * month.spares / month.total_interruptions
    return direct_total / len(months), spare_total / len(months)


def compute_adc(months: Sequence[MonthlyEvents], rates: CostRates) -> float:
    """Average direct cost per schedule interruption across months."""
    return _averages(months, rates)[0]


def compute_asc(months: Sequence[MonthlyEvents], rates: CostRates) -> float:
    """Average spare-aircraft cost per schedule interruption across months."""
    return _averages(months, rates)[1]


def summarize_costs(months: Sequence[MonthlyEvents], rates: CostRates) -> CostSummary:
    adc, asc = _averages(months, rates)
    return CostSummary(adc=adc, asc=asc, months=len(months))


@dataclass(frozen=True, eq=False)
class CostBand:
    """A prediction band converted to dollars.

    ``lower[k-1]``/``upper[k-1]`` bound the step-k interruption cost; they
    are the count-band edges times ``per_interruption``, so ordering is
    preserved and a zero rate collapses the band to zero.
    """

    horizon: int
    per_interruption: float
    center: float
    lower: np.ndarray
    upper: np.ndarray


def cost_band(band: ForecastBand, summary: CostSummary) -> CostBand:
    """Scale each band edge by the combined per-interruption cost.

    Edges whose dollar value is beyond the float64 range are refused with a
    ValueError.
    """
    rate = summary.per_interruption
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"per-interruption cost must be finite and >= 0, got {rate!r}")
    with np.errstate(over="ignore"):
        lower = band.lower * rate
        upper = band.upper * rate
    _check_dollars("the cost band edges", rate, lower, upper)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return CostBand(
        horizon=band.horizon,
        per_interruption=rate,
        center=band.x0 * rate,
        lower=lower,
        upper=upper,
    )


def _check_dollars(what: str, rate: float, *values: np.ndarray) -> None:
    """Refuse, naming ``what``, dollar values that left the float64 range."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(
            f"{what} exceed the float64 range at {rate!r} dollars per "
            "interruption; rescale the rates or the series"
        )


def sample_costs(
    x0: float,
    sigma: float,
    horizon: int,
    summary: CostSummary,
    count: int,
    seed: int,
) -> np.ndarray:
    """Simulated step-by-step interruption costs for ``count`` paths.

    Identical to :func:`~markovband.forecast.sample_paths` followed by
    elementwise multiplication with ``summary.per_interruption`` -- the cost
    paths are the count paths in dollars, draw for draw.
    """
    costs = sample_paths(x0, sigma, horizon, count, seed)
    costs *= summary.per_interruption
    return costs


def sample_cost_moments(
    x0: float,
    sigma: float,
    horizon: int,
    summary: CostSummary,
    count: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean and sample stddev of :func:`sample_costs`, without its matrix.

    Returns ``(mean, std)``, bitwise ``costs.mean(axis=0)`` and
    ``costs.std(axis=0, ddof=1)`` of ``costs = sample_costs(...)``.  Two
    passes regenerate the matrix's substream blocks on worker threads, one
    to sum the costs and one to sum their squared deviations from the mean;
    the calling thread adds the blocks up in row order, as numpy reduces
    the whole matrix.  Memory is a few blocks, whatever ``count`` is.  A
    count that fits in one block is summarised from its matrix, drawn once,
    and so is a horizon of 1, whose matrix is one float per path.
    ``count`` must be at least 2, the fewest paths a sample stddev needs.
    Costs, or moments of them, beyond the float64 range are refused with a
    ValueError.
    """
    check_walk(x0, sigma, ("horizon", horizon, 1), ("count", count, 2))
    rate = summary.per_interruption
    blocks = row_blocks(count)

    def fill_costs(fill, block: int, rows: np.ndarray) -> None:
        fill(block, rows)
        walk_in_place(rows, x0, sigma)
        rows *= rate

    def fill_deviations(fill, block: int, rows: np.ndarray) -> None:
        fill_costs(fill, block, rows)
        rows -= mean
        np.square(rows, out=rows)

    # Costs that overflow become inf or nan, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(blocks) == 1 or horizon == 1:
            costs = sample_costs(x0, sigma, horizon, summary, count, seed)
            mean, std = costs.mean(axis=0), costs.std(axis=0, ddof=1)
        else:
            mean = _column_sums(fill_costs, seed, blocks, horizon) / count
            squares = _column_sums(fill_deviations, seed, blocks, horizon)
            std = np.sqrt(squares / (count - 1))
    _check_dollars("the sampled costs", rate, mean, std)
    return mean, std


def _worker_count() -> int:
    """Threads that fill sample blocks: the CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _column_sums(
    work: Callable, seed: int, blocks: list[slice], cols: int
) -> np.ndarray:
    """Column sums of the matrix whose row block b ``work`` writes, block by block.

    ``work(fill, b, rows)`` overwrites ``rows`` with block b of the matrix,
    drawing from the :func:`~markovband.rng.stream_filler` ``fill``.  The
    result is bitwise ``np.add.reduce(matrix, axis=0)`` for ``cols >= 2``:
    numpy adds the rows of such a matrix one after another, so the running
    sums go in a carry row above each block and the block is reduced with
    them.  (A single column is summed pairwise, which this order is not.)
    """
    bufs = _blocks_in_order(work, seed, blocks, cols)
    try:
        sums = np.add.reduce(next(bufs)[1:], axis=0)
        for buf in bufs:
            buf[0] = sums
            sums = np.add.reduce(buf, axis=0)
        return sums
    finally:
        bufs.close()  # cancels queued blocks and joins the worker threads


def _blocks_in_order(
    work: Callable, seed: int, blocks: list[slice], cols: int
) -> Iterator[np.ndarray]:
    """Yield, block by block in order, a buffer whose rows 1.. ``work`` filled.

    Each yielded buffer has ``1 + height`` rows for a block of ``height``
    rows; row 0 is free for the caller.  Blocks are filled on worker
    threads, one per CPU, each with its own filler; numpy releases the GIL
    while it draws and computes.  ``work`` runs under the numpy error state
    of the thread that started the iteration.  At most workers + 1 buffers
    exist, and a buffer is reused once the caller asks for the next block.
    """
    import itertools
    import threading
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_worker_count(), len(blocks))
    local = threading.local()
    errors = np.geterr()  # a new thread starts with numpy's default error state

    def run(block: int, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not hasattr(local, "fill"):
            local.fill = stream_filler(seed)
        rows = blocks[block]
        out = buf[: 1 + rows.stop - rows.start]
        with np.errstate(**errors):
            work(local.fill, block, out[1:])
        return buf, out

    todo = iter(range(len(blocks)))
    with ThreadPoolExecutor(workers) as pool:
        pending = deque(
            pool.submit(run, block, np.empty((1 + blocks[0].stop, cols)))
            for block in itertools.islice(todo, workers + 1)
        )
        try:
            while pending:
                buf, out = pending.popleft().result()
                yield out
                for block in itertools.islice(todo, 1):
                    pending.append(pool.submit(run, block, buf))
        finally:
            for future in pending:
                future.cancel()


def load_events(source: Source) -> list[MonthlyEvents]:
    """Read monthly event counts from CSV (one row per month, in order).

    The header must contain the columns delays, cancellations, diversions,
    air_turnbacks, and spares, in any order; extra columns are ignored.
    Every month row must have as many fields as the header.
    """
    rows = read_csv(source)
    header = rows[0] if rows else []
    missing = [name for name in _EVENT_FIELDS if name not in header]
    if missing:
        raise ValueError(
            f"events CSV is missing required columns: {', '.join(missing)}"
        )
    months = []
    for i, row in enumerate((row for row in rows[1:] if row), start=1):
        if len(row) != len(header):
            raise ValueError(
                f"month row {i} has {len(row)} fields, expected {len(header)}"
            )
        fields = dict(zip(header, row))
        counts = {}
        for name in _EVENT_FIELDS:
            cell = fields[name]
            try:
                counts[name] = int(cell)
            except ValueError:
                raise ValueError(
                    f"non-integer count {cell!r} for {name!r} in month row {i}"
                ) from None
        months.append(MonthlyEvents(**counts))
    if not months:
        raise ValueError("events CSV contains no data rows")
    return months


def load_rates(source: Source) -> CostRates:
    """Read per-event rates from a key=value file.

    Requires exactly the keys delay, cancellation, diversion, air_turnback,
    and spare; blank lines and '#' comments are ignored.
    """
    values: dict[str, float] = {}
    for lineno, line in enumerate(read_text(source).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"rates line {lineno} is not of the form key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _RATE_FIELDS:
            raise ValueError(f"unknown rate {key!r} on line {lineno}")
        if key in values:
            raise ValueError(f"duplicate rate {key!r} on line {lineno}")
        try:
            values[key] = float(raw.strip())
        except ValueError:
            raise ValueError(
                f"non-numeric rate value {raw.strip()!r} on line {lineno}"
            ) from None
    missing = [name for name in _RATE_FIELDS if name not in values]
    if missing:
        raise ValueError(f"rates file is missing: {', '.join(missing)}")
    return CostRates(**values)
