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
from typing import Sequence

import numpy as np

from .forecast import ForecastBand, check_walk, sample_paths, step_rows
from .rng import BLOCK_PATHS, substream
from .series import Source, read_csv, read_text

__all__ = [
    "CostRates",
    "MonthlyEvents",
    "CostSummary",
    "CostBand",
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
    """ADC and ASC averaged over the months that produced them; their sum is finite."""

    adc: float
    asc: float
    months: int

    def __post_init__(self) -> None:
        if not (self.adc >= 0.0 and self.asc >= 0.0):
            raise ValueError(f"ADC {self.adc!r} and ASC {self.asc!r} must be >= 0")
        if not math.isfinite(self.adc + self.asc):
            raise ValueError(
                f"the per-interruption cost ADC + ASC = {self.adc!r} + {self.asc!r} "
                "exceeds the float64 range; rescale the rates"
            )

    @property
    def per_interruption(self) -> float:
        """Combined dollar cost per schedule interruption (ADC + ASC)."""
        return self.adc + self.asc


def summarize_costs(months: Sequence[MonthlyEvents], rates: CostRates) -> CostSummary:
    """ADC and ASC from one pass over the months, each checked as it comes."""
    n = len(months)
    if n == 0:
        raise ValueError("need at least one month of event counts")
    direct_total = 0.0
    spare_total = 0.0
    for i, month in enumerate(months, start=1):
        if month.total_interruptions == 0:
            raise ValueError(
                f"month {i} has zero schedule interruptions; "
                "per-interruption cost is undefined"
            )
        try:
            direct = (
                rates.delay * month.delays
                + rates.cancellation * month.cancellations
                + rates.diversion * month.diversions
                + rates.air_turnback * month.air_turnbacks
            )
            direct_total += direct / month.total_interruptions
            spare_total += rates.spare * month.spares / month.total_interruptions
        except OverflowError:  # a count, or their total, is too large for a float
            raise ValueError(
                f"month {i} has event counts beyond the float64 range"
            ) from None
    return CostSummary(adc=direct_total / n, asc=spare_total / n, months=n)


@dataclass(frozen=True, eq=False)
class CostBand:
    """A prediction band converted to dollars: the result of ``cost``.

    ``lower[k-1]``/``upper[k-1]`` bound the step-k interruption cost; they
    are the count-band edges times ``summary.per_interruption``, so ordering
    is preserved and a zero rate collapses the band to zero.
    """

    summary: CostSummary
    lower: np.ndarray
    upper: np.ndarray

    def to_dict(self) -> dict:
        """The ``cost`` payload: ADC, ASC, their sum and one row a step."""
        return {
            "adc": self.summary.adc,
            "asc": self.summary.asc,
            "per_interruption": self.summary.per_interruption,
            "cost_bands": step_rows(lower=self.lower, upper=self.upper),
        }


def cost_band(band: ForecastBand, summary: CostSummary) -> CostBand:
    """Scale each band edge by the combined per-interruption cost.

    Edges whose dollar value is beyond the float64 range are refused with a
    ValueError.
    """
    rate = summary.per_interruption
    with np.errstate(over="ignore"):
        lower = band.lower * rate
        upper = band.upper * rate
    _check_dollars("the cost band edges", rate, lower, upper)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return CostBand(summary=summary, lower=lower, upper=upper)


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

    Returns ``(mean, std)``.  A count that fits in one block is summarised
    from its matrix, drawn once, when that matrix takes at most
    :data:`AHEAD_BYTES`: the moments are numpy's ``costs.mean(axis=0)`` and
    ``costs.std(axis=0, ddof=1)`` of ``costs = sample_costs(...)``.

    Any other count is streamed, in one pass of :func:`_column_sums` that
    regenerates the matrix piece by piece, in two piece buffers per pool
    thread whatever ``count``, ``horizon`` and the CPU count are.  Block b
    of the matrix is its rows ``b * BLOCK_PATHS`` on (stream b's paths),
    and a piece is ``PIECE_BYTES // (8 * horizon)`` of a block's paths.
    Three sums are taken of each step over each piece, pairwise: ``total``
    of the costs, ``S1`` of their offsets ``costs - K`` from the shift
    ``K = x0 * rate`` (the expected cost of every step) and ``S2`` of the
    offsets' squares.  They are added piece by piece into their block's,
    and the blocks' in block order, each from ``-0.0``, so they do not
    depend on the CPU count.  ``mean`` is ``total / count``.  ``std`` is
    the shifted-data sample stddev of Chan, Golub & LeVeque (1983),
    ``sqrt(max(S2 - S1 * (S1 / count), 0) / (count - 1))``.  Both may
    differ from numpy's in the last digits.

    ``count`` must be at least 2, the fewest paths a sample stddev needs.
    Costs, or moments of them, beyond the float64 range are refused with a
    ValueError.
    """
    check_walk(x0, sigma, ("horizon", horizon, 1), ("count", count, 2))
    rate = summary.per_interruption
    # Costs that overflow become inf or nan, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        if count <= BLOCK_PATHS and 8 * count * horizon <= AHEAD_BYTES:
            costs = sample_costs(x0, sigma, horizon, summary, count, seed)
            mean, std = costs.mean(axis=0), costs.std(axis=0, ddof=1)
        else:
            total, s1, s2 = _column_sums(x0, sigma, horizon, rate, count, seed)
            mean = total / count
            # S1 * (S1 / count) stays within S2's range.  The clamp makes a
            # variance rounded below zero 0, not a nan; an overflow's nan
            # still reaches the check.
            std = np.sqrt(np.maximum(s2 - s1 * (s1 / count), 0.0) / (count - 1))
    _check_dollars("the sampled costs", rate, mean, std)
    return mean, std


#: Bytes of one piece of a sample block: the paths drawn, walked and reduced at once.
PIECE_BYTES = 1 << 18
#: Bytes of the largest one-block cost matrix that is summarised whole.
AHEAD_BYTES = 8 << 20


def _worker_count() -> int:
    """Threads that fill sample blocks: the CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _column_sums(
    x0: float,
    sigma: float,
    horizon: int,
    rate: float,
    count: int,
    seed: int,
) -> np.ndarray:
    """Piecewise column sums of the ``count`` x ``horizon`` cost matrix, in one pass.

    Block b is rows ``b * BLOCK_PATHS`` on, at most ``BLOCK_PATHS`` of
    them: stream b's noise, walked from ``x0`` and scaled by ``rate`` with
    the ops of :func:`sample_costs`.  Returns a ``(3, horizon)`` array: the
    sums of the costs, of their offsets ``cost - x0 * rate`` and of the
    offsets' squares.

    A block is drawn in pieces of ``PIECE_BYTES // (8 * horizon)`` paths
    (the last piece of a block may be shorter), in order, from one
    ``substream(seed, b)`` generator, so the pieces are the block's bits.
    Each piece is drawn one path a row into a noise buffer and laid out
    one step a row in a piece buffer, and each step's sum over the piece
    is numpy's pairwise ``np.add.reduce(piece, axis=1)`` along a
    contiguous row.  The transposed noise is walked there a row at a time
    (row k plus row k - 1, as ``cumsum`` adds), which gives the bits of
    :func:`sample_costs`.  Each piece is reduced three times in place: as
    costs, after the shift is taken off, and after the offsets are
    squared.  The piece sums are added in piece order into the block's
    sums, and the blocks' in block order into the total, each from
    ``-0.0`` (which ``-0.0 + x`` leaves as ``x``, bit for bit).

    Each block is one task of a thread pool of at most one thread per CPU
    and one per block.  A task allocates its own two buffers and runs
    under the numpy error state of the calling thread; numpy releases the
    GIL while it draws and computes.  The calling thread adds the blocks'
    sums as they come, in block order.  A task's error stops the blocks
    not yet begun from drawing, and is raised once the pool has shut down.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    rows = max(1, min(BLOCK_PATHS, PIECE_BYTES // (8 * horizon)))
    blocks = -(-count // BLOCK_PATHS)
    shift = x0 * rate
    errors = np.geterr()  # a new thread starts with numpy's default error state
    failed = threading.Event()

    def block_sums(block: int) -> np.ndarray:
        sums = np.full((3, horizon), -0.0)  # costs, offsets, squares
        if failed.is_set():
            return sums
        try:
            with np.errstate(**errors):
                draw = substream(seed, block).standard_normal
                buf = np.empty((2, rows * horizon))  # noise, then piece
                costs, offsets, squares = sums
                start = block * BLOCK_PATHS
                end = min(start + BLOCK_PATHS, count)
                for first in range(start, end, rows):
                    n = min(rows, end - first)
                    noise = buf[0, : n * horizon].reshape(n, horizon)
                    piece = buf[1, : n * horizon].reshape(horizon, n)
                    draw(out=noise)
                    np.multiply(noise.T, sigma, out=piece)
                    for step, before in zip(piece[1:], piece):
                        step += before
                    piece += x0
                    piece *= rate
                    costs += np.add.reduce(piece, axis=1)
                    piece -= shift
                    offsets += np.add.reduce(piece, axis=1)
                    np.square(piece, out=piece)
                    squares += np.add.reduce(piece, axis=1)
        except BaseException:
            failed.set()
            raise
        return sums

    total = np.full((3, horizon), -0.0)
    with ThreadPoolExecutor(min(_worker_count(), blocks)) as pool:
        for sums in pool.map(block_sums, range(blocks)):
            total += sums
    return total


def load_events(source: Source) -> list[MonthlyEvents]:
    """Read monthly event counts from CSV (one row per month, in order).

    The header must contain the columns delays, cancellations, diversions,
    air_turnbacks, and spares, once each and in any order; extra columns
    are ignored.  Every month row must have as many fields as the header.
    """
    rows = read_csv(source)
    header = rows[0] if rows else []
    for name in _EVENT_FIELDS:
        if header.count(name) > 1:
            raise ValueError(f"duplicate column {name!r} in the events CSV header")
    missing = [name for name in _EVENT_FIELDS if name not in header]
    if missing:
        raise ValueError(
            f"events CSV is missing required columns: {', '.join(missing)}"
        )
    columns = [(name, header.index(name)) for name in _EVENT_FIELDS]
    months = []
    for i, row in enumerate((row for row in rows[1:] if row), start=1):
        if len(row) != len(header):
            raise ValueError(
                f"month row {i} has {len(row)} fields, expected {len(header)}"
            )
        counts = {}
        for name, j in columns:
            try:
                counts[name] = int(row[j])
            except ValueError:  # digits past int()'s limit are a huge count
                raise ValueError(
                    f"month {i} has event counts beyond the float64 range"
                    if row[j].strip().isdecimal()
                    else f"non-integer count {row[j]!r} for {name!r} in month row {i}"
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
