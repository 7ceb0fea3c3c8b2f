import dataclasses
import io
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  imported here, so no traced peak counts its import
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_adc, oracle_asc, reference_sample_moments

from markovband import cost
from markovband.cost import (
    CostRates,
    CostSummary,
    MonthlyEvents,
    cost_band,
    load_events,
    load_rates,
    sample_cost_moments,
    sample_costs,
    summarize_costs,
)
from markovband.forecast import make_band, sample_paths
from markovband.rng import BLOCK_PATHS
from markovband.series import SeriesFormatError

WORKED_RATES = CostRates(
    delay=10_000.0,
    cancellation=50_000.0,
    diversion=0.0,
    air_turnback=20_000.0,
    spare=5_000.0,
)
WORKED_MONTH = MonthlyEvents(
    delays=2, cancellations=1, diversions=0, air_turnbacks=1, spares=3
)

count_st = st.integers(min_value=0, max_value=40)
rate_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=64)


def months_strategy():
    month = st.builds(
        MonthlyEvents,
        delays=st.integers(min_value=1, max_value=40),  # keeps totals positive
        cancellations=count_st,
        diversions=count_st,
        air_turnbacks=count_st,
        spares=count_st,
    )
    return st.lists(month, min_size=1, max_size=24)


def test_worked_example_is_exact():
    assert WORKED_MONTH.total_interruptions == 4
    summary = summarize_costs([WORKED_MONTH], WORKED_RATES)
    assert summary.adc == 22_500.0
    assert summary.asc == 3_750.0
    assert summary.per_interruption == 26_250.0
    assert summary.months == 1


def test_spares_are_costed_but_not_interruptions():
    month = MonthlyEvents(delays=1, cancellations=0, diversions=0,
                          air_turnbacks=0, spares=50)
    assert month.total_interruptions == 1
    rates = CostRates(delay=0.0, cancellation=0.0, diversion=0.0,
                      air_turnback=0.0, spare=10.0)
    summary = summarize_costs([month], rates)
    assert summary.adc == 0.0
    assert summary.asc == 500.0


@given(months_strategy(),
       st.builds(CostRates, delay=rate_st, cancellation=rate_st,
                 diversion=rate_st, air_turnback=rate_st, spare=rate_st))
@settings(max_examples=150, deadline=None)
def test_adc_asc_match_oracle(months, rates):
    summary = summarize_costs(months, rates)
    assert summary.adc == pytest.approx(oracle_adc(months, rates), rel=1e-9)
    assert summary.asc == pytest.approx(oracle_asc(months, rates), rel=1e-9)


def test_zero_interruption_month_is_named():
    quiet = MonthlyEvents(delays=0, cancellations=0, diversions=0,
                          air_turnbacks=0, spares=2)
    with pytest.raises(ValueError, match="month 2"):
        summarize_costs([WORKED_MONTH, quiet], WORKED_RATES)


def test_empty_months_rejected():
    with pytest.raises(ValueError, match="at least one month"):
        summarize_costs([], WORKED_RATES)


def test_monthly_events_validation():
    with pytest.raises(ValueError):
        MonthlyEvents(delays=-1, cancellations=0, diversions=0,
                      air_turnbacks=0, spares=0)
    with pytest.raises(TypeError):
        MonthlyEvents(delays=1.5, cancellations=0, diversions=0,
                      air_turnbacks=0, spares=0)
    with pytest.raises(TypeError):
        MonthlyEvents(delays=True, cancellations=0, diversions=0,
                      air_turnbacks=0, spares=0)


def test_cost_rates_validation():
    with pytest.raises(ValueError):
        CostRates(delay=-1.0, cancellation=0.0, diversion=0.0,
                  air_turnback=0.0, spare=0.0)
    with pytest.raises(ValueError):
        CostRates(delay=np.inf, cancellation=0.0, diversion=0.0,
                  air_turnback=0.0, spare=0.0)


# -------------------------------------------------------------- cost bands


def test_worked_example_cost_band():
    b = make_band(10.0, 2.0, 4)
    summary = summarize_costs([WORKED_MONTH], WORKED_RATES)
    cb = cost_band(b, summary)
    assert [f.name for f in dataclasses.fields(cb)] == ["summary", "lower", "upper"]
    assert cb.summary.per_interruption == 26_250.0
    assert len(cb.lower) == 4
    assert cb.lower[0] == 210_000.0
    assert cb.upper[0] == 315_000.0
    assert cb.to_dict()["per_interruption"] == 26_250.0


def test_cost_band_payload_is_the_summary_and_one_row_a_step():
    b = make_band(-3.0, 1.7, 3)
    summary = CostSummary(adc=123.0, asc=45.5, months=3)
    cb = cost_band(b, summary)
    payload = cb.to_dict()
    assert list(payload) == ["adc", "asc", "per_interruption", "cost_bands"]
    assert payload["adc"] == 123.0 and payload["asc"] == 45.5
    assert payload["per_interruption"] == 168.5
    assert payload["cost_bands"] == [
        {"k": k, "lower": lo, "upper": hi}
        for k, (lo, hi) in enumerate(zip(cb.lower.tolist(), cb.upper.tolist()), 1)
    ]


def test_cost_band_scales_edges_bitwise():
    b = make_band(-3.0, 1.7, 9)
    summary = CostSummary(adc=123.0, asc=45.5, months=3)
    cb = cost_band(b, summary)
    assert np.array_equal(cb.lower, b.lower * summary.per_interruption)
    assert np.array_equal(cb.upper, b.upper * summary.per_interruption)
    assert np.all(cb.lower <= cb.upper)


def test_zero_rate_collapses_cost_band():
    b = make_band(10.0, 2.0, 5)
    cb = cost_band(b, CostSummary(adc=0.0, asc=0.0, months=1))
    assert np.all(cb.lower == 0.0) and np.all(cb.upper == 0.0)


def test_cost_band_refuses_edges_beyond_float64():
    summary = CostSummary(adc=1e307, asc=0.0, months=1)
    with pytest.raises(ValueError, match="cost band edges exceed the float64 range"):
        cost_band(make_band(100.0, 1.0, 3), summary)
    cost_band(make_band(1.0, 1.0, 3), summary)  # edges up to ~2.7e307 still fit


@pytest.mark.parametrize("count", [100, BLOCK_PATHS + 5])
@pytest.mark.parametrize("x0, rate", [(100.0, 1e307), (0.0, 1e300)])
def test_sample_cost_moments_refuse_costs_beyond_float64(count, x0, rate):
    # x0 = 100 puts every cost past the range; x0 = 0 leaves the costs and
    # their mean finite but not the squared deviations behind the stddev.
    summary = CostSummary(adc=rate, asc=0.0, months=1)
    with pytest.raises(ValueError, match="sampled costs exceed the float64 range"):
        moments(x0, 1.0, 2, summary, count, 1)


def test_sample_costs_are_scaled_paths_bitwise():
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    costs = sample_costs(10.0, 2.0, 6, summary, 400, seed=3)
    paths = sample_paths(10.0, 2.0, 6, 400, seed=3)
    assert np.array_equal(costs, paths * summary.per_interruption)


def moments(*args, timeout=60):
    """``sample_cost_moments(*args)`` on a thread of its own, or a failure.

    A worker that never returns would hang the suite: past ``timeout``
    seconds the test fails instead.
    Threads started by a daemon thread are daemons too, so a hung call
    does not keep the process alive.
    """
    outcome = []

    def call():
        try:
            outcome.append(sample_cost_moments(*args))
        except BaseException as exc:  # raised again on the test's thread
            outcome.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"sample_cost_moments{args[2:5]} still running after {timeout} s")
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def piece_rows(horizon):
    """Paths in one piece of a streamed block."""
    return max(1, min(BLOCK_PATHS, cost.PIECE_BYTES // (8 * horizon)))


def assert_sample_moments(x0, sigma, horizon, summary, count, seed):
    """The moments are numpy's where the matrix is summarised whole, and the
    piecewise reference's where it is streamed."""
    mean, std = moments(x0, sigma, horizon, summary, count, seed)
    costs = sample_costs(x0, sigma, horizon, summary, count, seed)
    if count <= BLOCK_PATHS and 8 * count * horizon <= cost.AHEAD_BYTES:
        expected_mean = costs.mean(axis=0)
        expected_std = costs.std(axis=0, ddof=1)
    else:
        shift = x0 * summary.per_interruption
        expected_mean, expected_std = reference_sample_moments(
            costs, shift, piece_rows(horizon)
        )
    assert mean.tobytes() == expected_mean.tobytes()  # bitwise, signed zeros too
    assert std.tobytes() == expected_std.tobytes()


@pytest.mark.parametrize("horizon", [1, 2, 3, 12])
@pytest.mark.parametrize(
    "count", [2, 400, BLOCK_PATHS, BLOCK_PATHS + 1, 3 * BLOCK_PATHS + 7]
)
def test_sample_cost_moments_are_the_matrix_moments_bitwise(horizon, count):
    summary = CostSummary(adc=22_500.0, asc=3_750.0, months=1)
    assert_sample_moments(10.0, 2.0, horizon, summary, count, seed=5)


@pytest.mark.parametrize("horizon", [1, 3])
def test_sample_cost_moments_keep_signed_zeros(horizon):
    # Zero rates turn the negative paths into -0.0 costs; sigma 0 makes all of them.
    summary = CostSummary(adc=0.0, asc=0.0, months=1)
    assert_sample_moments(-5.0, 1.0, horizon, summary, BLOCK_PATHS + 9, seed=2)
    assert_sample_moments(-5.0, 0.0, horizon, summary, 40, seed=2)


@pytest.mark.parametrize("workers", [1, 2, 3, 8, 16])
def test_sample_cost_moments_do_not_depend_on_worker_count(monkeypatch, workers):
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    count = 5 * BLOCK_PATHS + 3
    horizons = (1, 2, 12)
    expected = [moments(3.0, 0.5, horizon, summary, count, 11) for horizon in horizons]
    monkeypatch.setattr(cost, "_worker_count", lambda: workers)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
    try:
        got = [moments(3.0, 0.5, horizon, summary, count, 11) for horizon in horizons]
    finally:
        sys.setswitchinterval(interval)
    for (mean, std), (want_mean, want_std) in zip(got, expected):
        assert np.array_equal(mean, want_mean) and np.array_equal(std, want_std)
    assert threading.active_count() == threads


@pytest.mark.parametrize("horizon", [2, 3, 12])
@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("count", [BLOCK_PATHS + 1, 3 * BLOCK_PATHS + 7])
def test_sample_cost_moments_are_the_matrix_moments_across_pieces(
    monkeypatch, horizon, workers, count
):
    # 999-row pieces do not divide a block, the last piece of a block is
    # short, and the last block is shorter still.
    monkeypatch.setattr(cost, "PIECE_BYTES", 8 * horizon * 999)
    monkeypatch.setattr(cost, "_worker_count", lambda: workers)
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    assert_sample_moments(-1.0, 2.0, horizon, summary, count, seed=9)
    zero = CostSummary(adc=0.0, asc=0.0, months=1)  # -0.0 costs
    assert_sample_moments(-5.0, 1.0, horizon, zero, count, seed=2)


@pytest.mark.parametrize("count, horizon", [(2, 17), (400, 17), (BLOCK_PATHS, 100)])
def test_streamed_single_blocks_are_the_piecewise_moments(monkeypatch, count, horizon):
    monkeypatch.setattr(cost, "AHEAD_BYTES", 0)  # stream any matrix
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    assert_sample_moments(-1.0, 2.0, horizon, summary, count, seed=9)


def test_streamed_moments_at_long_horizons_are_the_piecewise_moments():
    # 100 step rows of 327-path pieces, over two blocks.
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    assert_sample_moments(-1.0, 2.0, 100, summary, BLOCK_PATHS + 1, seed=9)


def fsum_std(costs):
    """Per-column sample stddev from two passes of math.fsum, mean then squares."""
    count = len(costs)
    std = []
    for column in costs.T:
        mean = math.fsum(column) / count
        std.append(math.sqrt(math.fsum((column - mean) ** 2) / (count - 1)))
    return np.array(std)


@pytest.mark.parametrize(
    "x0, sigma, horizon, count",
    [
        (500.0, 7.0, 12, 300_000),
        (1e8, 0.5, 12, 300_000),  # an offset 2e8 stddevs wide must not cancel
        (500.0, 7.0, 1, 5 * BLOCK_PATHS + 11),
    ],
)
def test_streamed_stddev_is_accurate(x0, sigma, horizon, count):
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    _, std = moments(x0, sigma, horizon, summary, count, 3)
    costs = sample_costs(x0, sigma, horizon, summary, count, 3)
    np.testing.assert_allclose(std, fsum_std(costs), rtol=1e-13, atol=0)


@pytest.mark.parametrize("horizon", [12, 100])
def test_streamed_moments_match_the_walks_exact_moments(horizon):
    # Step k's cost is N(x0 * rate, k * (sigma * rate)**2).  Each step's mean
    # and stddev must lie within 4 standard errors of the exact values: a
    # summation fault that the piecewise reference shares fails here.
    x0, sigma, count = 40.0, 3.0, 400_000
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    rate = summary.per_interruption
    mean, std = moments(x0, sigma, horizon, summary, count, 21)
    exact_std = np.sqrt(np.arange(1, horizon + 1)) * sigma * rate
    assert np.all(np.abs(mean - x0 * rate) <= 4 * exact_std / math.sqrt(count))
    std_error = exact_std / math.sqrt(2 * (count - 1))
    assert np.all(np.abs(std - exact_std) <= 4 * std_error)


@pytest.mark.parametrize("horizon", [1, 3])
def test_streamed_constant_costs_have_a_zero_stddev(horizon):
    # sigma 0 makes every cost the shift itself; a zero variance is no overflow.
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    mean, std = moments(500.0, 0.0, horizon, summary, BLOCK_PATHS + 9, 4)
    assert mean.tobytes() == np.full(horizon, 875.0).tobytes()
    assert std.tobytes() == np.zeros(horizon).tobytes()


class ConstantNoise:
    """A ``substream`` stub whose every draw is 0.3."""

    def __init__(self, seed, stream):
        pass

    def standard_normal(self, out):
        out.fill(0.3)


def test_a_variance_rounded_below_zero_is_clamped_to_zero(monkeypatch):
    # Equal costs off the shift: S2 - S1 * (S1 / N) rounds to -7.3e-12 and
    # -1.5e-11 in the last two columns here, whose square root is a nan.
    monkeypatch.setattr(cost, "substream", ConstantNoise)
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    _, std = moments(500.0, 0.7, 3, summary, BLOCK_PATHS + 9, 0)
    assert std[1:].tobytes() == np.zeros(2).tobytes()
    assert 0.0 < std[0] < 1e-5  # 5.3e-09, the rounding of equal costs


def block_substream(draw):
    """A ``substream`` stub class that calls ``draw(block)`` on each draw of a
    block and fills the noise with the block's number."""

    class BlockNumbers:
        def __init__(self, seed, block):
            self.block = block

        def standard_normal(self, out):
            draw(self.block)
            out.fill(float(self.block))

    return BlockNumbers


def test_sample_cost_moments_raise_a_worker_error(monkeypatch):
    def fail_on_block_two(block):
        if block == 2:
            raise RuntimeError("block 2 failed")

    monkeypatch.setattr(cost, "substream", block_substream(fail_on_block_two))
    monkeypatch.setattr(cost, "_worker_count", lambda: 2)
    threads = threading.active_count()
    summary = CostSummary(adc=1.0, asc=0.0, months=1)
    with pytest.raises(RuntimeError, match="block 2 failed"):
        moments(0.0, 1.0, 4, summary, 6 * BLOCK_PATHS, 0)
    assert threading.active_count() == threads


def test_a_worker_error_stops_the_other_workers_taking_blocks(monkeypatch):
    # Three workers take blocks 0, 1 and 2 of six.  Blocks 1 and 2 are held
    # until block 0 has failed; blocks 3 to 5 then draw nothing.
    walked = set()
    failed = threading.Event()

    def fail_in_block_zero(block):
        walked.add(block)
        if block == 0:
            deadline = time.monotonic() + 10
            while not {1, 2} <= walked and time.monotonic() < deadline:
                time.sleep(0.001)
            failed.set()
            raise RuntimeError("block 0 failed")
        if not failed.is_set():
            failed.wait(10)
            time.sleep(0.2)  # for block 0's worker to record its error

    escaped = []  # errors that left a worker thread instead of the call
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    monkeypatch.setattr(cost, "substream", block_substream(fail_in_block_zero))
    monkeypatch.setattr(cost, "_worker_count", lambda: 3)
    threads = threading.active_count()
    summary = CostSummary(adc=1.0, asc=0.0, months=1)
    with pytest.raises(RuntimeError, match="^block 0 failed$"):
        moments(0.0, 1.0, 4, summary, 6 * BLOCK_PATHS, 0, timeout=30)
    assert walked == {0, 1, 2}
    assert escaped == []
    assert threading.active_count() == threads


def traced_peak(monkeypatch, workers, horizon, count):
    """tracemalloc peak of one sample_cost_moments call on ``workers`` threads."""
    monkeypatch.setattr(cost, "_worker_count", lambda: workers)
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    tracemalloc.start()
    try:
        moments(10.0, 2.0, horizon, summary, count, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def assert_two_pieces_per_worker(monkeypatch, workers, horizon, count):
    """The traced peak is two piece buffers per worker the call runs, and slack.

    A buffer is ``rows`` paths of ``horizon`` floats, about PIECE_BYTES:
    one holds the noise, the other the piece one step a row.  The slack,
    64 KiB a worker and 64 KiB more, is for each worker's generator and
    the call's small arrays.
    """
    used = min(workers, -(-count // BLOCK_PATHS))
    peak = traced_peak(monkeypatch, workers, horizon, count)
    assert peak <= used * 2 * piece_rows(horizon) * horizon * 8 + (1 + used) * 64 * 1024


def test_sample_cost_moments_memory_does_not_grow_with_count(monkeypatch):
    # The cost matrix would be 96 MB; a pool of pieces filled ahead of the
    # block being summed took 6.9 MiB here.
    assert_two_pieces_per_worker(monkeypatch, 2, 12, 1_000_000)


def test_sample_cost_moments_memory_does_not_grow_with_count_at_horizon_1(
    monkeypatch,
):
    # Summarising the 32 MB column whole took 61.0 MiB here.
    assert_two_pieces_per_worker(monkeypatch, 2, 1, 4_000_000)


def test_sample_cost_moments_memory_is_two_pieces_per_worker(monkeypatch):
    # Eight CPUs on nine blocks.
    assert_two_pieces_per_worker(monkeypatch, 8, 12, 9 * BLOCK_PATHS)


def test_sample_cost_moments_memory_does_not_grow_with_the_worker_count(monkeypatch):
    # A pool of 8 MiB a worker took 99 MB here at 16 workers, about the
    # 96 MB cost matrix itself, and a shared pool 19.5 MiB.
    assert_two_pieces_per_worker(monkeypatch, 16, 12, 1_000_000)


def test_sample_cost_moments_memory_does_not_grow_with_the_horizon(monkeypatch):
    # One block of 2**16 x 500 floats is 262 MB; two blocks take two workers.
    assert_two_pieces_per_worker(monkeypatch, 8, 500, BLOCK_PATHS + 1)


def test_a_single_block_past_the_ahead_budget_is_streamed(monkeypatch):
    # 2**16 x 100 floats is 52 MB; one worker streams it.
    assert_two_pieces_per_worker(monkeypatch, 8, 100, BLOCK_PATHS)


def test_sample_cost_moments_need_two_paths():
    summary = CostSummary(adc=1.5, asc=0.25, months=2)
    with pytest.raises(ValueError, match=r"^count must be >= 2, got 1$"):
        sample_cost_moments(10.0, 2.0, 3, summary, 1, seed=0)


# ----------------------------------------------------------------- loaders


EVENTS_CSV = """\
month,delays,cancellations,diversions,air_turnbacks,spares
jan,2,1,0,1,3
feb,1,0,0,0,0
"""


def test_load_events_parses_rows_in_order():
    months = load_events(io.StringIO(EVENTS_CSV))
    assert months[0] == WORKED_MONTH
    assert months[1].total_interruptions == 1


def test_load_events_accepts_any_column_order():
    text = "spares,delays,air_turnbacks,cancellations,diversions\n3,2,1,1,0\n"
    months = load_events(io.StringIO(text))
    assert months[0] == WORKED_MONTH


def test_load_events_missing_column():
    with pytest.raises(ValueError, match="missing required columns: spares"):
        load_events(io.StringIO("delays,cancellations,diversions,air_turnbacks\n1,0,0,0\n"))


def test_load_events_non_integer_names_row():
    text = EVENTS_CSV.replace("1,0,0,0,0", "1,0,x,0,0")
    with pytest.raises(ValueError, match="month row 2"):
        load_events(io.StringIO(text))


@pytest.mark.parametrize("row, fields", [("1,2,3,4,5,6", 6), ("1,2,3,4", 4)])
def test_load_events_refuses_a_ragged_month_row(row, fields):
    text = f"delays,cancellations,diversions,air_turnbacks,spares\n1,0,0,0,0\n{row}\n"
    with pytest.raises(
        ValueError, match=f"^month row 2 has {fields} fields, expected 5$"
    ):
        load_events(io.StringIO(text))


@pytest.mark.parametrize("extra", ["delays", "spares"])
def test_load_events_refuses_a_count_column_named_twice(extra):
    header = f"month,delays,cancellations,diversions,air_turnbacks,spares,{extra}"
    text = f"{header}\njan,1,0,0,0,0,5\n"
    with pytest.raises(
        ValueError, match=f"^duplicate column '{extra}' in the events CSV header$"
    ):
        load_events(io.StringIO(text))


def test_load_events_ignores_a_repeated_extra_column():
    text = "note,delays,cancellations,diversions,air_turnbacks,spares,note,,\n"
    months = load_events(io.StringIO(text + "a,2,1,0,1,3,b,,\n"))
    assert months == [WORKED_MONTH]


@pytest.mark.parametrize(
    "counts",
    [
        {"delays": 10**400},
        {"delays": 1, "spares": 10**400},
        {"delays": 10**308, "cancellations": 10**308},  # each fits, the total not
    ],
)
def test_event_counts_beyond_float64_are_refused_naming_the_month(counts):
    months = [WORKED_MONTH, dataclasses.replace(WORKED_MONTH, **counts)]
    with pytest.raises(
        ValueError, match="^month 2 has event counts beyond the float64 range$"
    ):
        summarize_costs(months, WORKED_RATES)


BEYOND = "exceeds the float64 range; rescale the rates$"


@pytest.mark.parametrize(
    "months, rates",
    [
        # the month averages add up past float64: ADC is inf
        ([MonthlyEvents(delays=1, cancellations=0, diversions=0,
                        air_turnbacks=0, spares=0)] * 2,
         dataclasses.replace(WORKED_RATES, delay=1e308)),
        # ADC and ASC fit, their sum does not
        ([MonthlyEvents(delays=1, cancellations=0, diversions=0,
                        air_turnbacks=0, spares=1)],
         dataclasses.replace(WORKED_RATES, delay=1e308, spare=1e308)),
    ],
    ids=["adc", "adc+asc"],
)
def test_summary_beyond_float64_is_refused_asking_to_rescale(months, rates):
    with pytest.raises(
        ValueError,
        match="^the per-interruption cost ADC \\+ ASC = .* " + BEYOND,
    ):
        summarize_costs(months, rates)


@pytest.mark.parametrize(
    "adc, asc, message",
    [
        (math.inf, 0.0, BEYOND),
        (0.0, math.inf, BEYOND),
        (1e308, 1e308, BEYOND),
        (-1.0, 0.0, "^ADC -1.0 and ASC 0.0 must be >= 0$"),
        (0.0, math.nan, "^ADC 0.0 and ASC nan must be >= 0$"),
    ],
    ids=["adc-inf", "asc-inf", "sum-inf", "negative", "nan"],
)
def test_cost_summary_refuses_costs_below_zero_or_beyond_float64(adc, asc, message):
    with pytest.raises(ValueError, match=message):
        CostSummary(adc=adc, asc=asc, months=1)
    CostSummary(adc=1e308, asc=7e307, months=1)  # the largest sums still fit


def test_load_events_skips_a_utf8_bom():
    months = load_events(io.BytesIO(b"\xef\xbb\xbf" + EVENTS_CSV.encode()))
    assert months[0] == WORKED_MONTH


def test_load_events_and_rates_name_invalid_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"delays\n\xff\n")
    for load in (load_events, load_rates):
        with pytest.raises(SeriesFormatError, match="not valid UTF-8"):
            load(path)


def test_load_events_empty():
    with pytest.raises(ValueError, match="no data rows"):
        load_events(io.StringIO("delays,cancellations,diversions,air_turnbacks,spares\n"))


RATES_TEXT = """\
# worked example
delay = 10000
cancellation = 50000
diversion = 0
air_turnback = 20000
spare = 5000  # per deployment
"""


def test_load_rates_with_comments():
    assert load_rates(io.StringIO(RATES_TEXT)) == WORKED_RATES


def test_load_rates_missing_key():
    with pytest.raises(ValueError, match="missing: spare"):
        load_rates(io.StringIO("delay=1\ncancellation=2\ndiversion=3\nair_turnback=4\n"))


def test_load_rates_unknown_key():
    with pytest.raises(ValueError, match="unknown rate 'fuel'"):
        load_rates(io.StringIO(RATES_TEXT + "fuel = 9\n"))


def test_load_rates_duplicate_key():
    with pytest.raises(ValueError, match="duplicate rate 'delay'"):
        load_rates(io.StringIO(RATES_TEXT + "delay = 1\n"))


def test_load_rates_bad_value():
    with pytest.raises(ValueError, match="non-numeric rate value"):
        load_rates(io.StringIO("delay = ten\ncancellation=0\ndiversion=0\nair_turnback=0\nspare=0\n"))


def test_load_rates_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        load_rates(io.StringIO("delay 10000\n"))


def test_fixture_files_load():
    from pathlib import Path

    data = Path(__file__).parent / "data"
    months = load_events(data / "events.csv")
    rates = load_rates(data / "rates.cfg")
    assert len(months) == 12
    assert rates == WORKED_RATES
    summary = summarize_costs(months, rates)
    assert summary.per_interruption > 0.0
