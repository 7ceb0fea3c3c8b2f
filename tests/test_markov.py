import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from markovband.markov import MIN_CHECK_LENGTH, check_markov, check_rows
from markovband.rng import substream
from markovband.series import (
    DegenerateSeriesError,
    TimeSeries,
    difference,
    load_series,
)
from markovband.simulate import generate_walk
from markovband.swilk import RULE_P_VALUE, RULE_PAPER_THRESHOLD, sw_coefficients


def test_true_random_walk_is_accepted():
    walk = generate_walk(10.0, 2.0, 120, seed=20250501)
    verdict = check_markov(walk)
    assert verdict.is_markov
    assert verdict.n_errors == 119
    assert verdict.error_stddev == pytest.approx(2.0, rel=0.3)
    assert not verdict.drift_warning
    assert verdict.sw.w == verdict.sw.w  # finite
    assert verdict.sw.rule == "paper-threshold"


def test_skewed_increments_are_rejected_under_both_rules():
    steps = substream(7, 3).exponential(scale=2.0, size=59)
    values = np.concatenate([[10.0], 10.0 + np.cumsum(steps)])
    series = TimeSeries(values=values)
    assert not check_markov(series).is_markov
    assert not check_markov(series, rule=RULE_P_VALUE).is_markov


def test_verdict_mirrors_error_moments():
    walk = generate_walk(0.0, 1.0, 60, seed=11)
    es = difference(walk)
    verdict = check_markov(walk)
    assert verdict.error_mean == es.mean
    assert verdict.error_stddev == es.stddev
    assert verdict.n_errors == len(es)


def test_drifting_but_gaussian_series_passes_with_warning():
    # strong positive drift, tiny noise: differences are normal around 3.0
    noise = substream(5, 0).standard_normal(79) * 0.1
    values = np.concatenate([[0.0], np.cumsum(3.0 + noise)])
    verdict = check_markov(TimeSeries(values=values))
    assert verdict.is_markov  # normality holds; centering does not
    assert verdict.drift_warning
    assert verdict.error_mean == pytest.approx(3.0, abs=0.1)


def test_zero_mean_walk_has_no_drift_warning():
    verdict = check_markov(generate_walk(0.0, 1.0, 200, seed=99))
    assert not verdict.drift_warning


def test_ramp_raises_degenerate():
    with pytest.raises(DegenerateSeriesError, match="differences are equal"):
        check_markov(TimeSeries(values=np.arange(1.0, 6.0)))
    # a constant series: every difference is zero
    with pytest.raises(DegenerateSeriesError, match="differences are equal"):
        check_markov(TimeSeries(values=[1.0] * 5))


UNDERFLOWING = [0.0, 1e-320, 0.0, 2e-320, -1e-320, 0.0]


def test_an_underflowing_spread_is_refused_by_name():
    # the differences differ, but their squares underflow to a zero variance
    series = TimeSeries(values=UNDERFLOWING)
    assert len(set(difference(series).errors.tolist())) > 1
    with pytest.raises(DegenerateSeriesError, match="underflow") as exc:
        check_markov(series)
    assert "differences are equal" not in str(exc.value)
    assert "rescale" in str(exc.value)
    rows = np.array([np.arange(6.0), UNDERFLOWING])
    with pytest.raises(DegenerateSeriesError, match="differences are equal"):
        check_rows(rows)
    with pytest.raises(DegenerateSeriesError, match="underflow"):
        check_rows(rows[::-1])


def test_minimum_length_enforced():
    with pytest.raises(ValueError, match=str(MIN_CHECK_LENGTH)):
        check_markov(TimeSeries(values=[1.0, 2.0, 4.0]))
    # too short is refused by length before any spread is looked at: a
    # single difference, or three points whose spread underflows
    for values in ([1.0, 5.0], [0.0, 1e-320, 0.0]):
        with pytest.raises(ValueError, match="requires at least") as exc:
            check_markov(TimeSeries(values=values))
        assert not isinstance(exc.value, DegenerateSeriesError)
    # exactly MIN_CHECK_LENGTH observations (3 differences) is accepted
    verdict = check_markov(TimeSeries(values=[0.0, 1.0, -0.5, 0.7]))
    assert verdict.n_errors == 3


def test_significance_level_is_passed_through():
    walk = generate_walk(0.0, 1.0, 50, seed=4)
    verdict = check_markov(walk, p=0.01)
    assert verdict.sw.threshold == 1.0 - 2.0 * 0.01


def test_series_longer_than_the_check_range_is_refused_by_length():
    walk = generate_walk(0.0, 1.0, 5999, seed=2)
    with pytest.raises(ValueError) as exc:
        check_markov(walk)
    message = str(exc.value)
    assert "5999" in message
    assert "3 to 5000 differences" in message
    # 5001 observations (5000 differences) is the longest series checked
    assert check_markov(generate_walk(0.0, 1.0, 5001, seed=2)).n_errors == 5000


@pytest.mark.parametrize("values", [
    [1e308, -1e308] * 5,                 # a step overflows
    [0.0, 1e200, 0.0, -1e200] * 3,       # the steps fit, their variance does not
])
def test_overflowing_differences_are_named_without_warnings(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            check_markov(TimeSeries(values=values))


def _check_rows_cases():
    gen = substream(11, 0)
    yield gen.standard_normal((7, 30)).cumsum(axis=1)          # one block
    yield gen.standard_normal((2, 3, 12)).cumsum(axis=2)       # stacked blocks
    yield np.concatenate([[0.0], gen.exponential(size=39)]).cumsum()  # one row


@pytest.mark.parametrize("rule", [RULE_PAPER_THRESHOLD, RULE_P_VALUE])
@pytest.mark.parametrize("histories", list(_check_rows_cases()))
def test_check_rows_is_check_markov_on_each_row_bitwise(histories, rule):
    block = check_rows(histories, p=0.1, rule=rule)
    rows = histories.reshape(-1, histories.shape[-1])
    for i, row in enumerate(rows):
        one = check_markov(TimeSeries(values=row), p=0.1, rule=rule)
        assert np.ravel(block.is_markov)[i] == one.is_markov
        assert np.ravel(block.sw.w)[i] == one.sw.w
        assert np.ravel(block.error_mean)[i] == one.error_mean
        assert np.ravel(block.error_stddev)[i] == one.error_stddev
        assert np.ravel(block.drift_warning)[i] == one.drift_warning
        if rule == RULE_P_VALUE:
            assert np.ravel(block.sw.p_value)[i] == one.sw.p_value
        assert block.sw.threshold == one.sw.threshold
        assert block.n_errors == one.n_errors
    assert np.shape(block.is_markov) == histories.shape[:-1]


def test_check_markov_verdict_holds_python_scalars():
    verdict = check_markov(generate_walk(0.0, 1.0, 40, seed=3), rule=RULE_P_VALUE)
    for value in (verdict.is_markov, verdict.drift_warning):
        assert type(value) is bool
    for value in (verdict.error_mean, verdict.error_stddev, verdict.sw.w,
                  verdict.sw.p_value):
        assert type(value) is float


def test_check_rows_refuses_a_block_like_its_first_refused_row():
    rows = substream(12, 0).standard_normal((4, 10)).cumsum(axis=1)
    rows[2] = np.arange(10.0)            # a ramp: zero variance
    rows[3, 5] = np.inf                  # not a series at all
    with pytest.raises(DegenerateSeriesError, match="differences are equal"):
        check_rows(rows)
    rows[1, 4] = np.nan
    with pytest.raises(ValueError, match="series values must be finite"):
        check_rows(rows)


# Python-level wrappers (numpy's, and pathlib's read_bytes) whose ufunc,
# method or ``open`` call the one-series path makes instead, as (module
# basename, function name), under numpy's 1.x and 2.x module names.
WRAPPERS = {
    ("function_base", "diff"),
    ("_function_base_impl", "diff"),
    ("numeric", "flatnonzero"),
    ("numeric", "ones_like"),
    ("polynomial", "polyval"),
    ("_polynomial_impl", "polyval"),
    ("_methods", "_mean"),
    ("fromnumeric", "all"),
    ("fromnumeric", "any"),
    ("fromnumeric", "searchsorted"),
    ("fromnumeric", "ndim"),
    ("shape_base", "atleast_1d"),
    ("pathlib", "read_bytes"),
}


@pytest.mark.parametrize("rule", [RULE_PAPER_THRESHOLD, RULE_P_VALUE])
def test_one_series_check_enters_no_numpy_wrapper(tmp_path, rule):
    path = tmp_path / "walk.csv"
    walk = generate_walk(100.0, 2.0, 224, seed=5)
    path.write_text("".join(f"{v!r}\n" for v in walk.values.tolist()))
    sw_coefficients.cache_clear()  # the cold weights run too
    entered = set()

    def record(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((Path(code.co_filename).stem, code.co_name))

    sys.setprofile(record)
    try:
        check_markov(load_series(path), rule=rule)
    finally:
        sys.setprofile(None)
    assert {("series", "_split_plain"), ("swilk", "_upper_half_weights")} <= entered
    assert entered & WRAPPERS == set()
