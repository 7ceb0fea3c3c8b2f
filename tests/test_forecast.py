import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovband.cost import CostSummary, sample_cost_moments
from markovband.forecast import band, make_band, sample_paths, step_rows
from markovband.rng import BLOCK_PATHS
from markovband.markov import check_markov
from markovband.series import difference
from markovband.simulate import generate_walk

finite_x0 = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
sigma_st = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, width=64)
SUMMARY = CostSummary(adc=1.0, asc=0.5, months=1)


def test_worked_example_endpoints():
    b = make_band(10.0, 2.0, 4)
    # perfect squares hit exact floats; the rest are within an ulp
    assert b.lower[0] == 8.0 and b.upper[0] == 12.0
    assert b.lower[3] == 6.0 and b.upper[3] == 14.0
    expected_half = 2.0 * np.sqrt([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(b.half_widths(), expected_half, rtol=1e-12)


def test_band_is_exactly_symmetric_for_the_example():
    b = make_band(10.0, 2.0, 12)
    assert np.array_equal(b.upper - b.x0, b.x0 - b.lower)


@given(finite_x0, sigma_st, st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_band_symmetry_is_bitwise(x0, sigma, horizon):
    b = make_band(x0, sigma, horizon)
    assert np.array_equal(b.upper - b.x0, b.x0 - b.lower)
    assert np.array_equal(b.upper - b.lower, 2.0 * (b.upper - b.x0))


@given(finite_x0, sigma_st, st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_band_follows_square_root_law(x0, sigma, horizon):
    b = make_band(x0, sigma, horizon)
    k = np.arange(1, horizon + 1, dtype=float)
    # half-widths are snapped onto the float grid at the band edge, so they
    # match sqrt(k)*sigma to within one ulp of |x0| + width
    edge = abs(x0) + sigma * np.sqrt(horizon)
    np.testing.assert_allclose(
        b.half_widths(), np.sqrt(k) * sigma, rtol=1e-9, atol=2.0**-50 * edge
    )
    assert np.all(np.diff(b.half_widths()) > 0.0) or horizon == 1


def test_zero_sigma_gives_flat_band():
    b = make_band(5.0, 0.0, 6)
    assert np.all(b.lower == 5.0) and np.all(b.upper == 5.0)


def test_make_band_validation():
    with pytest.raises(ValueError):
        make_band(math.inf, 1.0, 3)
    with pytest.raises(ValueError):
        make_band(0.0, -1.0, 3)
    with pytest.raises(ValueError):
        make_band(0.0, 1.0, 0)


def test_band_arrays_are_frozen():
    b = make_band(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        b.upper[0] = 99.0


def test_step_rows_count_k_from_one_in_python_floats():
    rows = step_rows(lower=np.array([1.0, 0.5]), upper=np.array([3.0, 3.5]))
    assert rows == [{"k": 1, "lower": 1.0, "upper": 3.0},
                    {"k": 2, "lower": 0.5, "upper": 3.5}]
    assert [list(row) for row in rows] == [["k", "lower", "upper"]] * 2
    assert all(type(value) in (int, float) for row in rows for value in row.values())


def test_band_payload_rows_are_the_band_edges():
    b = make_band(10.0, 2.0, 3)
    payload = b.to_dict()
    assert list(payload) == ["x0", "sigma", "horizon", "bands"]
    assert payload["bands"] == step_rows(lower=b.lower, upper=b.upper)
    assert [row["lower"] for row in payload["bands"]] == b.lower.tolist()


def test_band_from_series_uses_last_value_and_the_verdicts_sigma():
    walk = generate_walk(10.0, 2.0, 80, seed=123)
    b = band(walk, 7, check_markov(walk))
    assert b.x0 == float(walk.values[-1])
    # the verdict's sigma-hat is the differences' sample stddev, to the bit
    assert b.sigma == difference(walk).stddev
    assert b.horizon == 7


def test_band_needs_a_verdict():
    # sigma-hat has one source, the check's verdict: a band is never made
    # by differencing the series again
    walk = generate_walk(10.0, 2.0, 80, seed=123)
    with pytest.raises(TypeError):
        band(walk, 7)


# ------------------------------------------------------------------ paths


def test_sample_paths_shape_and_determinism():
    a = sample_paths(3.0, 0.5, 6, 500, seed=42)
    b = sample_paths(3.0, 0.5, 6, 500, seed=42)
    c = sample_paths(3.0, 0.5, 6, 500, seed=43)
    assert a.shape == (500, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_paths_prefix_stable_across_block_boundary():
    # rows are generated in fixed substream blocks, so a longer run must
    # reproduce a shorter run's rows bit for bit
    small = sample_paths(0.0, 1.0, 3, BLOCK_PATHS, seed=7)
    large = sample_paths(0.0, 1.0, 3, BLOCK_PATHS + 5, seed=7)
    assert np.array_equal(large[:BLOCK_PATHS], small)


def test_sample_paths_moments():
    paths = sample_paths(5.0, 2.0, 9, 20_000, seed=1)
    means = paths.mean(axis=0)
    np.testing.assert_allclose(means, 5.0, atol=0.15)
    for k in (1, 4, 9):
        var = paths[:, k - 1].var(ddof=1)
        assert var == pytest.approx(k * 4.0, rel=0.05)


def test_sample_paths_zero_sigma_is_constant():
    paths = sample_paths(2.5, 0.0, 4, 10, seed=0)
    assert np.all(paths == 2.5)


def test_sample_paths_validation():
    with pytest.raises(ValueError):
        sample_paths(0.0, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_paths(0.0, 1.0, 5, 0, seed=0)
    with pytest.raises(ValueError):
        sample_paths(0.0, -1.0, 5, 10, seed=0)
    with pytest.raises(ValueError):
        sample_paths(0.0, 1.0, 5, 10, seed=-1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_band(math.inf, 1.0, 3), "x0 must be finite, got inf"),
        (lambda: make_band(0.0, -1.0, 3),
         "sigma must be finite and >= 0, got -1.0"),
        (lambda: make_band(0.0, 1.0, 0), "horizon must be >= 1, got 0"),
        (lambda: sample_paths(math.nan, 1.0, 5, 10, seed=0),
         "x0 must be finite, got nan"),
        (lambda: sample_paths(0.0, math.inf, 5, 10, seed=0),
         "sigma must be finite and >= 0, got inf"),
        (lambda: sample_paths(0.0, 1.0, 0, 0, seed=0),
         "horizon must be >= 1, got 0"),
        (lambda: sample_paths(0.0, 1.0, 5, 0, seed=0), "count must be >= 1, got 0"),
        (lambda: generate_walk(0.0, -2.0, 10, seed=0),
         "sigma must be finite and >= 0, got -2.0"),
        (lambda: generate_walk(0.0, 1.0, 1, seed=0),
         "walk length must be >= 2, got 1"),
        (lambda: sample_cost_moments(0.0, 1.0, 0, SUMMARY, 10, seed=0),
         "horizon must be >= 1, got 0"),
        (lambda: sample_cost_moments(0.0, 1.0, 3, SUMMARY, 1, seed=0),
         "count must be >= 2, got 1"),
    ],
)
def test_walk_parameter_errors_name_the_parameter(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
