import itertools
import json

import numpy as np
import pytest
from scipy import stats

from markovband.rng import DEFAULT_SEED, substream
from markovband.series import DegenerateSeriesError, difference
from markovband.simulate import (
    BLOCK_BYTES,
    MIN_TRIALS,
    SimulationReport,
    expected_acceptance,
    generate_walk,
    run_calibration,
    t_coverage,
)
from markovband.swilk import RULE_P_VALUE, RULE_PAPER_THRESHOLD, RULES
from oracles import reference_calibration

REPORT_FIELDS = [
    "trials",
    "walk_length",
    "horizon",
    "true_sigma",
    "markov_acceptance_rate",
    "coverage_per_step",
    "sigma_hat_mean",
    "sigma_hat_rel_error",
]


def test_generate_walk_shape_and_start():
    walk = generate_walk(10.0, 2.0, 50, seed=1)
    assert len(walk) == 50
    assert walk.values[0] == 10.0


def test_generate_walk_is_deterministic():
    a = generate_walk(0.0, 1.0, 30, seed=5)
    b = generate_walk(0.0, 1.0, 30, seed=5)
    c = generate_walk(0.0, 1.0, 30, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_generate_walk_differences_recover_the_noise():
    sigma, length, seed = 1.7, 200, 31337
    walk = generate_walk(4.0, sigma, length, seed=seed)
    noise = substream(seed, 0).standard_normal(length - 1) * sigma
    np.testing.assert_allclose(
        difference(walk).errors, noise, rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
def test_generate_walk_is_x0_then_the_stream_0_walk_bitwise(seed):
    grid = itertools.product([0.0, -0.0, 10.0, -3.0], [0.0, 1e-3, 1.0, 2.5],
                             [5, 10, 50, 2000])
    for x0, sigma, length in grid:
        walk = generate_walk(x0, sigma, length, seed=seed)
        noise = substream(seed, 0).standard_normal(length - 1) * sigma
        expect = np.concatenate(([x0], x0 + np.cumsum(noise)))
        assert walk.values.tobytes() == expect.tobytes(), (x0, sigma, length)


def test_generate_walk_sigma_estimate_is_consistent():
    walk = generate_walk(0.0, 3.0, 2000, seed=8)
    assert difference(walk).stddev == pytest.approx(3.0, rel=0.05)


def test_generate_walk_zero_sigma_is_constant():
    walk = generate_walk(7.0, 0.0, 10, seed=0)
    assert np.all(walk.values == 7.0)


def test_generate_walk_validation():
    with pytest.raises(ValueError):
        generate_walk(0.0, 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        generate_walk(0.0, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        generate_walk(np.inf, 1.0, 10, seed=0)


def test_generate_walk_overflow_is_refused_without_warnings():
    # tier-1 turns a leaked RuntimeWarning into an error
    with pytest.raises(ValueError, match="finite"):
        generate_walk(0.0, 1e308, 20, seed=1)


# ------------------------------------------------------------- calibration


def test_calibration_report_values():
    report = run_calibration(trials=300, walk_length=40, sigma=1.0,
                             horizon=6, seed=2024)
    assert report.trials == 300
    assert report.walk_length == 40
    assert report.horizon == 6
    assert report.true_sigma == 1.0
    assert len(report.coverage_per_step) == 6
    # on data that truly follows the model, the check should almost always accept
    assert report.markov_acceptance_rate >= 0.9
    # one-sigma bands cover ~68% per step, far from "all of it"
    for cov in report.coverage_per_step:
        assert 0.5 < cov < 0.85
    assert report.sigma_hat_mean == pytest.approx(1.0, rel=0.05)
    assert report.sigma_hat_rel_error == pytest.approx(
        abs(report.sigma_hat_mean - 1.0), rel=1e-12
    )


def test_calibration_is_deterministic():
    a = run_calibration(trials=150, walk_length=20, sigma=2.0, horizon=4, seed=9)
    b = run_calibration(trials=150, walk_length=20, sigma=2.0, horizon=4, seed=9)
    c = run_calibration(trials=150, walk_length=20, sigma=2.0, horizon=4, seed=10)
    assert a == b
    assert a != c


def test_calibration_validation():
    with pytest.raises(ValueError):
        run_calibration(trials=99)
    with pytest.raises(ValueError):
        run_calibration(walk_length=9)
    with pytest.raises(ValueError):
        run_calibration(horizon=0)
    with pytest.raises(ValueError):
        run_calibration(sigma=0.0)


def test_report_serialization_round_trip():
    report = run_calibration(trials=120, walk_length=15, sigma=0.5,
                             horizon=2, seed=3)
    payload = json.loads(report.to_json())
    assert list(payload.keys()) == REPORT_FIELDS
    rebuilt = SimulationReport(
        **{**payload, "coverage_per_step": tuple(payload["coverage_per_step"])}
    )
    assert rebuilt == report


# ------------------------------------------------ batched against the loop


def _block_rows(walk_length, horizon):
    return max(1, BLOCK_BYTES // (8 * (walk_length + horizon)))


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("walk_length", [10, 11, 12, 50, 1001])
def test_calibration_equals_the_per_trial_loop(walk_length, seed, rule):
    horizon = 5
    block = _block_rows(walk_length, horizon)
    trials = max(MIN_TRIALS, block + 1 + block // 3)
    assert trials % block != 0
    args = dict(trials=trials, walk_length=walk_length, sigma=1.3,
                horizon=horizon, p=0.05, rule=rule, seed=seed)
    report = run_calibration(**args)
    reference = reference_calibration(**args)
    assert report == reference
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize("overrides", [
    dict(sigma=1e308),                     # the history overflows to inf
    dict(walk_length=5002),                # 5001 errors: past Royston's range
    dict(sigma=5e-324),                    # noise underflows: zero variance
    dict(sigma=5e-324, p=0.6),             # the refusal comes before the p check
    dict(sigma=1e308, rule="no-such-rule"),
])
def test_calibration_refuses_like_the_per_trial_loop(overrides):
    args = {**dict(trials=MIN_TRIALS, walk_length=20, sigma=1.0, horizon=3,
                   p=0.05, rule=RULE_PAPER_THRESHOLD, seed=4), **overrides}
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as loop:
            reference_calibration(**args)
        with pytest.raises(ValueError) as batched:
            run_calibration(**args)
    assert type(batched.value) is type(loop.value)
    assert str(batched.value) == str(loop.value)


def test_calibration_names_an_underflowing_spread():
    with pytest.raises(DegenerateSeriesError, match="underflow"):
        run_calibration(trials=MIN_TRIALS, walk_length=20, sigma=1e-162, seed=4)


@pytest.mark.parametrize("walk_length, table", [
    (10, 0.6534), (20, 0.6694), (50, 0.6777), (200, 0.6815),
])
def test_calibration_coverage_matches_exact_t_law(walk_length, table):
    # (x_{L-1+k} - x_{L-1}) / (sqrt(k) * sigma-hat) is Student-t with L-2
    # degrees of freedom, so each step covers with P(|T| <= 1) exactly.
    trials = 20_000
    expect = 2.0 * stats.t.cdf(1.0, walk_length - 2) - 1.0
    assert expect == pytest.approx(table, abs=5e-5)
    se = np.sqrt(expect * (1.0 - expect) / trials)
    report = run_calibration(trials=trials, walk_length=walk_length,
                             horizon=12, seed=DEFAULT_SEED)
    z = (np.asarray(report.coverage_per_step) - expect) / se
    assert np.max(np.abs(z)) < 4.0, (expect, report.coverage_per_step)


def test_t_coverage_closed_form_matches_scipy():
    for df in range(1, 300):
        expect = 2.0 * stats.t.cdf(1.0, df) - 1.0
        assert t_coverage(df) == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("walk_length, table", [
    (10, 0.7480), (12, 0.8151), (20, 0.9513), (50, 0.9995),
])
def test_expected_acceptance_of_the_paper_threshold(walk_length, table):
    # 1 - sw_pvalue(1 - 2p, L - 1): the paper's W >= 0.90 passes only about
    # three in four true 10-point walks
    accept = expected_acceptance(walk_length, 0.05, RULE_PAPER_THRESHOLD)
    assert accept == pytest.approx(table, abs=5e-5)
    assert expected_acceptance(walk_length, 0.05, RULE_P_VALUE) == 0.95


@pytest.mark.parametrize("p, rule, match", [
    (0.5, RULE_PAPER_THRESHOLD, "0 < p < 0.5"),
    (0.0, RULE_P_VALUE, "0 < p < 0.5"),
    (0.05, "no-such-rule", "unknown decision rule"),
])
def test_expected_acceptance_refuses_what_the_check_refuses(p, rule, match):
    with pytest.raises(ValueError, match=match):
        expected_acceptance(20, p, rule)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("walk_length", [10, 12, 20, 50])
def test_calibration_acceptance_matches_the_expected_rate(walk_length, rule):
    # Over seeds 0-37, 11 and 1729 the 320 binomial z-scores of this test
    # ran from -4.54 to +3.49.  The -4.54 is L = 12 under p-value: Royston's
    # p-value at n = 11 rejects about 5.2% of normal samples, not 5%, so
    # that rate sits about 1.2 standard errors below 0.95 on average.
    trials = 20_000
    expect = expected_acceptance(walk_length, 0.05, rule)
    se = np.sqrt(expect * (1.0 - expect) / trials)
    report = run_calibration(trials=trials, walk_length=walk_length, horizon=1,
                             rule=rule, seed=DEFAULT_SEED)
    z = (report.markov_acceptance_rate - expect) / se
    assert abs(z) < 5.0, (expect, report.markov_acceptance_rate)
