"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.  Tolerances and time budgets are pinned here on purpose; loosening
them is a contract change, not a test fix.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entry_point import run_module
from oracles import mc_order_stat_weights

import markovband as mb

DATA = Path(__file__).parent / "data"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# 1 ---------------------------------------------------------------------
# The packaged Shapiro-Wilk weights must agree with a brute-force Monte
# Carlo estimate of V^-1 m / ||V^-1 m|| within 5e-3 for n in {3,4,5,10,20},
# and the n=3 vector must equal (-1/sqrt(2), 0, 1/sqrt(2)) within 1e-3.
# Budget: <= 5 min per oracle run, <= 1 s per packaged computation.

ORACLE_DRAWS = {3: 4_000_000, 4: 4_000_000, 5: 4_000_000, 10: 8_000_000, 20: 16_000_000}
ORACLE_SEED = 20240815


def test_c1_weights_match_monte_carlo_oracle():
    mb.sw_coefficients.cache_clear()
    details = []
    ok = True
    for n, draws in ORACLE_DRAWS.items():
        t0 = time.perf_counter()
        reference = mc_order_stat_weights(n, draws, seed=ORACLE_SEED)
        oracle_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        packaged = mb.sw_coefficients(n)
        package_time = time.perf_counter() - t0
        dev = float(np.max(np.abs(packaged - reference)))
        details.append(f"n={n} dev={dev:.1e}")
        ok &= dev <= 5e-3 and oracle_time <= 300.0 and package_time <= 1.0
    exact3 = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    dev3 = float(np.max(np.abs(mb.sw_coefficients(3) - exact3)))
    ok &= dev3 <= 1e-3
    _report(
        "C1 shapiro-wilk weights vs monte-carlo oracle",
        ok,
        ", ".join(details) + f", n=3 closed-form dev={dev3:.1e}",
    )


# 2 ---------------------------------------------------------------------
# Paper-threshold rule at p=0.05: W=0.90 is accepted, W=0.8999 is not,
# with the threshold 1-2p landing exactly on 0.9.


def test_c2_paper_threshold_boundary_is_exact():
    accept = mb.sw_decide(0.90, n=50, p=0.05, rule=mb.RULE_PAPER_THRESHOLD)
    reject = mb.sw_decide(0.8999, n=50, p=0.05, rule=mb.RULE_PAPER_THRESHOLD)
    ok = (
        accept.normal is True
        and reject.normal is False
        and accept.threshold == 0.9
        and reject.threshold == 0.9
    )
    _report("C2 paper-threshold boundary W=0.90 vs 0.8999", ok,
            f"threshold={accept.threshold!r}")


# 3 ---------------------------------------------------------------------
# 2000 seeded true random walks of length 50 under the p-value rule at
# p=0.05 are accepted at a rate in [0.93, 0.97].  Budget: 30 s.


def test_c3_pvalue_rule_acceptance_rate_on_true_walks():
    t0 = time.perf_counter()
    report = mb.run_calibration(
        trials=2000, walk_length=50, sigma=1.0, horizon=1,
        p=0.05, rule=mb.RULE_P_VALUE, seed=mb.DEFAULT_SEED,
    )
    elapsed = time.perf_counter() - t0
    rate = report.markov_acceptance_rate
    ok = 0.93 <= rate <= 0.97 and elapsed <= 30.0
    _report("C3 acceptance rate on 2000 true walks (p-value rule)", ok,
            f"rate={rate:.4f}, {elapsed:.1f}s")


# 4 ---------------------------------------------------------------------
# 1e5 simulated paths with sigma=1: the sample variance at steps 1, 4, 9
# is within 3% of k.  Budget: 10 s.


def test_c4_path_variance_grows_linearly():
    t0 = time.perf_counter()
    paths = mb.sample_paths(0.0, 1.0, 9, 100_000, seed=mb.DEFAULT_SEED)
    elapsed = time.perf_counter() - t0
    devs = {}
    for k in (1, 4, 9):
        var = float(paths[:, k - 1].var(ddof=1))
        devs[k] = abs(var - k) / k
    ok = all(d <= 0.03 for d in devs.values()) and elapsed <= 10.0
    _report("C4 simulated path variance ~ k sigma^2", ok,
            ", ".join(f"k={k} rel-dev={d:.4f}" for k, d in devs.items())
            + f", {elapsed:.1f}s")


# 5 ---------------------------------------------------------------------
# 1e4 calibration trials: per-step band coverage starts in [0.66, 0.70]
# and stays flat within +/-0.02 across the horizon.  Budget: 60 s.


def test_c5_band_coverage_is_two_thirds_and_flat():
    t0 = time.perf_counter()
    report = mb.run_calibration(
        trials=10_000, walk_length=50, sigma=1.0, horizon=12,
        seed=mb.DEFAULT_SEED,
    )
    elapsed = time.perf_counter() - t0
    cov = report.coverage_per_step
    spread = max(abs(c - cov[0]) for c in cov)
    ok = 0.66 <= cov[0] <= 0.70 and spread <= 0.02 and elapsed <= 60.0
    _report("C5 empirical band coverage per step", ok,
            f"cov[1]={cov[0]:.4f}, max drift={spread:.4f}, {elapsed:.1f}s")


# 6 ---------------------------------------------------------------------
# Band construction: x0=10, sigma=2, H=4 gives endpoints 10 -/+ 2 sqrt(k)
# to 1e-12 relative, and the sqrt(k) law holds for H=1..100.


def test_c6_band_endpoints_follow_square_root_law():
    b = mb.make_band(10.0, 2.0, 4)
    k = np.arange(1.0, 5.0)
    lo_dev = np.max(np.abs(b.lower - (10.0 - 2.0 * np.sqrt(k))) / np.abs(b.lower))
    hi_dev = np.max(np.abs(b.upper - (10.0 + 2.0 * np.sqrt(k))) / np.abs(b.upper))
    big = mb.make_band(10.0, 2.0, 100)
    kk = np.arange(1.0, 101.0)
    law_dev = np.max(
        np.abs((big.upper - big.x0) - 2.0 * np.sqrt(kk)) / (2.0 * np.sqrt(kk))
    )
    ok = lo_dev <= 1e-12 and hi_dev <= 1e-12 and law_dev <= 1e-12
    ok &= bool(np.all(np.diff(big.upper - big.x0) > 0.0))
    _report("C6 band endpoints 10 -/+ 2 sqrt(k)", ok,
            f"max rel dev lower={lo_dev:.1e}, upper={hi_dev:.1e}, "
            f"law(H=100)={law_dev:.1e}")


# 7 ---------------------------------------------------------------------
# Worked cost example, exact: events (2,1,0,1,3) with rates
# (10000, 50000, 0, 20000, 5000) give ADC=22500, ASC=3750, and the k=1
# cost band [210000, 315000].


def test_c7_worked_cost_example_is_exact():
    rates = mb.CostRates(delay=10_000.0, cancellation=50_000.0, diversion=0.0,
                         air_turnback=20_000.0, spare=5_000.0)
    month = mb.MonthlyEvents(delays=2, cancellations=1, diversions=0,
                             air_turnbacks=1, spares=3)
    summary = mb.summarize_costs([month], rates)
    cb = mb.cost_band(mb.make_band(10.0, 2.0, 4), summary)
    ok = (
        summary.adc == 22_500.0
        and summary.asc == 3_750.0
        and summary.per_interruption == 26_250.0
        and cb.lower[0] == 210_000.0
        and cb.upper[0] == 315_000.0
    )
    _report("C7 worked cost example (ADC/ASC/band k=1)", ok,
            f"adc={summary.adc}, asc={summary.asc}, "
            f"band=[{cb.lower[0]}, {cb.upper[0]}]")


# 8 ---------------------------------------------------------------------
# Determinism: the same seed produces byte-identical output, both through
# the library and through the CLI.  Budget: 60 s.


def test_c8_same_seed_is_byte_identical():
    t0 = time.perf_counter()
    lib_ok = np.array_equal(
        mb.sample_paths(1.0, 2.0, 8, 50_000, seed=mb.DEFAULT_SEED),
        mb.sample_paths(1.0, 2.0, 8, 50_000, seed=mb.DEFAULT_SEED),
    )
    lib_ok &= (
        mb.run_calibration(trials=200, walk_length=20, horizon=3, seed=5)
        == mb.run_calibration(trials=200, walk_length=20, horizon=3, seed=5)
    )
    sim_argv = [
        "simulate", "--trials", "300", "--length", "30", "--horizon", "6",
        "--seed", str(mb.DEFAULT_SEED),
    ]
    cost_argv = [
        "cost", "--input", str(DATA / "gaussian_walk.csv"),
        "--events", str(DATA / "events.csv"),
        "--rates", str(DATA / "rates.cfg"),
        "--sample", "5000", "--seed", "17",
    ]
    cli_ok = True
    for argv in (sim_argv, cost_argv):
        first, second = run_module(*argv), run_module(*argv)
        cli_ok &= first.returncode == 0 and first.stdout == second.stdout
    elapsed = time.perf_counter() - t0
    ok = bool(lib_ok) and cli_ok and elapsed <= 60.0
    _report("C8 seeded runs are byte-identical", ok,
            f"library={bool(lib_ok)}, cli={cli_ok}, {elapsed:.1f}s")


# 9 ---------------------------------------------------------------------
# Property suites, each >= 100 randomized cases: W is affine-invariant to
# 1e-9 relative; differencing is translation-invariant bitwise (on a
# dyadic grid where the shifts are exact); CSV round-trips preserve values
# to 1e-9 relative; bands are symmetric bitwise.  Budget: 30 s.

_PROPERTY_CASES = 120
_prop_settings = settings(max_examples=_PROPERTY_CASES, deadline=None,
                          derandomize=True)

sample_st = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
    min_size=10, max_size=60,
).filter(lambda v: max(v) - min(v) > 1.0)

dyadic = st.integers(min_value=-(2**30), max_value=2**30).map(lambda k: k / 2.0**20)


@given(sample_st,
       st.floats(min_value=1e-3, max_value=1e3),
       st.booleans(),
       st.floats(min_value=-1e4, max_value=1e4))
@_prop_settings
def _affine_invariance(values, scale, flip, shift):
    x = np.asarray(values)
    w1 = mb.sw_statistic(x)
    w2 = mb.sw_statistic(shift + (-scale if flip else scale) * x)
    assert w2 == pytest.approx(w1, rel=1e-9)


@given(st.lists(dyadic, min_size=2, max_size=50), dyadic)
@_prop_settings
def _translation_invariance(values, shift):
    base = mb.difference(mb.TimeSeries(values=values)).errors
    moved = mb.difference(mb.TimeSeries(values=np.asarray(values) + shift)).errors
    assert np.array_equal(base, moved)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                          width=64),
                min_size=2, max_size=50))
@_prop_settings
def _csv_round_trip(values):
    import io

    text = "\n".join(repr(v) for v in values) + "\n"
    loaded = mb.load_series(io.StringIO(text)).values
    np.testing.assert_allclose(loaded, np.asarray(values), rtol=1e-9, atol=0.0)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
       st.floats(min_value=0.0, max_value=1e3, allow_nan=False, width=64),
       st.integers(min_value=1, max_value=30))
@_prop_settings
def _band_symmetry(x0, sigma, horizon):
    b = mb.make_band(x0, sigma, horizon)
    assert np.array_equal(b.upper - b.x0, b.x0 - b.lower)


def test_c9_property_suites():
    t0 = time.perf_counter()
    _affine_invariance()
    _translation_invariance()
    _csv_round_trip()
    _band_symmetry()
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 30.0
    _report("C9 property suites (4 x >=100 cases)", ok,
            f"{4 * _PROPERTY_CASES} cases, {elapsed:.1f}s")
