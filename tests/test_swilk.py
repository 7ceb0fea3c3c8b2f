import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import shapiro

from markovband.rng import substream
from markovband.swilk import (
    MAX_SAMPLE,
    RULE_P_VALUE,
    RULE_PAPER_THRESHOLD,
    InapplicableSampleError,
    sw_coefficients,
    sw_decide,
    sw_pvalue,
    sw_statistic,
    sw_test,
)
from oracles import reference_sw_pvalue, reference_sw_weights

# Frozen regression values for substream(8675309, 0).standard_normal(50).
REGRESSION_SEED = 8675309
REGRESSION_W = 0.9802108134227052
REGRESSION_P = 0.5608889187469658

# Classical published weight tables (4 decimal places); the polynomial
# approximation used here reproduces them to a few 1e-4.
TABLE_N5 = np.array([-0.6646, -0.2413, 0.0, 0.2413, 0.6646])
TABLE_N10 = np.array(
    [-0.5739, -0.3291, -0.2141, -0.1224, -0.0399,
     0.0399, 0.1224, 0.2141, 0.3291, 0.5739]
)


# ------------------------------------------------------------ coefficients


def test_weights_n3_closed_form():
    a = sw_coefficients(3)
    assert a[0] == -math.sqrt(0.5)
    assert a[1] == 0.0
    assert a[2] == math.sqrt(0.5)


def test_weights_match_published_tables():
    assert np.max(np.abs(sw_coefficients(5) - TABLE_N5)) < 1e-3
    assert np.max(np.abs(sw_coefficients(10) - TABLE_N10)) < 1e-3


@pytest.mark.parametrize(
    "n", list(range(3, 31)) + [50, 100, 500, 1000, 5000]
)
def test_weight_invariants(n):
    a = sw_coefficients(n)
    assert a.shape == (n,)
    # antisymmetry holds bitwise by construction
    assert np.array_equal(a, -a[::-1])
    if n % 2:
        assert a[n // 2] == 0.0
    assert abs(float(a @ a) - 1.0) < 1e-12
    assert abs(float(a.sum())) < 1e-12
    assert np.all(np.diff(a) > 0.0)  # strictly increasing


def test_weights_cached_and_frozen():
    first = sw_coefficients(17)
    assert sw_coefficients(17) is first
    with pytest.raises(ValueError):
        first[0] = 0.0


@pytest.mark.parametrize("n", [2, 5001, 0, -3])
def test_weights_reject_bad_sizes(n):
    with pytest.raises(ValueError):
        sw_coefficients(n)


def test_weights_reject_non_integer():
    with pytest.raises(TypeError):
        sw_coefficients(5.0)


# -------------------------------------------------------------- statistic


def test_statistic_of_evenly_spaced_triplet_is_one():
    # for n=3 the weight vector is parallel to any arithmetic progression
    assert sw_statistic([1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)


def test_statistic_regression_value():
    x = substream(REGRESSION_SEED, 0).standard_normal(50)
    assert sw_statistic(x) == pytest.approx(REGRESSION_W, abs=1e-15)


def test_statistic_matches_scipy():
    gen = np.random.default_rng(20240817)
    for n in (3, 4, 5, 6, 8, 11, 12, 25, 60, 200):
        x = gen.standard_normal(n)
        assert sw_statistic(x) == pytest.approx(
            float(shapiro(x).statistic), abs=1e-8
        )


def test_statistic_rejects_constant_sample():
    with pytest.raises(InapplicableSampleError):
        sw_statistic([2.0, 2.0, 2.0, 2.0])


@pytest.mark.parametrize("n", [3, 4, 11, 12, 50, 1001])
def test_statistic_batch_rows_equal_the_scalar_call_bitwise(n):
    gen = np.random.default_rng(n)
    x = gen.standard_normal((6, n)) * gen.uniform(0.5, 50.0, size=(6, 1))
    scalar = np.array([sw_statistic(row) for row in x])
    assert isinstance(sw_statistic(x[0]), float)
    np.testing.assert_array_equal(sw_statistic(x), scalar)
    np.testing.assert_array_equal(sw_statistic(x.reshape(2, 3, n)), scalar.reshape(2, 3))
    np.testing.assert_array_equal(sw_statistic(x[:1]), scalar[:1])
    np.testing.assert_array_equal(sw_statistic(np.asfortranarray(x)), scalar)
    wide = np.zeros((6, 2 * n))
    wide[:, ::2] = x
    np.testing.assert_array_equal(sw_statistic(wide[:, ::2]), scalar)
    np.testing.assert_array_equal(sw_statistic(x[::-1]), scalar[::-1])


def test_statistic_batch_row_checks():
    x = substream(REGRESSION_SEED, 0).standard_normal((3, 20))
    constant = x.copy()
    constant[1] = 2.0
    with pytest.raises(InapplicableSampleError):
        sw_statistic(constant)
    non_finite = x.copy()
    non_finite[2, 7] = np.inf
    with pytest.raises(ValueError, match="finite"):
        sw_statistic(non_finite)
    with pytest.raises(ValueError, match="sample size"):
        sw_statistic(np.ones((4, 2)))


def test_statistic_works_in_its_own_copy_of_the_batch():
    # Two batch-sized arrays: the sorted copy, weighted in place, and the
    # deviations, squared in place.  A full product of either makes a third.
    x = substream(REGRESSION_SEED, 1).standard_normal((2000, 49))
    before = x.copy()
    sw_statistic(x)  # the weights are cached before the trace
    tracemalloc.start()
    try:
        sw_statistic(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.nbytes
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("sample", [[1.0, 2.0], list(range(MAX_SAMPLE + 1))])
def test_statistic_rejects_bad_sizes(sample):
    with pytest.raises(ValueError):
        sw_statistic(np.asarray(sample, dtype=float))


def test_statistic_rejects_non_finite():
    with pytest.raises(ValueError):
        sw_statistic([1.0, 2.0, np.nan])


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64),
                min_size=3, max_size=60).filter(lambda v: max(v) - min(v) > 1e-6),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_statistic_permutation_invariant_bitwise(values, rng):
    w1 = sw_statistic(np.asarray(values))
    shuffled = list(values)
    rng.shuffle(shuffled)
    w2 = sw_statistic(np.asarray(shuffled))
    assert w1 == w2


@given(st.integers(min_value=5, max_value=200), st.integers())
@settings(max_examples=150, deadline=None)
def test_statistic_never_exceeds_one(n, seed):
    x = np.random.default_rng(abs(seed) % 2**63).standard_normal(n)
    w = sw_statistic(x)
    assert 0.0 < w <= 1.0 + 1e-12


# ---------------------------------------------------------------- p-value


def test_pvalue_regression_value():
    assert sw_pvalue(REGRESSION_W, 50) == pytest.approx(REGRESSION_P, abs=1e-15)


def test_pvalue_matches_scipy():
    gen = np.random.default_rng(3)
    for n in (3, 4, 5, 8, 11, 12, 25, 60, 200):
        x = gen.standard_normal(n)
        r = shapiro(x)
        assert sw_pvalue(float(r.statistic), n) == pytest.approx(
            float(r.pvalue), abs=1e-6
        )


def test_pvalue_limits():
    assert sw_pvalue(1.0, 3) == pytest.approx(1.0, abs=1e-10)
    assert sw_pvalue(0.7500001, 3) == pytest.approx(0.0, abs=1e-3)
    assert sw_pvalue(1.0, 8) == 1.0
    assert sw_pvalue(1.0, 50) == 1.0
    assert sw_pvalue(0.2, 4) == 0.0  # transform argument clips at zero
    assert sw_pvalue(0.01, 8) < 1e-10
    # a W a hair above 1.0 (rounding) is clamped, not rejected
    assert sw_pvalue(1.0 + 1e-12, 20) == 1.0


def test_pvalue_monotone_in_w():
    for n in (5, 9, 20, 120):
        ws = np.linspace(0.3, 1.0, 200)
        ps = [sw_pvalue(float(w), n) for w in ws]
        assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_pvalue_domain():
    with pytest.raises(ValueError):
        sw_pvalue(0.0, 10)
    with pytest.raises(ValueError):
        sw_pvalue(1.1, 10)
    with pytest.raises(ValueError):
        sw_pvalue(0.9, 2)


def same_bits(got, want):
    """Arrays of p-values that are equal bit for bit."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# W spread over (0, 1], W near 1 where the tests decide, and a few ulp above 1.
W_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=0.7, max_value=1.0),
    st.integers(0, 8).map(lambda k: 1.0 + k * 2.0**-52),
)


@given(
    n=st.one_of(st.integers(3, 12), st.integers(3, MAX_SAMPLE)),
    ws=st.lists(W_VALUES, min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_array_pvalues_are_the_scalar_formula_bitwise(n, ws):
    want = [reference_sw_pvalue(w, n) for w in ws]
    assert same_bits(sw_pvalue(np.array(ws), n), want)
    for w, p in zip(ws, want):
        got = sw_pvalue(w, n)
        assert type(got) is float and same_bits(got, p)


@pytest.mark.parametrize("n", [3, 4, 7, 11, 12, 50, MAX_SAMPLE])
def test_array_pvalues_match_the_scalar_formula_at_the_edges(n):
    above = [1.0 + k * 2.0**-52 for k in range(1, 5)]  # a few ulp above 1
    # 0.2 at n = 4 clips at arg <= 0; below 0.75 the n = 3 law clamps at 0.
    ws = [1.0, *above, 0.75, 0.7499999, 0.2, 5e-324, 0.5, 1.0 - 2.0**-53]
    ws += np.linspace(0.01, 1.0, 4001).tolist()
    want = [reference_sw_pvalue(w, n) for w in ws]
    assert same_bits(sw_pvalue(np.array(ws), n), want)
    grid = np.array(ws).reshape(2, -1)  # any shape, element by element
    assert same_bits(sw_pvalue(grid, n), np.reshape(want, grid.shape))
    assert sw_pvalue(np.array(above), n).tolist() == [sw_pvalue(1.0, n)] * 4


def test_pvalue_clips_where_the_small_sample_transform_is_undefined():
    # gamma - log1p(-W) <= 0 for W <= 1 - exp(gamma), where p is 0; of
    # 4 <= n <= 11 only n = 4 has gamma < 0, so only there is W that small
    edge = -math.expm1(-2.273 + 0.459 * 4)
    ws = np.array([edge / 2, edge, math.nextafter(edge, 1.0), (edge + 1) / 2])
    want = [reference_sw_pvalue(w, 4) for w in ws.tolist()]
    assert want[0] == 0.0 and want[-1] > 0.0
    assert same_bits(sw_pvalue(ws, 4), want)


def test_pvalue_at_n3_is_clamped_to_the_unit_interval():
    ws = np.array([0.1, 0.75, 0.7500001, 1.0, 1.0 + 1e-12])
    got = sw_pvalue(ws, 3)
    assert got[0] == 0.0 and got[-1] == got[-2] <= 1.0
    assert same_bits(got, [reference_sw_pvalue(w, 3) for w in ws.tolist()])


def test_array_pvalue_refuses_the_first_w_out_of_range():
    with pytest.raises(ValueError, match=r"^W must lie in \(0, 1\], got 1\.1$"):
        sw_pvalue(np.array([[0.5, 0.9], [1.1, 0.0]]), 10)
    with pytest.raises(ValueError, match=r"^W must lie in \(0, 1\], got nan$"):
        sw_pvalue(np.array([0.5, math.nan]), 20)
    with pytest.raises(ValueError, match=r"^sample size must be in \[3, 5000\], got 2$"):
        sw_pvalue(np.array([0.5]), 2)
    assert sw_pvalue(np.empty((0, 3)), 12).shape == (0, 3)


# --------------------------------------------------------------- decision


def test_paper_threshold_is_exact_at_the_default_level():
    accept = sw_decide(0.90, n=50, p=0.05, rule=RULE_PAPER_THRESHOLD)
    reject = sw_decide(0.8999, n=50, p=0.05, rule=RULE_PAPER_THRESHOLD)
    assert accept.threshold == 0.9  # 1 - 2*0.05 is exact in binary64
    assert accept.normal is True
    assert reject.normal is False
    assert accept.p_value is None


def test_pvalue_rule_compares_pvalue_to_p():
    x = substream(REGRESSION_SEED, 0).standard_normal(50)
    res = sw_test(x, p=0.05, rule=RULE_P_VALUE)
    assert res.p_value == pytest.approx(REGRESSION_P, abs=1e-15)
    assert res.threshold == 0.05
    assert res.normal is (res.p_value >= 0.05)


def test_decide_validates_inputs():
    with pytest.raises(ValueError):
        sw_decide(0.9, 10, p=0.5)
    with pytest.raises(ValueError):
        sw_decide(0.9, 10, p=0.0)
    with pytest.raises(ValueError):
        sw_decide(0.9, 10, rule="coin-flip")


def test_sw_test_on_gaussian_sample_accepts_under_both_rules():
    x = substream(REGRESSION_SEED, 0).standard_normal(80)
    assert sw_test(x, rule=RULE_PAPER_THRESHOLD).normal
    assert sw_test(x, rule=RULE_P_VALUE).normal


def test_sw_test_on_skewed_sample_rejects_under_both_rules():
    x = substream(REGRESSION_SEED, 1).exponential(scale=2.0, size=80)
    assert not sw_test(x, rule=RULE_PAPER_THRESHOLD).normal
    assert not sw_test(x, rule=RULE_P_VALUE).normal


@pytest.mark.parametrize("rule", [RULE_PAPER_THRESHOLD, RULE_P_VALUE])
@pytest.mark.parametrize("shape", [(3, 20), (300, 20), (2, 2, 7)])
def test_sw_test_on_a_batch_is_the_per_row_calls(rule, shape):
    batch = substream(REGRESSION_SEED, 2).standard_normal(shape)
    res = sw_test(batch, rule=rule)
    rows = [sw_test(row, rule=rule) for row in batch.reshape(-1, shape[-1])]
    assert res.n == shape[-1] and all(r.n == shape[-1] for r in rows)
    assert res.w.tolist() == np.reshape([r.w for r in rows], shape[:-1]).tolist()
    assert res.normal.tolist() == np.reshape([r.normal for r in rows], shape[:-1]).tolist()
    if rule == RULE_P_VALUE:
        want = np.reshape([r.p_value for r in rows], shape[:-1])
        assert res.p_value.tolist() == want.tolist()


@pytest.mark.parametrize(
    "sizes", [range(3, 401), range(401, MAX_SAMPLE + 1, 37), [MAX_SAMPLE]]
)
def test_weights_are_bitwise_those_of_scalar_blom_scores(sizes):
    for n in sizes:
        got = sw_coefficients(n)
        assert np.array_equal(got.view(np.uint64), reference_sw_weights(n).view(np.uint64)), n


# A small workload whose output holds every W bit the package prints: the
# weights, batch and per-row W, p-values, `check` on every tests/data series
# under both rules, and calibration reports; and the streamed `cost --sample`
# moments, which numpy sums pairwise.  One line per item, so a mismatch names
# what moved.
BITS_SCRIPT = r"""
import contextlib, hashlib, io, json, pathlib
import numpy as np
from markovband.cli import main
from markovband.cost import CostSummary, sample_cost_moments
from markovband.rng import BLOCK_PATHS, substream
from markovband.simulate import run_calibration
from markovband.swilk import sw_coefficients, sw_pvalue, sw_statistic

def line(name, data):
    print(name, hashlib.sha256(data).hexdigest())

for n in (3, 11, 50, 1001, 5000):
    x = substream(7, n).standard_normal((5, n))
    w = sw_statistic(x)
    line(f"weights {n}", sw_coefficients(n).tobytes())
    line(f"batch W {n}", w.tobytes())
    line(f"row W {n}", np.array([sw_statistic(row) for row in x]).tobytes())
    line(f"p-value {n}", sw_pvalue(w, n).tobytes())
for path in sorted(pathlib.Path("tests/data").glob("*.csv")):
    for rule in ("paper-threshold", "p-value"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(["check", "--input", str(path), "--rule", rule])
        line(f"check {path.name} {rule}", out.getvalue().encode())
for length in (10, 50, 200):
    for rule in ("paper-threshold", "p-value"):
        report = run_calibration(trials=200, walk_length=length, rule=rule, seed=3)
        line(f"calibrate {length} {rule}", json.dumps(report.to_dict()).encode())
summary = CostSummary(adc=1.5, asc=0.25, months=2)
for horizon in (1, 12, 100):
    mean, std = sample_cost_moments(3.0, 0.5, horizon, summary, 2 * BLOCK_PATHS + 3, 5)
    line(f"moments {horizon}", mean.tobytes() + std.tobytes())
"""


def bits_script_lines(**variables):
    """The lines BITS_SCRIPT prints with ``variables`` set in its environment."""
    root = Path(__file__).parents[1]
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    }
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    env.update(variables)
    proc = subprocess.run(
        [sys.executable, "-c", BITS_SCRIPT],
        capture_output=True, text=True, cwd=root, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def default_lines():
    """The lines BITS_SCRIPT prints with neither variable set, run once."""
    return bits_script_lines()


def assert_same_lines(default, outputs):
    assert default
    for setting, lines in outputs.items():
        moved = [a.split()[:-1] for a, b in zip(default, lines) if a != b]
        assert lines == default, f"under {setting}: {moved}"


def test_w_bits_do_not_depend_on_the_blas_kernel(default_lines):
    # OpenBLAS picks its kernels by CPU when it loads; OPENBLAS_CORETYPE
    # forces one for a single process.  W is summed by numpy, not BLAS, so
    # each kernel must print the same bytes.  (A BLAS other than OpenBLAS
    # ignores the variable, and so does OpenBLAS built for one CPU.)
    outputs = {
        coretype: bits_script_lines(OPENBLAS_CORETYPE=coretype)
        for coretype in ("Haswell", "Zen", "Prescott")
    }
    assert_same_lines(default_lines, outputs)


def dispatched_cpu_features():
    """The SIMD features above its baseline that numpy dispatches to on this
    CPU, in numpy's order (lowest first)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_printed_bits_do_not_depend_on_numpys_cpu_dispatch(default_lines):
    # numpy picks SIMD kernels by CPU at import; NPY_DISABLE_CPU_FEATURES
    # turns features off for a single process.  The sums behind W and the
    # streamed moments are numpy's pairwise ones, whose order no kernel
    # changes, so a run with every feature but the lowest off (on x86-64:
    # X86_V4 and AVX512_*) and one with all of them off must print the
    # default's bytes.
    features = dispatched_cpu_features()
    if not features:
        pytest.skip("numpy dispatches to no feature above its baseline here")
    outputs = {}
    for off in {" ".join(features[1:]), " ".join(features)} - {""}:
        outputs[f"NPY_DISABLE_CPU_FEATURES={off}"] = bits_script_lines(
            NPY_DISABLE_CPU_FEATURES=off
        )
    assert_same_lines(default_lines, outputs)
