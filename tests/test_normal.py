import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from markovband.normal import norm_cdf, norm_ppf
from oracles import ACKLAM_P_LOW, reference_norm_ppf


def test_ppf_matches_reference_within_1e9():
    ps = np.concatenate(
        [
            np.linspace(1e-10, 1 - 1e-10, 4001),
            10.0 ** np.arange(-300.0, -1.0),
            1.0 - 10.0 ** np.arange(-16.0, -1.0),
        ]
    )
    worst = max(abs(norm_ppf(float(p)) - ndtri(p)) for p in ps)
    assert worst < 1e-9
    # the Halley-refined value is in fact near machine precision
    assert worst < 1e-12


def test_cdf_matches_reference():
    xs = np.linspace(-38.0, 38.0, 2001)
    for x in xs:
        assert norm_cdf(float(x)) == pytest.approx(float(ndtr(x)), rel=1e-12, abs=1e-300)


def test_known_quantiles():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert norm_ppf(0.8413447460685429) == pytest.approx(1.0, abs=1e-12)


def test_symmetry_about_half_is_exact_for_exact_complements():
    # for dyadic p the complement 1 - p is itself a float, and the reflection
    # norm_ppf(1 - p) == -norm_ppf(p) holds bitwise by construction
    for k in (2, 5, 10, 20, 30, 40, 50):
        p = 2.0**-k
        assert norm_ppf(1.0 - p) == -norm_ppf(p)


def test_round_trip():
    for p in (1e-9, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-9):
        assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-11)
    # the lower tail keeps full precision through erfc; above ~2 sigma the
    # float spacing of p near 1 fundamentally limits what ppf can recover
    for x in (-8.0, -2.5, -0.3, 0.0, 0.7, 1.8):
        assert norm_ppf(norm_cdf(x)) == pytest.approx(x, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_ppf_domain(bad):
    with pytest.raises(ValueError):
        norm_ppf(bad)


@given(
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_ppf_monotone(p, q):
    lo, hi = sorted((p, q))
    assert norm_ppf(lo) <= norm_ppf(hi)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_array_ppf_is_bitwise_the_scalar_reference():
    edges = []
    for p in (ACKLAM_P_LOW, 0.5, 1.0 - ACKLAM_P_LOW):
        below, above = p, p
        for _ in range(4):  # each boundary and the floats right around it
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            edges += [below, above]
        edges.append(p)
    ps = np.concatenate(
        [
            np.linspace(1e-10, 1 - 1e-10, 100_001),
            10.0 ** np.arange(-300.0, -1.0, 0.25),
            1.0 - 10.0 ** np.arange(-16.0, -1.0, 0.25),
            2.0 ** -np.arange(1.0, 60.0),  # dyadic: 1 - p reflects exactly
            1.0 - 2.0 ** -np.arange(1.0, 53.0),
            [np.nextafter(1.0, 0.0)],
            edges,
        ]
    )
    expected = np.array([reference_norm_ppf(p) for p in ps.tolist()])
    assert np.array_equal(_bits(norm_ppf(ps)), _bits(expected))
    # the same element inside a 2-D array and alone
    grid = ps[: 3 * 1000].reshape(3, 1000)
    assert np.array_equal(_bits(norm_ppf(grid)), _bits(expected[:3000].reshape(3, 1000)))
    for p, want in zip(ps[::251].tolist(), expected[::251].tolist()):
        got = norm_ppf(p)
        assert type(got) is float
        assert _bits(got) == _bits(want)


def test_array_ppf_out_of_range_element_raises_the_scalar_message():
    with pytest.raises(ValueError, match=r"norm_ppf requires 0 < p < 1, got 1\.0"):
        norm_ppf(np.array([0.25, 1.0, 0.0]))
    with pytest.raises(ValueError, match=r"got nan"):
        norm_ppf(np.array([[0.25], [math.nan]]))
    with pytest.raises(ValueError, match=r"norm_ppf requires 0 < p < 1, got -0\.2"):
        norm_ppf(-0.2)


@pytest.mark.parametrize("p", [5e-324, 3.125e-311, 6e-311, 1e-310,
                               float(np.nextafter(sys.float_info.min, 0.0))])
def test_ppf_refuses_subnormal_p_by_name_as_scalar_and_array(p):
    message = (rf"norm_ppf requires p >= {re.escape(repr(sys.float_info.min))} "
               rf"\(the smallest normal float\), got {re.escape(repr(p))}$")
    with pytest.raises(ValueError, match=message):
        norm_ppf(p)
    with pytest.raises(ValueError, match=message):
        norm_ppf(np.array([0.25, p, 1e-320]))


def test_ppf_accepts_the_smallest_normal_p_bitwise():
    ps = [sys.float_info.min, float(np.nextafter(sys.float_info.min, 1.0)), 1e-307]
    expected = [reference_norm_ppf(p) for p in ps]
    assert np.array_equal(_bits(norm_ppf(np.array(ps))), _bits(expected))
    assert [_bits(norm_ppf(p)) for p in ps] == [_bits(x) for x in expected]
