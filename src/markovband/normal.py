"""Standard normal CDF and quantile function, bit-reproducible.

The quantile function uses Acklam's rational approximation (central region
plus one tail, the other tail by symmetry) refined with a single Halley step
against the erfc-based CDF.  The refinement pushes the absolute error from
~1e-9 down to a few ulp, comfortably inside the 1e-9 contract.  Coefficient
provenance and the refinement algebra are written up in docs/algorithms.md.

``norm_ppf`` takes a float or an array.  Arithmetic runs as numpy array ops
only where numpy rounds exactly as Python does (``+ - * /`` and ``sqrt`` are
correctly rounded in both); ``log``, ``erfc`` and ``exp`` stay ``math``
calls per element, because numpy's versions may differ from the C library's
in the last ulp.  An array element therefore gets the same bits as the same
value passed alone.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["norm_cdf", "norm_ppf"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam (2003) rational-approximation coefficients.
_A = (
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383577518672690e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
)
_B = (
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
)

_P_LOW = 0.02425
# Subnormal p is refused: below about 6e-311 the Halley step's exp(x * x / 2)
# overflows, and below about 1e-316 Phi(x) - p keeps too few bits to refine x.
_P_MIN = sys.float_info.min


def norm_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate in both tails via erfc."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _each(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` (a scalar ``math`` function) applied to each element of 1-D ``a``."""
    return np.fromiter(map(fn, a.tolist()), float, a.size)


def norm_ppf(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse standard normal CDF for p in [2.2250738585072014e-308, 1).

    A subnormal p (below ``sys.float_info.min``) is refused by name, as is
    any p outside the open interval (0, 1).

    ``p`` is a float (the result is a float) or an array (the result is an
    array of its shape).  Each element is bitwise what the scalar formula
    gives it: the rational step and the Halley step are numpy's correctly
    rounded ``+ - * /`` and ``sqrt`` in Python's evaluation order, and
    ``log``, ``erfc`` and ``exp`` are ``math`` calls per element.

    Upper-half arguments are mapped through the exact reflection
    ``norm_ppf(p) = -norm_ppf(1 - p)``; for p > 0.5 the subtraction 1 - p is
    exact in IEEE-754, so both halves see the well-conditioned branch.
    """
    arr = np.asarray(p, dtype=float)
    shape = arr.shape
    arr = arr.ravel()
    inside = (_P_MIN <= arr) & (arr < 1.0)
    if not inside.all():
        bad = arr[~inside][0].item() if shape else p
        rule = (f"p >= {_P_MIN!r} (the smallest normal float)"
                if 0.0 < bad < _P_MIN else "0 < p < 1")
        raise ValueError(f"norm_ppf requires {rule}, got {bad!r}")
    upper = arr > 0.5
    lo = np.where(upper, 1.0 - arr, arr)  # 0 < lo <= 0.5
    # Central region, evaluated everywhere; the lower tail overwrites its part.
    q = lo - 0.5
    r = q * q
    x = (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
        * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    )
    tail = lo < _P_LOW
    if tail.any():
        q = np.sqrt(-2.0 * _each(math.log, lo[tail]))
        x[tail] = (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    # One Halley step against the erfc CDF.  The residual e is evaluated where
    # Phi(x) is small (x <= 0), so there is no cancellation in Phi(x) - p.
    e = 0.5 * _each(math.erfc, -x / _SQRT2) - lo
    u = e * _SQRT_2PI * _each(math.exp, 0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    x = np.where(upper, -x, x)
    return x.reshape(shape) if shape else float(x[0])
