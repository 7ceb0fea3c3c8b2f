"""Shapiro-Wilk normality test.

The W statistic is

    W = (sum_k a_k x_(k))^2 / sum_i (x_i - xbar)^2

with x_(k) the sorted sample.  The weight vector approximates the normalized
best-linear-unbiased direction V^-1 m / ||V^-1 m|| built from the mean vector
m and covariance V of standard normal order statistics; it is antisymmetric,
unit-norm, and strictly increasing, which via Cauchy-Schwarz pins W into
(0, 1].  Weights follow Royston's 1992 approximation (Blom scores plus
polynomial corrections to the two extreme weights; exact closed form at
n = 3), and p-values follow his matching normalizing transforms.  The
polynomial coefficients are tabulated in docs/algorithms.md.

Two decision rules are supported:

* ``paper-threshold``: affirm normality when W >= 1 - 2p.
* ``p-value``: affirm normality when the p-value of W is >= p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .normal import norm_cdf, norm_ppf

__all__ = [
    "MIN_SAMPLE",
    "MAX_SAMPLE",
    "RULE_PAPER_THRESHOLD",
    "RULE_P_VALUE",
    "RULES",
    "SWCoefficients",
    "SWResult",
    "InapplicableSampleError",
    "sw_coefficients",
    "sw_statistic",
    "sw_pvalue",
    "sw_decide",
    "sw_test",
]

MIN_SAMPLE = 3
MAX_SAMPLE = 5000

RULE_PAPER_THRESHOLD = "paper-threshold"
RULE_P_VALUE = "p-value"
RULES = (RULE_PAPER_THRESHOLD, RULE_P_VALUE)


class InapplicableSampleError(ValueError):
    """Raised when W is undefined because all sample values are equal."""


@dataclass(frozen=True, eq=False)
class SWCoefficients:
    """Weight vector a_1..a_n for sample size n (read-only array)."""

    n: int
    a: np.ndarray


@dataclass(frozen=True)
class SWResult:
    """Outcome of one Shapiro-Wilk decision, or of a batch of them.

    ``threshold`` is what ``w`` (paper-threshold rule) or ``p_value``
    (p-value rule) was compared against; ``p_value`` is None under the
    paper-threshold rule, which never computes one.  For a batch, ``w``,
    ``normal`` and ``p_value`` are arrays with one entry per sample.
    """

    w: float | np.ndarray
    n: int
    threshold: float
    rule: str
    normal: bool | np.ndarray
    p_value: float | np.ndarray | None = None


# Royston (1992) correction polynomials for the two largest weights,
# evaluated at u = n**-0.5 (highest-degree coefficient first, constant 0;
# the leading Blom term is added separately).
_POLY_LAST = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_POLY_SECOND = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)


def _upper_half_weights(n: int) -> np.ndarray:
    """Unnormalized positive half of the weight vector, ascending."""
    if n == 3:
        return np.array([math.sqrt(0.5)])
    half = n // 2
    # Blom scores m_j = Phi^-1((j - 3/8) / (n + 1/4)) for the upper half.
    m_up = np.array(
        [norm_ppf((j - 0.375) / (n + 0.25)) for j in range(n - half + 1, n + 1)]
    )
    msq = 2.0 * float(m_up @ m_up)  # ||m||^2; the middle score of odd n is 0
    u = 1.0 / math.sqrt(n)
    rms = math.sqrt(msq)
    a_last = np.polyval(_POLY_LAST, u) + m_up[-1] / rms
    if n > 5:
        a_second = np.polyval(_POLY_SECOND, u) + m_up[-2] / rms
        phi = (msq - 2.0 * m_up[-1] ** 2 - 2.0 * m_up[-2] ** 2) / (
            1.0 - 2.0 * a_last**2 - 2.0 * a_second**2
        )
        return np.concatenate([m_up[:-2] / math.sqrt(phi), [a_second, a_last]])
    phi = (msq - 2.0 * m_up[-1] ** 2) / (1.0 - 2.0 * a_last**2)
    return np.concatenate([m_up[:-1] / math.sqrt(phi), [a_last]])


@lru_cache(maxsize=64)
def sw_coefficients(n: int) -> SWCoefficients:
    """Shapiro-Wilk weights for sample size n in [3, 5000].

    The vector is built from its positive half and mirrored, so the
    antisymmetry a_k = -a_{n+1-k} holds bitwise, and it is renormalized so
    that sum a_k^2 = 1 to machine precision.  Results are cached; the array
    is write-protected.
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"sample size must be an integer, got {type(n).__name__}")
    n = int(n)
    if not MIN_SAMPLE <= n <= MAX_SAMPLE:
        raise ValueError(
            f"sample size must be in [{MIN_SAMPLE}, {MAX_SAMPLE}], got {n}"
        )
    upper = _upper_half_weights(n)
    half = n // 2
    a = np.empty(n)
    a[n - half :] = upper
    a[:half] = -upper[::-1]
    if n % 2:
        a[half] = 0.0
    a /= math.sqrt(float(a @ a))
    a.setflags(write=False)
    return SWCoefficients(n=n, a=a)


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of matching last-axis rows, one BLAS dot per row."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def sw_statistic(sample: np.ndarray) -> float | np.ndarray:
    """W statistic of each last-axis row of 3..5000 values.

    A 1-D sample gives a float; a ``(..., n)`` batch gives one W per row,
    each bitwise equal to the 1-D call on that row.  Each row is sorted
    first, so any permutation of the same values yields the
    bitwise-identical result.  Raises :class:`InapplicableSampleError` when
    all values of a row are equal (the denominator vanishes and W is
    undefined).
    """
    x = np.array(sample, dtype=float, order="C", ndmin=1)
    x.sort(axis=-1)
    n = x.shape[-1]
    if not MIN_SAMPLE <= n <= MAX_SAMPLE:
        raise ValueError(
            f"sample size must be in [{MIN_SAMPLE}, {MAX_SAMPLE}], got {n}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("sample values must be finite")
    centered = x - x.mean(axis=-1, keepdims=True)
    ss = _row_dot(centered, centered)
    if np.any(ss == 0.0):
        raise InapplicableSampleError(
            "sample spread is zero (values all equal, or indistinguishable "
            "at float precision); the W statistic is undefined"
        )
    b = _row_dot(x, sw_coefficients(n).a)
    w = b * b / ss
    return float(w) if x.ndim == 1 else w


def sw_pvalue(w: float, n: int) -> float:
    """P-value of W at sample size n (Royston's normalizing transforms).

    W values a few ulp above 1 (possible through rounding in the statistic)
    are clamped to 1 before transforming.
    """
    if not MIN_SAMPLE <= n <= MAX_SAMPLE:
        raise ValueError(
            f"sample size must be in [{MIN_SAMPLE}, {MAX_SAMPLE}], got {n}"
        )
    if not 0.0 < w <= 1.0 + 1e-9:
        raise ValueError(f"W must lie in (0, 1], got {w!r}")
    w = min(w, 1.0)
    if n == 3:
        # Exact small-sample distribution.
        p = 1.90985931710274 * (math.asin(math.sqrt(w)) - 1.04719755119660)
        return min(max(p, 0.0), 1.0)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        arg = gamma - math.log1p(-w) if w < 1.0 else math.inf
        if arg <= 0.0:
            return 0.0
        y = -math.log(arg)
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
    else:
        y = math.log1p(-w) if w < 1.0 else -math.inf
        ln = math.log(n)
        mu = -1.5861 - 0.31082 * ln - 0.083751 * ln**2 + 0.0038915 * ln**3
        sigma = math.exp(-0.4803 - 0.082676 * ln + 0.0030302 * ln**2)
    if y == -math.inf:
        return 1.0
    return norm_cdf(-(y - mu) / sigma)


def sw_decide(
    w: float | np.ndarray, n: int, p: float = 0.05, rule: str = RULE_PAPER_THRESHOLD
) -> SWResult:
    """Turn a W statistic, or an array of them, into accept/reject decisions.

    Under ``paper-threshold`` a sample is affirmed normal when
    W >= 1 - 2p; under ``p-value`` when the p-value of W is >= p.  An array
    of W (say one per row from :func:`sw_statistic`) gives arrays of
    decisions and p-values; the p-values are the scalar :func:`sw_pvalue`
    of each W.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"significance level must satisfy 0 < p < 0.5, got {p!r}")
    if rule == RULE_PAPER_THRESHOLD:
        threshold = 1.0 - 2.0 * p
        return SWResult(
            w=w, n=n, threshold=threshold, rule=rule, normal=w >= threshold
        )
    if rule != RULE_P_VALUE:
        raise ValueError(f"unknown decision rule {rule!r}; expected one of {RULES}")
    pvs = [sw_pvalue(x, n) for x in np.ravel(w).tolist()]
    pv = np.array(pvs).reshape(w.shape) if isinstance(w, np.ndarray) else pvs[0]
    return SWResult(w=w, n=n, threshold=p, rule=rule, normal=pv >= p, p_value=pv)


def sw_test(
    sample: np.ndarray, p: float = 0.05, rule: str = RULE_PAPER_THRESHOLD
) -> SWResult:
    """Compute W for a sample and decide normality under the given rule."""
    x = np.asarray(sample, dtype=float)
    w = sw_statistic(x)
    return sw_decide(w, x.size, p=p, rule=rule)
