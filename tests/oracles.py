"""Independent reference implementations used to validate the package.

Nothing here imports from markovband's internals beyond its public API;
each oracle recomputes its target quantity from the defining formula by a
different route than the library takes.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

from markovband.markov import check_markov
from markovband.rng import BLOCK_PATHS, substream
from markovband.series import SeriesFormatError, TimeSeries
from markovband.simulate import SimulationReport


def reference_load_series(text: str) -> TimeSeries:
    """``load_series`` on decoded text as one loop over ``csv.reader`` rows.

    Every row goes through the csv module and every value, the last field
    of a row, through ``float`` one at a time, so this defines what the
    loader accepts and how it names what it refuses.  The first row is a
    header when its last field does not parse and does not start like a
    number (``[+-]?[0-9.]`` after leading whitespace); one that starts like
    a number is refused as data row 1.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise SeriesFormatError(f"malformed CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise SeriesFormatError("input contains no rows")

    width = len(rows[0])
    data_rows = rows
    try:
        float(rows[0][-1])
    except ValueError:
        if re.match(r"\s*[+-]?[0-9.]", rows[0][-1]):
            raise SeriesFormatError(
                f"non-numeric value {rows[0][-1]!r} in data row 1"
            ) from None
        data_rows = rows[1:]
    if len(data_rows) < 2:
        raise SeriesFormatError(
            f"need at least 2 data rows to form a series, got {len(data_rows)}"
        )

    values = []
    for i, row in enumerate(data_rows, start=1):
        if len(row) != width:
            raise SeriesFormatError(
                f"data row {i} has {len(row)} fields, expected {width}"
            )
        try:
            value = float(row[-1])
        except ValueError:
            raise SeriesFormatError(
                f"non-numeric value {row[-1]!r} in data row {i}"
            ) from None
        if not math.isfinite(value):
            raise SeriesFormatError(f"non-finite value {row[-1]!r} in data row {i}")
        values.append(value)
    return TimeSeries(values=np.array(values, dtype=float))


def mc_order_stat_weights(
    n: int, base_draws: int, seed: int, chunk: int = 200_000
) -> np.ndarray:
    """Shapiro-Wilk weight direction by brute-force Monte Carlo.

    Estimates the mean vector m and covariance matrix V of the order
    statistics of n standard normal variates from sorted samples, then
    returns V^-1 m normalized to unit length.  Antithetic pairs (each sorted
    sample together with its negated reversal) enforce the exact symmetries
    of the order-statistic distribution and roughly halve the variance, so
    ``base_draws`` sorted samples contribute 2 * base_draws terms.
    """
    gen = np.random.default_rng(seed)
    count = 0
    s1 = np.zeros(n)
    s2 = np.zeros((n, n))
    remaining = base_draws
    while remaining > 0:
        size = min(chunk, remaining)
        x = np.sort(gen.standard_normal((size, n)), axis=1)
        for block in (x, -x[:, ::-1]):
            s1 += block.sum(axis=0)
            s2 += block.T @ block
        count += 2 * size
        remaining -= size
    m = s1 / count
    v = s2 / count - np.outer(m, m)
    raw = np.linalg.solve(v, m)
    return raw / np.linalg.norm(raw)


def oracle_w(sample: np.ndarray, weights: np.ndarray) -> float:
    """W statistic evaluated directly from its definition with given weights."""
    x = np.sort(np.asarray(sample, dtype=float))
    num = float(np.dot(weights, x)) ** 2
    den = float(np.sum((x - x.mean()) ** 2))
    return num / den


def oracle_adc(months, rates) -> float:
    """One-line transcription of the direct-cost-per-interruption average."""
    return float(
        np.mean(
            [
                (
                    rates.delay * m.delays
                    + rates.cancellation * m.cancellations
                    + rates.diversion * m.diversions
                    + rates.air_turnback * m.air_turnbacks
                )
                / (m.delays + m.cancellations + m.diversions + m.air_turnbacks)
                for m in months
            ]
        )
    )


def oracle_asc(months, rates) -> float:
    """One-line transcription of the spare-cost-per-interruption average."""
    return float(
        np.mean(
            [
                rates.spare
                * m.spares
                / (m.delays + m.cancellations + m.diversions + m.air_turnbacks)
                for m in months
            ]
        )
    )


def reference_sample_moments(
    costs: np.ndarray, shift: float, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``sample_cost_moments``' mean and stddev of a ``sample_costs`` matrix.

    A plain loop over the matrix's blocks of ``BLOCK_PATHS`` rows and each
    block's pieces of ``rows`` rows.  A piece is copied transposed, one step
    a row, and three row sums are taken of the copy ``p``: of ``p``, of
    ``p - shift`` and of ``(p - shift) ** 2``.  Each is added in piece order
    to a block total that starts at -0.0, and the block totals in block
    order to a total that starts at -0.0.  The first total over the path
    count is the mean; the other two, S1 and S2, give the stddev
    ``sqrt(max(S2 - S1 * (S1 / N), 0) / (N - 1))``.
    """
    count, horizon = costs.shape
    totals = np.full((3, horizon), -0.0)
    for i in range(0, count, BLOCK_PATHS):
        block = costs[i : i + BLOCK_PATHS]
        sums = np.full((3, horizon), -0.0)
        for j in range(0, len(block), rows):
            p = np.ascontiguousarray(block[j : j + rows].T)
            sums = sums + np.array(
                [p.sum(axis=1), (p - shift).sum(axis=1), ((p - shift) ** 2).sum(axis=1)]
            )
        totals = totals + sums
    total, s1, s2 = totals
    variance = np.maximum(s2 - s1 * (s1 / count), 0.0) / (count - 1)
    return total / count, np.sqrt(variance)


def reference_calibration(
    trials: int,
    walk_length: int,
    sigma: float,
    horizon: int,
    p: float,
    rule: str,
    seed: int,
) -> SimulationReport:
    """The calibration harness as one scalar Markov check per trial.

    Trial t builds its walk from ``substream(seed, t)``, checks the history
    with ``check_markov`` and counts the future steps inside the band, so
    every quantity comes from the public scalar path.  The batched
    ``run_calibration`` must reproduce this report exactly.
    """
    root_k = np.sqrt(np.arange(1, horizon + 1, dtype=float))
    accepted = 0
    covered = np.zeros(horizon)
    sigma_hat_sum = 0.0
    for t in range(trials):
        noise = substream(seed, t).standard_normal(walk_length - 1 + horizon) * sigma
        values = np.empty(walk_length + horizon)
        values[0] = 0.0
        values[1:] = 0.0 + np.cumsum(noise)
        verdict = check_markov(TimeSeries(values=values[:walk_length]), p=p, rule=rule)
        accepted += verdict.is_markov
        sigma_hat = verdict.error_stddev
        sigma_hat_sum += sigma_hat
        x_last = values[walk_length - 1]
        covered += np.abs(values[walk_length:] - x_last) <= root_k * sigma_hat
    sigma_hat_mean = sigma_hat_sum / trials
    return SimulationReport(
        trials=trials,
        walk_length=walk_length,
        horizon=horizon,
        true_sigma=float(sigma),
        markov_acceptance_rate=accepted / trials,
        coverage_per_step=tuple(float(c) for c in covered / trials),
        sigma_hat_mean=sigma_hat_mean,
        sigma_hat_rel_error=abs(sigma_hat_mean - sigma) / sigma,
    )


# Acklam (2003) coefficients and the Royston (1992) correction polynomials,
# transcribed again so that the references below stand on their own.
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
ACKLAM_P_LOW = 0.02425
_ROYSTON_LAST = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_ROYSTON_SECOND = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)


def reference_norm_ppf(p: float) -> float:
    """Acklam's quantile with one Halley step, one Python float at a time.

    The scalar formula, evaluated with ``math`` only: the reference that
    ``norm_ppf`` must match bitwise, element by element.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"norm_ppf requires 0 < p < 1, got {p!r}")
    if p > 0.5:
        return -reference_norm_ppf(1.0 - p)
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < ACKLAM_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def reference_sw_weights(n: int) -> np.ndarray:
    """Royston's Shapiro-Wilk weights for n >= 3 from scalar Blom scores.

    Each Blom score is one :func:`reference_norm_ppf` call; the corrections,
    mirroring and renormalisation follow Royston (1992) as the library
    applies them, so the result must equal ``sw_coefficients(n)`` bitwise.
    """
    half = n // 2
    if n == 3:
        upper = np.array([math.sqrt(0.5)])
    else:
        m_up = np.array(
            [
                reference_norm_ppf((j - 0.375) / (n + 0.25))
                for j in range(n - half + 1, n + 1)
            ]
        )
        msq = 2.0 * float(np.add.reduce(m_up * m_up))
        u = 1.0 / math.sqrt(n)
        rms = math.sqrt(msq)
        a_last = np.polyval(_ROYSTON_LAST, u) + m_up[-1] / rms
        if n > 5:
            a_second = np.polyval(_ROYSTON_SECOND, u) + m_up[-2] / rms
            phi = (msq - 2.0 * m_up[-1] ** 2 - 2.0 * m_up[-2] ** 2) / (
                1.0 - 2.0 * a_last**2 - 2.0 * a_second**2
            )
            upper = np.concatenate([m_up[:-2] / math.sqrt(phi), [a_second, a_last]])
        else:
            phi = (msq - 2.0 * m_up[-1] ** 2) / (1.0 - 2.0 * a_last**2)
            upper = np.concatenate([m_up[:-1] / math.sqrt(phi), [a_last]])
    a = np.empty(n)
    a[n - half :] = upper
    a[:half] = -upper[::-1]
    if n % 2:
        a[half] = 0.0
    return a / math.sqrt(float(np.add.reduce(a * a)))


def reference_sw_pvalue(w: float, n: int) -> float:
    """Royston's Shapiro-Wilk p-value of one Python float W, with ``math`` only.

    The scalar transforms as Royston (1992) gives them: the exact arcsine
    law at n = 3, ``y = -ln(gamma - ln(1 - W))`` for n <= 11 (p clips to 0
    where the inner argument is not positive) and ``y = ln(1 - W)`` above,
    then the normal upper tail of ``(y - mu) / sigma``.  W a few ulp above 1
    is clamped to 1.  The array ``sw_pvalue`` must match it bitwise,
    element by element.
    """
    if not 3 <= n <= 5000:
        raise ValueError(f"sample size must be in [3, 5000], got {n}")
    if not 0.0 < w <= 1.0 + 1e-9:
        raise ValueError(f"W must lie in (0, 1], got {w!r}")
    w = min(w, 1.0)
    if n == 3:
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
    z = -(y - mu) / sigma
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
