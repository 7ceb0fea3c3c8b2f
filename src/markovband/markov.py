"""Markov-property check for a noisy count series.

A series is accepted as Markovian when its first differences look like white
Gaussian noise: under the additive-noise model each observation is the
previous one plus an independent N(0, sigma^2) draw, so the differences are
an i.i.d. normal sample and the Shapiro-Wilk test applies.  The verdict is
therefore always relative to that model -- an accepted series is "Markov with
respect to additive Gaussian noise", not Markov in any wider sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, diff_rows, zero_variance_error
from .swilk import (
    MAX_SAMPLE,
    MIN_SAMPLE,
    RULE_PAPER_THRESHOLD,
    SWResult,
    sw_decide,
    sw_statistic,
)

__all__ = [
    "MIN_CHECK_LENGTH",
    "MAX_CHECK_LENGTH",
    "DRIFT_SIGMAS",
    "MarkovVerdict",
    "check_markov",
    "check_rows",
]

#: Shortest and longest series the check accepts: one more than the sample
#: sizes over which Royston's W and its p-values are validated.
MIN_CHECK_LENGTH = MIN_SAMPLE + 1
MAX_CHECK_LENGTH = MAX_SAMPLE + 1

#: Drift flag threshold: |mean error| exceeding this many standard errors.
DRIFT_SIGMAS = 2.0


@dataclass(frozen=True)
class MarkovVerdict:
    """Outcome of the Markov check.

    ``drift_warning`` is set when the mean error differs from zero by more
    than ``DRIFT_SIGMAS`` standard errors of the mean; a drifting series can
    still pass the normality test (the differences are normal around a
    nonzero center) but violates the zero-mean noise assumption, so the
    symmetric prediction bands would be miscentered.  For a block of
    histories, each field but ``n_errors`` holds one entry per history.
    """

    is_markov: bool | np.ndarray
    sw: SWResult
    error_mean: float | np.ndarray
    error_stddev: float | np.ndarray
    n_errors: int

    @property
    def drift_warning(self) -> bool | np.ndarray:
        limit = DRIFT_SIGMAS * self.error_stddev / math.sqrt(self.n_errors)
        return abs(self.error_mean) > limit

    def to_dict(self) -> dict:
        """One series' ``check`` payload; ``p_value`` under the p-value rule only."""
        p_value = {} if self.sw.p_value is None else {"p_value": self.sw.p_value}
        return {
            "is_markov": self.is_markov,
            "w": self.sw.w,
            "threshold": self.sw.threshold,
            "rule": self.sw.rule,
            **p_value,
            "error_mean": self.error_mean,
            "error_stddev": self.error_stddev,
            "drift_warning": self.drift_warning,
            "n_errors": self.n_errors,
        }


def check_markov(
    series: TimeSeries, p: float = 0.05, rule: str = RULE_PAPER_THRESHOLD
) -> MarkovVerdict:
    """Decide whether ``series`` is Markovian under the additive-noise model.

    The one-row case of :func:`check_rows`.  Refuses, by length, a series
    outside :data:`MIN_CHECK_LENGTH` to :data:`MAX_CHECK_LENGTH`
    observations; by name, differences that overflow float64; and, with
    :class:`~markovband.series.DegenerateSeriesError`, differences of zero
    variance: all equal (e.g. a pure ramp) or with a spread that underflows.
    """
    return check_rows(series.values, p=p, rule=rule)


def check_rows(
    histories: np.ndarray, p: float = 0.05, rule: str = RULE_PAPER_THRESHOLD
) -> MarkovVerdict:
    """Markov verdicts for the last-axis rows of a ``(..., L)`` array of histories.

    Each row's verdict is bitwise the one :func:`check_markov` gives it; a
    refused block raises what ``check_markov(TimeSeries(row))`` raises on
    its first refused row.
    """
    values = np.asarray(histories, dtype=float)
    length = values.shape[-1]
    try:
        if not MIN_CHECK_LENGTH <= length <= MAX_CHECK_LENGTH:
            raise ValueError(
                f"Markov check requires at least {MIN_CHECK_LENGTH} observations "
                f"and at most {MAX_CHECK_LENGTH} (Royston's W is validated for "
                f"{MIN_SAMPLE} to {MAX_SAMPLE} differences); the series has {length}"
            )
        errors, mean, variance = diff_rows(values)
        if (variance == 0.0).any():
            raise zero_variance_error(errors)
        sw = sw_decide(sw_statistic(errors), length - 1, p=p, rule=rule)
    except ValueError:
        if values.ndim > 1:  # raise what the first refused row raises alone
            for row in values.reshape(-1, length):
                check_markov(TimeSeries(values=row), p=p, rule=rule)
        raise
    stddev = np.sqrt(variance)
    if values.ndim == 1:  # one series: Python scalars
        mean, stddev = mean.item(), stddev.item()
    return MarkovVerdict(
        is_markov=sw.normal,
        sw=sw,
        error_mean=mean,
        error_stddev=stddev,
        n_errors=length - 1,
    )
