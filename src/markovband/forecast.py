"""Square-root-law prediction bands and Monte Carlo path sampling.

Under the additive white-noise model the k-step-ahead value is
x_0 + sum of k independent N(0, sigma^2) draws, i.e. N(x_0, k sigma^2).
The band at step k is x_0 +/- sqrt(k) * sigma: the one-standard-deviation
envelope of that distribution, covering about 68.3% of realized paths per
step (not all of them -- Gaussian steps are unbounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import standard_normal_matrix
from .series import TimeSeries

if TYPE_CHECKING:
    from .markov import MarkovVerdict

__all__ = [
    "ForecastBand",
    "check_count",
    "check_walk",
    "make_band",
    "band",
    "walk_in_place",
    "sample_paths",
    "step_rows",
]


def step_rows(**columns: np.ndarray) -> list[dict]:
    """Rows ``{"k": k, name: column[k - 1], ...}`` for k = 1..h, in Python floats."""
    steps = zip(*(column.tolist() for column in columns.values()))
    return [{"k": k, **dict(zip(columns, row))} for k, row in enumerate(steps, 1)]


@dataclass(frozen=True, eq=False)
class ForecastBand:
    """Prediction band for horizons k = 1..horizon.

    ``lower[k-1]`` and ``upper[k-1]`` bound step k; the band is exactly
    symmetric about ``x0`` (``upper - x0 == x0 - lower`` bitwise) and its
    half-width grows as sqrt(k) * sigma.
    """

    x0: float
    sigma: float
    horizon: int
    lower: np.ndarray
    upper: np.ndarray

    def half_widths(self) -> np.ndarray:
        return self.upper - self.x0

    def to_dict(self) -> dict:
        """The ``forecast`` payload: anchor, scale, horizon and one row a step."""
        return {
            "x0": self.x0,
            "sigma": self.sigma,
            "horizon": self.horizon,
            "bands": step_rows(lower=self.lower, upper=self.upper),
        }


def check_count(name: str, value: int, least: int) -> None:
    """Refuse a count ``value`` below ``least``, naming it ``name``."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_walk(x0: float, sigma: float, *counts: tuple[str, int, int]) -> None:
    """Validate the parameters of a random walk from x0 with step scale sigma.

    x0 must be finite and sigma finite and non-negative; each
    ``(name, value, least)`` in ``counts`` goes to :func:`check_count`.
    Raises ValueError naming the first parameter that fails.
    """
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    for count in counts:
        check_count(*count)


def make_band(x0: float, sigma: float, horizon: int) -> ForecastBand:
    """Band x0 +/- sqrt(k)*sigma for k = 1..horizon from explicit parameters.

    ``sigma`` may be zero (a deliberately flat band); it must be finite and
    non-negative, and ``horizon`` at least 1.
    """
    check_walk(x0, sigma, ("horizon", horizon, 1))
    k = np.arange(1, horizon + 1, dtype=float)
    half = np.sqrt(k) * sigma
    # Snap each half-width onto the float grid at |x0| so that x0 + off and
    # x0 - off mirror bitwise; the adjustment is at most one ulp of the edge.
    m = abs(x0)
    off = (m + half) - m
    lower = x0 - off
    upper = x0 + off
    lower.setflags(write=False)
    upper.setflags(write=False)
    return ForecastBand(
        x0=float(x0), sigma=float(sigma), horizon=int(horizon), lower=lower, upper=upper
    )


def band(series: TimeSeries, horizon: int, verdict: MarkovVerdict) -> ForecastBand:
    """Band anchored at the last observation of ``series``, scaled by its verdict.

    sigma-hat is ``verdict.error_stddev``, the sample standard deviation of
    the first differences that :func:`~markovband.markov.check_markov`
    computed for ``series``; the series is not differenced again.  A series
    the check refuses (too short or long, overflowing, or with differences
    of zero variance) has no verdict, so it has no band either.
    """
    return make_band(float(series.values[-1]), verdict.error_stddev, horizon)


def walk_in_place(noise: np.ndarray, x0: float, sigma: float) -> None:
    """Turn rows of standard normal noise into walks x0 + cumsum(noise * sigma).

    Each row of ``noise`` becomes one path; the ops are those of
    :func:`sample_paths`, done in place, so the values are the same bits.
    """
    noise *= sigma
    np.cumsum(noise, axis=1, out=noise)
    noise += x0


def sample_paths(
    x0: float, sigma: float, horizon: int, count: int, seed: int
) -> np.ndarray:
    """Simulate ``count`` random-walk paths of ``horizon`` steps from x0.

    Returns a (count, horizon) array whose column k-1 holds the step-k values
    x_k = x_0 + sum_{j<=k} eps_j with eps_j ~ N(0, sigma^2).  Output is a
    deterministic function of (x0, sigma, horizon, count, seed); the noise
    comes from fixed Philox substreams of ``seed``.
    """
    check_walk(x0, sigma, ("horizon", horizon, 1), ("count", count, 1))
    paths = standard_normal_matrix(seed, count, horizon)
    walk_in_place(paths, x0, sigma)
    return paths
