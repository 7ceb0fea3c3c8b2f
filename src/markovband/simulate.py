"""Monte Carlo calibration of the Markov check and the prediction bands.

Each trial generates a Gaussian random walk, runs the Markov check on a
history prefix, estimates sigma from that prefix, and then checks how often
the realized future falls inside the sqrt(k)-law band.  Aggregated over
trials this measures (a) the acceptance rate of the check on data that truly
satisfies the model and (b) the empirical coverage of the bands.  A
one-standard-deviation band covers a N(0,1) deviation with probability
erf(1/sqrt(2)) ~= 0.6827, so per-step coverage near 0.68 -- flat in k -- is
the calibrated outcome; coverage near 1.0 would signal a bug, not success.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forecast import check_walk
from .markov import check_rows
from .rng import DEFAULT_SEED, substream, substream_rows
from .series import TimeSeries
from .swilk import RULE_PAPER_THRESHOLD

__all__ = ["SimulationReport", "generate_walk", "run_calibration"]

MIN_TRIALS = 100
MIN_WALK_LENGTH = 10

#: Size cap of one block's walk matrix; calibration trials run in blocks.
BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated calibration results.

    ``coverage_per_step[k-1]`` is the fraction of trials whose realized
    step-k future landed inside x_last +/- sqrt(k) * sigma-hat.
    ``sigma_hat_rel_error`` is |mean sigma-hat - true sigma| / true sigma.
    """

    trials: int
    walk_length: int
    horizon: int
    true_sigma: float
    markov_acceptance_rate: float
    coverage_per_step: tuple[float, ...]
    sigma_hat_mean: float
    sigma_hat_rel_error: float

    def to_dict(self) -> dict:
        return {
            "trials": int(self.trials),
            "walk_length": int(self.walk_length),
            "horizon": int(self.horizon),
            "true_sigma": float(self.true_sigma),
            "markov_acceptance_rate": float(self.markov_acceptance_rate),
            "coverage_per_step": [float(c) for c in self.coverage_per_step],
            "sigma_hat_mean": float(self.sigma_hat_mean),
            "sigma_hat_rel_error": float(self.sigma_hat_rel_error),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _walk_values(x0: float, sigma: float, steps: int, gen) -> np.ndarray:
    noise = gen.standard_normal(steps) * sigma
    values = np.empty(steps + 1)
    values[0] = x0
    values[1:] = x0 + np.cumsum(noise)
    return values


def generate_walk(x0: float, sigma: float, length: int, seed: int) -> TimeSeries:
    """A Gaussian random walk of ``length`` observations starting at x0.

    Observation j is x0 plus the cumulative sum of j independent
    N(0, sigma^2) draws from ``substream(seed, 0)``; the same arguments
    always produce the identical series.
    """
    check_walk(x0, sigma, ("walk length", length, 2))
    return TimeSeries(values=_walk_values(x0, sigma, length - 1, substream(seed, 0)))


def run_calibration(
    trials: int = 2000,
    walk_length: int = 50,
    sigma: float = 1.0,
    horizon: int = 12,
    p: float = 0.05,
    rule: str = RULE_PAPER_THRESHOLD,
    seed: int = DEFAULT_SEED,
    use_true_sigma: bool = False,
) -> SimulationReport:
    """Measure acceptance rate and band coverage on true random walks.

    Trial t draws walk_length - 1 + horizon noise values from
    ``substream(seed, t)`` and builds one walk from them: the first
    ``walk_length`` observations are the history, the rest the future.  The
    Markov check runs on the history; the band is centered on the last
    history value with sigma-hat estimated from the history differences
    (or the true sigma when ``use_true_sigma`` is set).  Per-trial
    substreams make the report a pure function of its arguments and allow
    trials to be recomputed independently.

    Trials run as array code in blocks of :data:`BLOCK_BYTES` of walk
    matrix; the report is bitwise what one check per trial gives, and a
    history the check refuses raises the same error.
    """
    check_walk(
        0.0,
        sigma,
        ("trials", trials, MIN_TRIALS),
        ("walk_length", walk_length, MIN_WALK_LENGTH),
        ("horizon", horizon, 1),
    )
    if sigma == 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")

    width = walk_length + horizon
    block = max(1, BLOCK_BYTES // (8 * width))
    root_k = np.sqrt(np.arange(1, horizon + 1, dtype=float))
    accepted = 0
    covered = np.zeros(horizon, dtype=np.int64)
    sigma_hat_sum = 0.0
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        walks = np.empty((stop - start, width))
        walks[:, 0] = 0.0
        # x0 + cumsum with x0 = 0.0, as _walk_values forms it (-0.0 -> 0.0);
        # walks that overflow are left to the check, which refuses them.
        with np.errstate(over="ignore", invalid="ignore"):
            walks[:, 1:] = 0.0 + np.cumsum(
                substream_rows(seed, start, stop, width - 1) * sigma, axis=1
            )
        verdict = check_rows(walks[:, :walk_length], p=p, rule=rule)
        accepted += int(np.count_nonzero(verdict.is_markov))
        sigma_hat = verdict.error_stddev
        for s in sigma_hat.tolist():  # sequential, in trial order
            sigma_hat_sum += s
        band_sigma = sigma if use_true_sigma else sigma_hat[:, None]
        x_last = walks[:, walk_length - 1 : walk_length]
        covered += np.count_nonzero(
            np.abs(walks[:, walk_length:] - x_last) <= root_k * band_sigma, axis=0
        )

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
