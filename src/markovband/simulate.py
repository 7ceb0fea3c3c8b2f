"""Monte Carlo calibration of the Markov check and the prediction bands.

Each trial generates a Gaussian random walk, runs the Markov check on a
history prefix, estimates sigma from that prefix, and then checks how often
the realized future falls inside the sqrt(k)-law band.  Aggregated over
trials this measures (a) the acceptance rate of the check on data that truly
satisfies the model and (b) the empirical coverage of the bands.  A band
of one true sigma covers a N(0,1) deviation with probability
erf(1/sqrt(2)) ~= 0.6827.  With sigma-hat estimated from the L - 1
differences of an L-point history, the step-k deviation over
sqrt(k) * sigma-hat is Student t with L - 2 degrees of freedom, so the
calibrated per-step coverage is exactly P(|T_{L-2}| <= 1), flat in k
(:func:`t_coverage`): 0.653 at L = 10, 0.659 at 12, 0.669 at 20 and 0.678
at 50, rising to 0.683 as L grows.  Coverage near 1.0 would signal a bug,
not success.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .forecast import check_walk, sample_paths, walk_in_place
from .markov import check_rows
from .rng import DEFAULT_SEED, stream_filler
from .series import TimeSeries
from .swilk import RULE_P_VALUE, RULE_PAPER_THRESHOLD, check_decision, sw_pvalue

__all__ = [
    "SimulationReport",
    "expected_acceptance",
    "generate_walk",
    "run_calibration",
    "t_coverage",
]

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


def check_true_sigma(sigma: float) -> None:
    """Refuse a true noise scale that is not finite and > 0."""
    check_walk(0.0, sigma)
    if sigma == 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")


def generate_walk(x0: float, sigma: float, length: int, seed: int) -> TimeSeries:
    """A Gaussian random walk of ``length`` observations starting at x0.

    Observation j is x0 plus the cumulative sum of j independent
    N(0, sigma^2) draws from ``substream(seed, 0)``: x0 followed by the one
    path of ``sample_paths(x0, sigma, length - 1, 1, seed)``.  The same
    arguments always produce the identical series.
    """
    check_walk(x0, sigma, ("walk length", length, 2))
    # A walk that overflows is left to TimeSeries, which refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        path = sample_paths(x0, sigma, length - 1, 1, seed)[0]
    return TimeSeries(values=np.concatenate(([x0], path)))


def run_calibration(
    trials: int = 2000,
    walk_length: int = 50,
    sigma: float = 1.0,
    horizon: int = 12,
    p: float = 0.05,
    rule: str = RULE_PAPER_THRESHOLD,
    seed: int = DEFAULT_SEED,
) -> SimulationReport:
    """Measure acceptance rate and band coverage on true random walks.

    Trial t draws walk_length - 1 + horizon noise values from
    ``substream(seed, t)`` and builds one walk from them: the first
    ``walk_length`` observations are the history, the rest the future.  The
    Markov check runs on the history; the band is centered on the last
    history value with sigma-hat estimated from the history differences.
    Per-trial substreams make the report a pure function of its arguments
    and allow trials to be recomputed independently.

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
    # A sigma below zero is refused before the counts, a zero one after them.
    check_true_sigma(sigma)

    width = walk_length + horizon
    block = max(1, BLOCK_BYTES // (8 * width))
    root_k = np.sqrt(np.arange(1, horizon + 1, dtype=float))
    accepted = 0
    covered = np.zeros(horizon, dtype=np.int64)
    sigma_hat_sum = 0.0
    fill = stream_filler(seed)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        walks = np.empty((stop - start, width))
        walks[:, 0] = 0.0
        for stream, row in enumerate(walks[:, 1:], start):
            fill(stream, row)
        # Walks that overflow are left to the check, which refuses them.
        with np.errstate(over="ignore", invalid="ignore"):
            walk_in_place(walks[:, 1:], 0.0, sigma)
        verdict = check_rows(walks[:, :walk_length], p=p, rule=rule)
        accepted += int(np.count_nonzero(verdict.is_markov))
        sigma_hat = verdict.error_stddev
        for s in sigma_hat.tolist():  # sequential, in trial order
            sigma_hat_sum += s
        x_last = walks[:, walk_length - 1 : walk_length]
        covered += np.count_nonzero(
            np.abs(walks[:, walk_length:] - x_last) <= root_k * sigma_hat[:, None],
            axis=0,
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


def t_coverage(df: int) -> float:
    """P(|T| <= 1) for Student-t with integer df >= 1 (A&S 26.7.3-4)."""
    theta = math.atan(1.0 / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2:
        # odd df: (2/pi) (theta + sin cos (1 + 2/3 cos^2 + 2*4/(3*5) cos^4 ...))
        term, total = 1.0, 0.0
        for j in range(1, (df - 1) // 2 + 1):
            total += term
            term *= c2 * (2 * j) / (2 * j + 1)
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    # even df: sin (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 + ...)
    term, total = 1.0, 0.0
    for j in range(1, df // 2 + 1):
        total += term
        term *= c2 * (2 * j - 1) / (2 * j)
    return math.sin(theta) * total


def expected_acceptance(walk_length: int, p: float, rule: str) -> float:
    """The chance that the Markov check accepts a true walk of ``walk_length``.

    Under ``p-value`` a walk passes when the p-value of W is >= p, which
    happens with probability 1 - p.  Under ``paper-threshold`` it passes
    when W >= 1 - 2p.  Royston's p-value of W is the normal-theory P(W' <= W)
    at the walk's L - 1 differences, so that chance is
    ``1 - sw_pvalue(1 - 2p, L - 1)``, as exact as his approximation.
    """
    check_decision(p, rule)
    if rule == RULE_P_VALUE:
        return 1.0 - p
    return 1.0 - sw_pvalue(1.0 - 2.0 * p, walk_length - 1)
