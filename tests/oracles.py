"""Independent reference implementations used to validate the package.

Nothing here imports from markovband's internals beyond its public API;
each oracle recomputes its target quantity from the defining formula by a
different route than the library takes.
"""

from __future__ import annotations

import numpy as np

from markovband.markov import check_markov
from markovband.rng import substream
from markovband.series import TimeSeries
from markovband.simulate import SimulationReport


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


def reference_calibration(
    trials: int,
    walk_length: int,
    sigma: float,
    horizon: int,
    p: float,
    rule: str,
    seed: int,
    use_true_sigma: bool = False,
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
        sigma_hat_sum += verdict.error_stddev
        band_sigma = sigma if use_true_sigma else verdict.error_stddev
        x_last = values[walk_length - 1]
        covered += np.abs(values[walk_length:] - x_last) <= root_k * band_sigma
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
