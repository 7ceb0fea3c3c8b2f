"""What the Markov check cannot tell: Gaussian series that are not walks.

The check asks only whether the first differences look normal.  Every
Gaussian linear process has normal differences, so the check passes such a
series at about a true walk's rate.  The band assumes the sqrt(k) law of
independent steps, which such a series breaks: its step-k coverage is about
2 Phi(1/sqrt(VR(k))) - 1, where VR(k) = Var(x_{t+k} - x_t) / (k Var(step))
is the variance ratio of Lo & MacKinlay (Review of Financial Studies,
1988).  "About", because the band's sigma-hat has its own sampling error.

Each kind below draws SERIES series of LENGTH observations and HORIZON more
from its own Philox stream, and checks the histories one block a kind with
``check_rows`` under the p-value rule.  The tests pin the acceptance near a
true walk's 1 - p and the step-12 coverage of the sigma-hat band near its
closed form, so that a change in the check's power or in the band shows.

Each window is the largest deviation seen over seeds 0-29 plus two standard
deviations of the 30 values (docs/algorithms.md, "What the check cannot
tell", gives the spreads); the tests run one seed outside that set.
"""

import math

import numpy as np
import pytest

from markovband.markov import check_rows
from markovband.rng import DEFAULT_SEED, substream
from markovband.simulate import t_coverage
from markovband.swilk import RULE_P_VALUE

LENGTH = 50
HORIZON = 12
SERIES = 4000
PHI = 0.5
P = 0.05
SEED = DEFAULT_SEED


def stationary_ar1(gen, rows, cols, phi):
    """Rows of a stationary AR(1) with N(0, 1) innovations."""
    x = gen.standard_normal((rows, cols))
    x[:, 0] /= math.sqrt(1.0 - phi * phi)
    for t in range(1, cols):
        x[:, t] += phi * x[:, t - 1]
    return x


def walk(gen, rows, cols):
    return np.cumsum(gen.standard_normal((rows, cols)), axis=1)


def noise(gen, rows, cols):
    return gen.standard_normal((rows, cols))


def ar1(gen, rows, cols):
    return stationary_ar1(gen, rows, cols, PHI)


def walk_of_ar1_steps(gen, rows, cols):
    return np.cumsum(stationary_ar1(gen, rows, cols, PHI), axis=1)


def band_coverage(vr):
    """2 Phi(1/sqrt(vr)) - 1: step coverage of a band that assumes VR = 1."""
    return math.erf(1.0 / math.sqrt(2.0 * vr))


K = HORIZON
#: kind -> (generator, closed-form step-K coverage of the sigma-hat band,
#: largest |acceptance - (1 - P)|, largest |coverage - closed form|)
KINDS = {
    "walk": (walk, t_coverage(LENGTH - 2), 0.016, 0.027),
    "noise": (noise, band_coverage(1.0 / K), 0.026, 0.0025),
    "ar1": (ar1, band_coverage((1.0 - PHI**K) / (K * (1.0 - PHI))), 0.014, 0.012),
    "walk of ar1 steps": (
        walk_of_ar1_steps,
        band_coverage(1.0 + 2.0 * sum((1.0 - j / K) * PHI**j for j in range(1, K))),
        0.030,
        0.045,
    ),
}


def measure(kind, seed):
    """Acceptance rate and step-HORIZON band coverage of one kind's series."""
    generate = KINDS[kind][0]
    series = generate(substream(seed, list(KINDS).index(kind)), SERIES, LENGTH + HORIZON)
    history = series[:, :LENGTH]
    verdict = check_rows(history, p=P, rule=RULE_P_VALUE)
    miss = np.abs(series[:, -1] - history[:, -1])
    covered = miss <= math.sqrt(HORIZON) * verdict.error_stddev
    return verdict.is_markov.mean(), covered.mean()


@pytest.fixture(scope="module")
def measured():
    return {kind: measure(kind, SEED) for kind in KINDS}


def test_closed_forms_are_the_tabled_values():
    # the table in docs/algorithms.md, "What the check cannot tell"
    expected = {"walk": 0.678, "noise": 0.9995, "ar1": 0.986, "walk of ar1 steps": 0.460}
    for kind, (_, closed, _, _) in KINDS.items():
        assert closed == pytest.approx(expected[kind], abs=5e-4), kind


@pytest.mark.parametrize("kind", KINDS)
def test_the_check_passes_each_gaussian_kind_at_about_a_walks_rate(measured, kind):
    acceptance, _ = measured[kind]
    tol = KINDS[kind][2]
    assert abs(acceptance - (1.0 - P)) <= tol, acceptance


@pytest.mark.parametrize("kind", KINDS)
def test_band_coverage_at_step_12_follows_the_variance_ratio(measured, kind):
    _, coverage = measured[kind]
    _, closed, _, tol = KINDS[kind]
    assert abs(coverage - closed) <= tol, (coverage, closed)
