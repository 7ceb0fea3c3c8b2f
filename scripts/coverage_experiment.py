#!/usr/bin/env python3
"""How well do the sqrt(k) bands cover reality, and what does it cost us
to estimate sigma instead of knowing it?

Sweeps the calibration harness over history lengths and prints per-step
band coverage.  Three things to look for in the output:

* coverage sits near 0.683 per step (the one-sigma mass), not near 1.0;
* coverage is flat in k -- the sqrt(k) width matches how the spread of a
  random walk actually grows;
* shorter histories drag coverage slightly below 0.683 because sigma-hat
  is noisier; the use_true_sigma column isolates that effect.

The "exact" column is the coverage theory predicts: with sigma-hat from
L-1 differences, (x_{L-1+k} - x_{L-1}) / (sqrt(k) sigma-hat) is Student-t
with L-2 degrees of freedom, so a step covers with P(|T_{L-2}| <= 1); with
the true sigma it covers with the normal mass P(|Z| <= 1).
"""

from __future__ import annotations

import argparse
import math

from markovband import DEFAULT_SEED, run_calibration
from markovband.simulate import t_coverage

TRIALS = 4000
HORIZON = 12
SIGMA = 1.0
WALK_LENGTHS = (20, 50, 100, 200)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=TRIALS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    print(f"trials={args.trials} horizon={HORIZON} sigma={SIGMA} seed={args.seed}")
    print()
    header = "length  est/true  accept  sig-rel-err  " + "  ".join(
        f"k={k:<4d}" for k in range(1, HORIZON + 1, 3)
    ) + "  min..max  exact"
    print(header)
    print("-" * len(header))
    for length in WALK_LENGTHS:
        for use_true in (False, True):
            rep = run_calibration(
                trials=args.trials,
                walk_length=length,
                sigma=SIGMA,
                horizon=HORIZON,
                seed=args.seed,
                use_true_sigma=use_true,
            )
            cov = rep.coverage_per_step
            picks = "  ".join(f"{cov[k - 1]:.3f}" for k in range(1, HORIZON + 1, 3))
            exact = math.erf(1.0 / math.sqrt(2.0)) if use_true else t_coverage(length - 2)
            print(
                f"{length:6d}  {'true' if use_true else 'est ':>8}  "
                f"{rep.markov_acceptance_rate:.3f}   {rep.sigma_hat_rel_error:>10.4f}  "
                f"{picks}  {min(cov):.3f}..{max(cov):.3f}  {exact:.4f}"
            )
    print()
    print("one-sigma normal mass = 0.6827; flat rows near the exact column mean")
    print("the bands are calibrated, and estimated sigma costs what the t law says")


if __name__ == "__main__":
    main()
