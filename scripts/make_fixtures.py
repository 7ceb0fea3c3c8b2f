#!/usr/bin/env python3
"""Regenerate the CSV fixtures under tests/data.

Everything is drawn from fixed Philox substreams, so rerunning this script
reproduces the committed files byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from markovband import check_markov, generate_walk, load_series
from markovband.rng import substream

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

WALK_SEED = 20250501
WALK_LENGTH = 120
WALK_X0 = 10.0
WALK_SIGMA = 2.0

SKEW_LENGTH = 60
SKEW_SCALE = 2.0

DRIFT_LENGTH = 60
DRIFT_STEP = 0.8  # mean step, in units of WALK_SIGMA


def write(name: str, text: str) -> Path:
    path = DATA_DIR / name
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return path


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    # A genuine Gaussian random walk: month labels in column 0, counts last.
    walk = generate_walk(WALK_X0, WALK_SIGMA, WALK_LENGTH, seed=WALK_SEED)
    lines = ["month,count"]
    lines += [f"m{i + 1:03d},{float(v)!r}" for i, v in enumerate(walk.values)]
    walk_path = write("gaussian_walk.csv", "\n".join(lines) + "\n")

    # Heavily right-skewed increments: exponential steps, single column,
    # no header.  First differences are exponential, nowhere near normal.
    steps = substream(WALK_SEED, 1).exponential(scale=SKEW_SCALE, size=SKEW_LENGTH - 1)
    values = np.concatenate([[WALK_X0], WALK_X0 + np.cumsum(steps)])
    skew_path = write(
        "skewed.csv", "\n".join(repr(float(v)) for v in values) + "\n"
    )

    # A walk that drifts: Gaussian steps of mean 0.8 sigma, single column,
    # no header.  Its differences are normal, so it passes the check, but
    # its mean step is about six standard errors from zero.
    noise = substream(WALK_SEED, 3).standard_normal(DRIFT_LENGTH - 1)
    steps = WALK_SIGMA * (DRIFT_STEP + noise)
    values = np.concatenate([[WALK_X0], WALK_X0 + np.cumsum(steps)])
    drift_path = write(
        "drift_walk.csv", "\n".join(repr(float(v)) for v in values) + "\n"
    )

    # A pure ramp: zero-variance differences, the degenerate refusal case.
    write("ramp.csv", "\n".join(str(v) for v in range(1, 6)) + "\n")

    # Twelve months of event counts; small integers, at least one
    # interruption every month so per-interruption costs are defined.
    gen = substream(WALK_SEED, 2)
    rows = ["month,delays,cancellations,diversions,air_turnbacks,spares"]
    for i in range(12):
        delays = int(gen.integers(1, 9))  # >= 1 keeps the month usable
        cancels, diverts, turnbacks, spares = (int(x) for x in gen.integers(0, 4, 4))
        rows.append(f"m{i + 1:03d},{delays},{cancels},{diverts},{turnbacks},{spares}")
    write("events.csv", "\n".join(rows) + "\n")

    write(
        "rates.cfg",
        "\n".join(
            [
                "# dollar cost per event",
                "delay = 10000",
                "cancellation = 50000",
                "diversion = 0",
                "air_turnback = 20000",
                "spare = 5000",
            ]
        )
        + "\n",
    )

    # Sanity: the walk passes the check, the skewed series fails it, and
    # the drifting walk passes it under a drift warning.
    v = check_markov(load_series(walk_path))
    s = check_markov(load_series(skew_path))
    d = check_markov(load_series(drift_path))
    print(f"gaussian walk: is_markov={v.is_markov} W={v.sw.w:.4f}")
    print(f"skewed:        is_markov={s.is_markov} W={s.sw.w:.4f}")
    print(f"drifting walk: is_markov={d.is_markov} W={d.sw.w:.4f} "
          f"drift_warning={d.drift_warning}")
    assert v.is_markov and not s.is_markov
    assert d.is_markov and d.drift_warning


if __name__ == "__main__":
    main()
