"""Command-line interface.

Four subcommands -- check, forecast, cost, simulate -- emit JSON (or CSV for
plotting) on stdout and human-readable diagnostics on stderr, so output can
be piped into other tools.  Exit codes: 0 on success / affirmative verdict,
1 on a negative verdict or a refused forecast, 2 on unusable input or bad
arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, TypeVar

from .cost import (
    cost_band,
    load_events,
    load_rates,
    sample_cost_moments,
    summarize_costs,
)
from .forecast import ForecastBand, band, check_count, step_rows
from .markov import check_markov
from .rng import DEFAULT_SEED, check_seed
from .series import TimeSeries, load_series
from .simulate import (
    MIN_TRIALS,
    MIN_WALK_LENGTH,
    check_true_sigma,
    expected_acceptance,
    run_calibration,
    t_coverage,
)
from .swilk import RULE_PAPER_THRESHOLD, RULES, check_significance

__all__ = ["main", "build_parser"]

_MODEL_NOTE = "with respect to the additive Gaussian white-noise model"
_DRIFT_WARNING = "warning: mean step is far from zero; bands assume driftless noise"


T = TypeVar("T")


def _checked(
    convert: Callable[[str], T], check: Callable[[T], None]
) -> Callable[[str], T]:
    """An argparse ``type``: ``convert`` the text, then run a library validator.

    The validator's ValueError becomes a usage error in its own words, so a
    limit fails at parse time as ``argument --opt: <the library's message>``.
    Text that ``convert`` cannot read keeps argparse's ``invalid int value``,
    because the adapter carries ``convert``'s name.
    """

    def parse(text: str) -> T:
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovband",
        description=(
            "Decide whether a numeric series is Markovian (its first "
            "differences pass a Shapiro-Wilk normality check), forecast it "
            "with square-root-law prediction bands, and convert the bands "
            "into schedule-interruption costs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV file with the series")

    def add_rule(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--p",
            type=_checked(float, check_significance),
            default=0.05,
            help="significance level in (0, 0.5) (default: 0.05)",
        )
        p.add_argument(
            "--rule",
            choices=RULES,
            default=RULE_PAPER_THRESHOLD,
            help=(
                "decision rule: compare W against 1-2p (paper-threshold) "
                "or the p-value against p (default: paper-threshold)"
            ),
        )

    def add_horizon(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--horizon",
            type=_checked(int, lambda k: check_count("horizon", k, 1)),
            default=12,
            help="steps ahead (default: 12)",
        )

    def add_seed(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument(
            "--seed",
            type=_checked(int, check_seed),
            default=DEFAULT_SEED,
            help=help,
        )

    def add_force(p: argparse.ArgumentParser, output: str) -> None:
        p.add_argument(
            "--force",
            action="store_true",
            help=f"emit the {output} even when the series fails the Markov check",
        )

    p_check = sub.add_parser(
        "check", help="test whether the series passes the Markov check"
    )
    add_series(p_check)
    add_rule(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_forecast = sub.add_parser(
        "forecast", help="prediction band x0 +/- sqrt(k)*sigma for k=1..horizon"
    )
    add_series(p_forecast)
    add_rule(p_forecast)
    add_horizon(p_forecast)
    p_forecast.add_argument(
        "--format",
        choices=("json", "plot-csv"),
        default="json",
        help="output format (default: json)",
    )
    add_force(p_forecast, "band")
    p_forecast.set_defaults(func=_cmd_forecast)

    p_cost = sub.add_parser(
        "cost", help="convert the prediction band into interruption costs"
    )
    add_series(p_cost)
    add_rule(p_cost)
    p_cost.add_argument(
        "--events", required=True, help="CSV file with monthly event counts"
    )
    p_cost.add_argument(
        "--rates", required=True, help="key=value file with per-event dollar rates"
    )
    add_horizon(p_cost)
    p_cost.add_argument(
        "--sample",
        type=_checked(int, lambda n: check_count("count", n, 2)),
        default=None,
        metavar="N",
        help="also simulate N >= 2 cost paths and report per-step mean/stddev",
    )
    add_seed(p_cost, f"seed for --sample (default: {DEFAULT_SEED})")
    add_force(p_cost, "costs")
    p_cost.set_defaults(func=_cmd_cost)

    p_sim = sub.add_parser(
        "simulate",
        help="calibration run: acceptance rate and band coverage on true walks",
    )
    p_sim.add_argument(
        "--trials",
        type=_checked(int, lambda n: check_count("trials", n, MIN_TRIALS)),
        default=2000,
        help="walks (default: 2000)",
    )
    p_sim.add_argument(
        "--length",
        type=_checked(
            int, lambda n: check_count("walk_length", n, MIN_WALK_LENGTH)
        ),
        default=50,
        help="observations per walk (default: 50)",
    )
    p_sim.add_argument(
        "--sigma",
        type=_checked(float, check_true_sigma),
        default=1.0,
        help="true noise scale (default: 1.0)",
    )
    add_horizon(p_sim)
    add_rule(p_sim)
    add_seed(p_sim, f"default: {DEFAULT_SEED}")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    series = load_series(args.input)
    verdict = check_markov(series, p=args.p, rule=args.rule)
    print(json.dumps(verdict.to_dict(), indent=2))
    word = "Markov" if verdict.is_markov else "not Markov"
    print(f"verdict: series is {word} {_MODEL_NOTE}", file=sys.stderr)
    if verdict.drift_warning:
        print(_DRIFT_WARNING, file=sys.stderr)
    return 0 if verdict.is_markov else 1


def _emit_band(
    series: TimeSeries,
    args: argparse.Namespace,
    action: str,
    output: str,
    render: Callable[[ForecastBand], str],
) -> int:
    """Print ``render`` of the band of ``series``: 0, or 1 when its Markov check stops.

    The check takes ``--p`` and ``--rule``.  A refusal names on stderr what
    the rule compared: W against its threshold, or the p-value of W against
    p.  ``--force`` goes on under a warning instead, and a band for a
    drifting series carries the drift warning of ``check``.  Both warnings
    go out only once ``render`` has built the output, so a command that
    fails while building it prints its error line alone.
    """
    verdict = check_markov(series, p=args.p, rule=args.rule)
    if not verdict.is_markov and not args.force:
        sw = verdict.sw
        if sw.p_value is None:
            compared = f"W={sw.w:.6g}, threshold={sw.threshold:.6g}"
        else:
            compared = f"p-value={sw.p_value:.6g}, p={sw.threshold:.6g}"
        print(
            f"refusing to {action}: series is not Markov {_MODEL_NOTE} "
            f"({compared}); "
            f"pass --force to emit the {output} anyway",
            file=sys.stderr,
        )
        return 1
    text = render(band(series, args.horizon, verdict))
    if not verdict.is_markov:
        print(
            f"warning: series failed the Markov check {_MODEL_NOTE}; "
            f"{output} emitted because --force was given",
            file=sys.stderr,
        )
    if verdict.drift_warning:
        print(_DRIFT_WARNING, file=sys.stderr)
    print(text)
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    def render(b: ForecastBand) -> str:
        if args.format == "json":
            return json.dumps(b.to_dict(), indent=2)
        rows = step_rows(lower=b.lower, upper=b.upper)
        return "\n".join(
            ["k,lower,x0,upper"]
            + [f"{r['k']},{r['lower']!r},{b.x0!r},{r['upper']!r}" for r in rows]
        )

    return _emit_band(load_series(args.input), args, "forecast", "band", render)


def _cmd_cost(args: argparse.Namespace) -> int:
    series = load_series(args.input)

    def render(b: ForecastBand) -> str:
        summary = summarize_costs(load_events(args.events), load_rates(args.rates))
        payload = cost_band(b, summary).to_dict()
        if args.sample is not None:
            mean, std = sample_cost_moments(
                b.x0, b.sigma, b.horizon, summary, args.sample, args.seed
            )
            payload["samples_summary"] = {
                "count": args.sample,
                "seed": args.seed,
                "per_step": step_rows(mean=mean, stddev=std),
            }
        return json.dumps(payload, indent=2)

    return _emit_band(series, args, "cost the forecast", "costs", render)


def _cmd_simulate(args: argparse.Namespace) -> int:
    report = run_calibration(
        trials=args.trials,
        walk_length=args.length,
        sigma=args.sigma,
        horizon=args.horizon,
        p=args.p,
        rule=args.rule,
        seed=args.seed,
    )
    print(report.to_json())
    accept = expected_acceptance(args.length, args.p, args.rule)
    print(
        f"expected acceptance: {accept:.4f} of true walks of length {args.length} "
        f"pass the {args.rule} rule at p = {args.p:g}",
        file=sys.stderr,
    )
    df = args.length - 2
    print(
        f"coverage is measured against +/- 1 sigma-hat bands {_MODEL_NOTE}; "
        f"P(|T_{df}| <= 1) = {t_coverage(df):.4f} per step is the calibrated value",
        file=sys.stderr,
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    Reuse is safe: ``parse_args`` fills a fresh Namespace on every call and
    no argument has a mutable default.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
