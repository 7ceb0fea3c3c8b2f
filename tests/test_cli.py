import functools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entry_point import run_module

import markovband as mb
from markovband import cli
from markovband.cli import main
from markovband.forecast import step_rows

DATA = Path(__file__).parent / "data"
WALK = str(DATA / "gaussian_walk.csv")
SKEWED = str(DATA / "skewed.csv")
RAMP = str(DATA / "ramp.csv")
DRIFT = str(DATA / "drift_walk.csv")
EVENTS = str(DATA / "events.csv")
RATES = str(DATA / "rates.cfg")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ check


def test_check_accepts_the_walk_fixture(capsys):
    code, out, err = run_cli(capsys, "check", "--input", WALK)
    payload = json.loads(out)
    verdict = mb.check_markov(mb.load_series(WALK))
    assert code == 0
    assert payload["is_markov"] is True
    assert payload["w"] == verdict.sw.w
    assert payload["threshold"] == 0.9
    assert payload["rule"] == "paper-threshold"
    assert "p_value" not in payload
    assert payload["error_mean"] == verdict.error_mean
    assert payload["error_stddev"] == verdict.error_stddev
    assert payload["drift_warning"] is False
    assert payload["n_errors"] == 119
    assert "additive Gaussian white-noise model" in err


def test_check_pvalue_rule_reports_pvalue(capsys):
    code, out, _ = run_cli(capsys, "check", "--input", WALK, "--rule", "p-value")
    payload = json.loads(out)
    assert code == 0
    assert payload["rule"] == "p-value"
    assert payload["threshold"] == 0.05
    assert 0.0 <= payload["p_value"] <= 1.0


@pytest.mark.parametrize("path", [WALK, SKEWED], ids=["walk", "skewed"])
@pytest.mark.parametrize("rule", mb.RULES)
def test_check_prints_the_verdicts_payload(capsys, path, rule):
    _, out, _ = run_cli(capsys, "check", "--input", path, "--rule", rule)
    verdict = mb.check_markov(mb.load_series(path), rule=rule)
    assert out == json.dumps(verdict.to_dict(), indent=2) + "\n"


def test_check_rejects_the_skewed_fixture(capsys):
    code, out, err = run_cli(capsys, "check", "--input", SKEWED)
    payload = json.loads(out)
    assert code == 1
    assert payload["is_markov"] is False
    assert "not Markov" in err


def test_check_ramp_exits_2_with_degenerate_message(capsys):
    code, out, err = run_cli(capsys, "check", "--input", RAMP)
    assert code == 2
    assert out == ""
    assert "differences are equal" in err


def test_an_underflowing_spread_exits_2_naming_the_underflow(capsys, tmp_path):
    series = tmp_path / "tiny.csv"
    series.write_text("0\n1e-320\n0\n2e-320\n-1e-320\n0\n")
    code, out, err = run_cli(capsys, "check", "--input", str(series))
    assert code == 2
    assert out == ""
    assert "underflow" in err
    assert "differences are equal" not in err

    # --force overrides a negative verdict, not a series the check refuses
    code, out, err = run_cli(capsys, "cost", "--input", str(series),
                             "--events", EVENTS, "--rates", RATES, "--force")
    assert code == 2
    assert out == ""
    assert only_error_line(err), err
    assert "underflow" in err


def test_simulate_with_an_underflowing_sigma_exits_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--trials", "100", "--sigma", "1e-162")
    assert code == 2
    assert out == ""
    assert "underflow" in err


def test_check_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "--input", "does-not-exist.csv")
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: 'does-not-exist.csv'\n"


def test_check_a_directory_exits_2_naming_it(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "--input", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_check_bad_significance_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", WALK, "--p", "0.6"])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --------------------------------------------------------------- forecast


def test_forecast_emits_the_band(capsys):
    code, out, _ = run_cli(capsys, "forecast", "--input", WALK, "--horizon", "5")
    payload = json.loads(out)
    series = mb.load_series(WALK)
    b = mb.band(series, 5, mb.check_markov(series))
    assert code == 0
    assert payload["x0"] == b.x0
    assert payload["sigma"] == b.sigma
    assert payload["horizon"] == 5
    assert [row["k"] for row in payload["bands"]] == [1, 2, 3, 4, 5]
    assert [row["lower"] for row in payload["bands"]] == list(b.lower)
    assert [row["upper"] for row in payload["bands"]] == list(b.upper)


@pytest.mark.parametrize(
    "path, force", [(WALK, []), (SKEWED, ["--force"])], ids=["walk", "skewed-force"]
)
@pytest.mark.parametrize("rule", mb.RULES)
def test_forecast_prints_the_bands_payload(capsys, path, force, rule):
    _, out, _ = run_cli(capsys, "forecast", "--input", path, "--rule", rule, *force)
    series = mb.load_series(path)
    b = mb.band(series, 12, mb.check_markov(series, rule=rule))
    assert out == json.dumps(b.to_dict(), indent=2) + "\n"


def test_forecast_plot_csv_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "forecast", "--input", WALK, "--horizon", "4", "--format", "plot-csv"
    )
    lines = out.strip().splitlines()
    series = mb.load_series(WALK)
    b = mb.band(series, 4, mb.check_markov(series))
    assert code == 0
    assert lines[0] == "k,lower,x0,upper"
    assert len(lines) == 5
    for k, line in enumerate(lines[1:], start=1):
        ks, lo, x0, hi = line.split(",")
        assert int(ks) == k
        assert float(lo) == b.lower[k - 1]  # repr round-trips exactly
        assert float(x0) == b.x0
        assert float(hi) == b.upper[k - 1]


def test_forecast_refuses_non_markov_without_force(capsys):
    code, out, err = run_cli(capsys, "forecast", "--input", SKEWED)
    assert code == 1
    assert out == ""
    assert "refusing to forecast" in err
    assert "--force" in err


@pytest.mark.parametrize("rule", mb.RULES)
def test_forecast_refusal_names_the_quantity_its_rule_compared(capsys, rule):
    code, out, err = run_cli(capsys, "forecast", "--input", SKEWED, "--rule", rule)
    sw = mb.check_markov(mb.load_series(SKEWED), rule=rule).sw
    assert code == 1
    assert out == ""
    if rule == "p-value":
        # the p-value of W is what is held against p, not W itself
        assert f"(p-value={sw.p_value:.6g}, p={sw.threshold:.6g})" in err
        assert "W=" not in err
    else:
        assert f"(W={sw.w:.6g}, threshold={sw.threshold:.6g})" in err
        assert "p-value" not in err


def test_forecast_force_overrides_refusal(capsys):
    code, out, err = run_cli(capsys, "forecast", "--input", SKEWED, "--force")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["bands"]) == 12  # default horizon
    assert "warning" in err


@pytest.mark.parametrize("argv", [
    ["forecast", "--input", DRIFT],
    ["cost", "--input", DRIFT, "--events", EVENTS, "--rates", RATES],
], ids=["forecast", "cost"])
def test_a_band_for_a_drifting_walk_carries_the_drift_warning_of_check(capsys, argv):
    # a 60-point walk with mean step 0.8 sigma: normal steps, so it passes
    verdict = mb.check_markov(mb.load_series(DRIFT))
    assert verdict.is_markov and verdict.drift_warning
    _, _, check_err = run_cli(capsys, "check", "--input", DRIFT)
    warning = check_err.splitlines()[-1]
    assert warning.startswith("warning: mean step is far from zero")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out
    assert err.splitlines() == [warning]


def test_forecast_ramp_exits_2(capsys):
    code, _, err = run_cli(capsys, "forecast", "--input", RAMP)
    assert code == 2
    assert "differences are equal" in err


# ------------------------------------------------------------------- cost


def write_micro_fixtures(tmp_path):
    series = tmp_path / "series.csv"
    # differences [2, -2, 0]: mean 0, sample variance exactly 4, last value 10
    series.write_text("10\n12\n10\n10\n")
    events = tmp_path / "events.csv"
    events.write_text(
        "delays,cancellations,diversions,air_turnbacks,spares\n2,1,0,1,3\n"
    )
    rates = tmp_path / "rates.cfg"
    rates.write_text(
        "delay=10000\ncancellation=50000\ndiversion=0\nair_turnback=20000\nspare=5000\n"
    )
    return series, events, rates


def test_cost_worked_example(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    assert mb.difference(mb.load_series(series)).stddev == 2.0
    code, out, _ = run_cli(
        capsys, "cost", "--input", str(series), "--events", str(events),
        "--rates", str(rates), "--horizon", "4",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["adc"] == 22_500.0
    assert payload["asc"] == 3_750.0
    assert payload["per_interruption"] == 26_250.0
    first = payload["cost_bands"][0]
    assert first == {"k": 1, "lower": 210_000.0, "upper": 315_000.0}
    assert len(payload["cost_bands"]) == 4
    assert "samples_summary" not in payload


def test_cost_with_fixture_files(capsys):
    code, out, _ = run_cli(
        capsys, "cost", "--input", WALK, "--events", EVENTS, "--rates", RATES
    )
    payload = json.loads(out)
    summary = mb.summarize_costs(mb.load_events(EVENTS), mb.load_rates(RATES))
    assert code == 0
    assert payload["adc"] == summary.adc
    assert payload["asc"] == summary.asc
    assert len(payload["cost_bands"]) == 12


def test_cost_sampling_summary(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    code, out, _ = run_cli(
        capsys, "cost", "--input", str(series), "--events", str(events),
        "--rates", str(rates), "--horizon", "3", "--sample", "400", "--seed", "5",
    )
    payload = json.loads(out)
    assert code == 0
    sampled = payload["samples_summary"]
    assert sampled["count"] == 400 and sampled["seed"] == 5
    assert [row["k"] for row in sampled["per_step"]] == [1, 2, 3]
    costs = mb.sample_costs(
        10.0, 2.0, 3, mb.CostSummary(adc=22_500.0, asc=3_750.0, months=1),
        400, seed=5,
    )
    assert sampled["per_step"][0]["mean"] == costs.mean(axis=0)[0]
    assert sampled["per_step"][2]["stddev"] == costs.std(axis=0, ddof=1)[2]


@pytest.mark.parametrize(
    "path, force", [(WALK, []), (SKEWED, ["--force"])], ids=["walk", "skewed-force"]
)
@pytest.mark.parametrize("rule", mb.RULES)
@pytest.mark.parametrize("p, count, horizon", [
    (0.05, None, 12), (0.01, None, 12), (0.05, 400, 12),
    # streamed: two blocks, three with the last one short, and seven
    (0.05, 70000, 12), (0.05, 140000, 2), (0.05, 400000, 2),
], ids=["plain", "p0.01", "sample", "sample70000", "sample140000-h2", "sample400000-h2"])
def test_cost_prints_the_cost_bands_payload(capsys, path, force, rule, p, count, horizon):
    sample = ["--sample", str(count)] if count else []
    _, out, _ = run_cli(
        capsys, "cost", "--input", path, "--events", EVENTS, "--rates", RATES,
        "--rule", rule, "--p", str(p), "--horizon", str(horizon), *force, *sample,
    )
    series = mb.load_series(path)
    b = mb.band(series, horizon, mb.check_markov(series, p=p, rule=rule))
    summary = mb.summarize_costs(mb.load_events(EVENTS), mb.load_rates(RATES))
    payload = mb.cost_band(b, summary).to_dict()
    if count:
        mean, std = mb.sample_cost_moments(
            b.x0, b.sigma, horizon, summary, count, mb.DEFAULT_SEED
        )
        payload["samples_summary"] = {
            "count": count,
            "seed": mb.DEFAULT_SEED,
            "per_step": step_rows(mean=mean, stddev=std),
        }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_cost_sample_needs_two_paths(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--input", str(series), "--events", str(events),
              "--rates", str(rates), "--sample", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("argument --sample: count must be >= 2, got 1\n")


def test_cost_help_names_the_rule_its_check_uses(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line an option
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "(0, 0.5) (default: 0.05)\n" in out
    assert "or the p-value against p (default: paper-threshold)\n" in out


# Ten points whose differences fail W >= 0.9 (W = 0.8873) but whose p-value
# (0.187) passes p = 0.05: the two rules split this series.
SPLIT_SERIES = (
    "496.802934\n504.486087\n512.234826\n502.321936\n491.010017\n"
    "469.458562\n463.579737\n471.982448\n456.777431\n433.472124\n"
)


@pytest.mark.parametrize(
    "rule, code", [("p-value", 0), ("paper-threshold", 1)]
)
def test_check_forecast_and_cost_apply_the_same_rule(capsys, tmp_path, rule, code):
    series = tmp_path / "split.csv"
    series.write_text(SPLIT_SERIES)
    inputs = ["--input", str(series), "--rule", rule]
    costs = ["--events", EVENTS, "--rates", RATES]
    for command in (["check"], ["forecast"], ["cost", *costs]):
        got, out, err = run_cli(capsys, *command, *inputs)
        assert got == code, (command, err)
        printed = code == 0 or command[0] == "check"  # a verdict prints either way
        assert (out != "") == printed


def test_cost_refuses_non_markov_without_force(capsys):
    code, out, err = run_cli(
        capsys, "cost", "--input", SKEWED, "--events", EVENTS, "--rates", RATES
    )
    assert code == 1
    assert out == ""
    assert "refusing to cost the forecast: series is not Markov" in err
    assert "--force" in err


def test_cost_force_overrides_refusal(capsys):
    code, out, err = run_cli(
        capsys, "cost", "--input", SKEWED, "--events", EVENTS, "--rates", RATES,
        "--sample", "50", "--force",
    )
    payload = json.loads(out)
    assert code == 0
    assert len(payload["cost_bands"]) == 12
    assert payload["samples_summary"]["count"] == 50
    assert "warning" in err


def write_series(tmp_path, n):
    # a seeded walk of n points: too short or too long for the Markov check
    series = tmp_path / "series.csv"
    values = 100.0 + np.cumsum(np.random.default_rng(3).standard_normal(n))
    series.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(series)


@pytest.mark.parametrize(
    "n, reason",
    [(3, "requires at least 4 observations"), (5002, "3 to 5000 differences")],
)
@pytest.mark.parametrize("force", [[], ["--force"]])
def test_cost_series_the_check_cannot_judge_exits_2_even_with_force(
    capsys, tmp_path, n, reason, force
):
    series = write_series(tmp_path, n)
    inputs = ["--input", series, "--events", EVENTS, "--rates", RATES]
    code, out, err = run_cli(capsys, "cost", *inputs, "--sample", "50", *force)
    assert code == 2
    assert out == ""
    assert only_error_line(err), err
    assert reason in err
    assert "warning:" not in err


@pytest.mark.parametrize("path, force, code, message", [
    (SKEWED, [], 1, "refusing to cost the forecast: series is not Markov"),
    (RAMP, [], 2, "error: all first differences are equal"),
    (SKEWED, ["--force"], 2, "error: events CSV is missing required columns"),
], ids=["skewed", "ramp", "skewed-force"])
def test_cost_checks_the_series_before_it_reads_the_events(
    capsys, tmp_path, path, force, code, message
):
    # As forecast does: the events are read only for a band that is emitted.
    events = tmp_path / "events.csv"
    events.write_text("delays,cancellations\n1,2\n")
    got, out, err = run_cli(
        capsys, "cost", "--input", path, "--events", str(events), "--rates", RATES,
        *force,
    )
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message), err


def test_cost_ragged_events_row_exits_2(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    events.write_text(
        "delays,cancellations,diversions,air_turnbacks,spares\n2,1,0,1,3,9\n"
    )
    code, out, err = run_cli(
        capsys, "cost", "--input", str(series), "--events", str(events),
        "--rates", str(rates),
    )
    assert code == 2
    assert out == ""
    assert "month row 1 has 6 fields, expected 5" in err


def test_cost_duplicate_events_column_exits_2(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    events.write_text(
        "delays,cancellations,diversions,air_turnbacks,spares,delays\n1,0,0,0,0,5\n"
    )
    code, out, err = run_cli(
        capsys, "cost", "--input", str(series), "--events", str(events),
        "--rates", str(rates),
    )
    assert code == 2
    assert out == ""
    assert err == "error: duplicate column 'delays' in the events CSV header\n"


def test_cost_zero_interruption_month_exits_2(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    events.write_text(
        "delays,cancellations,diversions,air_turnbacks,spares\n0,0,0,0,3\n"
    )
    code, _, err = run_cli(
        capsys, "cost", "--input", str(series), "--events", str(events),
        "--rates", str(rates),
    )
    assert code == 2
    assert "month 1" in err


@pytest.mark.parametrize("command", [
    ["check"], ["forecast"], ["forecast", "--force"], ["forecast", "--rule", "p-value"],
    ["cost", "--events", EVENTS, "--rates", RATES, "--force"],
])
def test_a_series_past_the_check_range_exits_2_naming_its_length(
    capsys, tmp_path, command
):
    code, out, err = run_cli(capsys, *command, "--input", write_series(tmp_path, 5999))
    assert code == 2
    assert out == ""
    assert "5999" in err
    assert "3 to 5000 differences" in err


def only_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("digits", [401, 5000])  # 5000 is past int()'s limit
def test_cost_event_count_beyond_float64_exits_2_with_one_error_line(tmp_path, digits):
    series, events, rates = write_micro_fixtures(tmp_path)
    events.write_text(
        "delays,cancellations,diversions,air_turnbacks,spares\n"
        f"2,1,0,1,3\n{'9' * digits},0,0,0,0\n"
    )
    proc = run_module(
        "cost", "--input", str(series), "--events", str(events), "--rates", str(rates)
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert only_error_line(proc.stderr), proc.stderr
    assert "month 2 has event counts beyond the float64 range" in proc.stderr


@pytest.mark.parametrize(
    "rates, events",
    [
        ("delay=1e308\nspare=0\n", "1,0,0,0,0\n1,0,0,0,0\n"),  # ADC overflows
        ("delay=1e308\nspare=1e308\n", "1,0,0,0,1\n"),  # ADC + ASC overflows
    ],
    ids=["adc", "adc+asc"],
)
def test_cost_summary_beyond_float64_exits_2_with_one_error_line(
    tmp_path, rates, events
):
    series, events_file, rates_file = write_micro_fixtures(tmp_path)
    header = "delays,cancellations,diversions,air_turnbacks,spares\n"
    events_file.write_text(header + events)
    rates_file.write_text("cancellation=0\ndiversion=0\nair_turnback=0\n" + rates)
    proc = run_module(
        "cost", "--input", str(series), "--events", str(events_file),
        "--rates", str(rates_file),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert only_error_line(proc.stderr), proc.stderr
    assert "per-interruption cost" in proc.stderr
    assert "exceeds the float64 range; rescale the rates" in proc.stderr


@pytest.mark.parametrize("command", [["check"], ["forecast", "--force"]])
def test_overflowing_differences_exit_2_with_one_error_line(tmp_path, command):
    series = tmp_path / "series.csv"
    series.write_text("1e308\n-1e308\n" * 10)
    proc = run_module(*command, "--input", str(series))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert only_error_line(proc.stderr), proc.stderr
    assert "overflow" in proc.stderr


def test_simulate_overflowing_walks_exit_2_with_one_error_line():
    proc = run_module("simulate", "--sigma", "1e308")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert only_error_line(proc.stderr), proc.stderr


@pytest.mark.parametrize("call, argv", [
    ("band", ["forecast", "--input", WALK, "--horizon", "1000000000000"]),
    ("band", ["cost", "--input", WALK, "--events", EVENTS, "--rates", RATES,
              "--horizon", "1000000000000"]),
    ("sample_cost_moments", ["cost", "--input", WALK, "--events", EVENTS,
                             "--rates", RATES, "--sample", "1000000000000",
                             "--horizon", "1"]),
    ("run_calibration", ["simulate", "--length", "100000000000"]),
])
def test_a_size_beyond_memory_exits_2_with_one_error_line(capsys, monkeypatch, call, argv):
    # The call that allocates the sized arrays fails as numpy's does; a real
    # allocation of terabytes may or may not fail, by the host's overcommit.
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, call, out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_cr_only_line_endings_load(capsys, tmp_path):
    series = tmp_path / "series.csv"
    series.write_bytes(Path(WALK).read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\r"))
    events = tmp_path / "events.csv"
    events.write_bytes(Path(EVENTS).read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\r"))
    assert run_cli(capsys, "check", "--input", WALK)[:2] == run_cli(
        capsys, "check", "--input", str(series)
    )[:2]
    inputs = ["--events", EVENTS, "--rates", RATES]
    expect = run_cli(capsys, "cost", "--input", WALK, *inputs)
    inputs[1] = str(events)
    assert run_cli(capsys, "cost", "--input", str(series), *inputs) == expect
    assert expect[0] == 0


# --------------------------------------------------------------- simulate


def test_simulate_matches_library_run(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--trials", "150", "--length", "20",
        "--horizon", "4", "--seed", "11",
    )
    payload = json.loads(out)
    report = mb.run_calibration(trials=150, walk_length=20, horizon=4, seed=11)
    assert code == 0
    assert payload == report.to_dict()
    # stderr gives the exact per-step coverage at this length, P(|T_{L-2}| <= 1)
    assert err.endswith("; P(|T_18| <= 1) = 0.6694 per step is the calibrated value\n")


@pytest.mark.parametrize("rule, length, accept", [("paper-threshold", 10, "0.7480"),
                                                  ("p-value", 10, "0.9500"),
                                                  ("paper-threshold", 50, "0.9995")])
def test_simulate_prints_the_expected_acceptance(capsys, rule, length, accept):
    code, _, err = run_cli(capsys, "simulate", "--trials", "100", "--length", str(length),
                           "--rule", rule)
    assert code == 0
    assert err.splitlines()[-2] == (f"expected acceptance: {accept} of true walks "
                                    f"of length {length} pass the {rule} rule at p = 0.05")


def golden(name):
    """The cases of a golden file, and a note naming where they were recorded.

    Seeded streams come from numpy and W's last bits from the platform's
    libm, so the note names the numpy version and platform of the recording
    beside this run's: a mismatch on another host can then be told apart
    from a regression.
    """
    recorded = json.loads((DATA / name).read_text())
    libc, libc_version = platform.libc_ver()
    here = (
        f"{platform.system()} {platform.machine()}, {libc} {libc_version}, "
        f"Python {platform.python_version()}"
    )
    was = recorded["recorded_with"]
    note = (
        f"{name} was recorded with numpy {was['numpy']} on {was['platform']}; "
        f"this run has numpy {np.__version__} on {here}"
    )
    return recorded["cases"], note


GOLDEN_SIMULATE, SIMULATE_RECORDED = golden("simulate_golden.json")


@pytest.mark.parametrize(
    "case", GOLDEN_SIMULATE, ids=lambda case: " ".join(case["argv"][4:7:2])
)
def test_simulate_stdout_is_the_golden_bytes(capsys, case):
    # recorded from one scalar p-value per trial, each from a stream rewound
    # through numpy's array state; L = 10, 11 and 12 reach every Royston branch
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"], SIMULATE_RECORDED


GOLDEN_CLI, CLI_RECORDED = golden("cli_golden.json")


def golden_id(case):
    command, _, path, *rest = case["argv"]
    flags = [a for a in rest if "/" not in a and a not in ("--events", "--rates")]
    return " ".join([command, Path(path).name, *flags])


@pytest.mark.parametrize("case", GOLDEN_CLI, ids=golden_id)
def test_cli_output_is_the_golden_bytes(capsys, monkeypatch, case):
    # check, forecast and cost on each tests/data/*.csv but drift_walk.csv,
    # under both rules; stdout, stderr and exit code as recorded, with paths
    # from the repo root
    monkeypatch.chdir(DATA.parents[1])
    expected = (case["code"], case["stdout"], case["stderr"])
    assert run_cli(capsys, *case["argv"]) == expected, CLI_RECORDED


def test_simulate_bad_trials_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "50"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --trials: trials must be >= 100, got 50\n"
    )


# ------------------------------------------------------------ option limits

COMMAND_ARGV = {
    "check": ["check", "--input", WALK],
    "forecast": ["forecast", "--input", WALK],
    "cost": ["cost", "--input", WALK, "--events", EVENTS, "--rates", RATES],
    "simulate": ["simulate"],
}


def _sample_moments(count):
    summary = mb.summarize_costs(mb.load_events(EVENTS), mb.load_rates(RATES))
    return mb.sample_cost_moments(0.0, 1.0, 1, summary, count, 0)


# Each typed option: the commands that take it, its converter, a library call
# that refuses a bad value, texts at its limit and texts past it.
OPTION_LIMITS = [
    ("--p", ("check", "forecast", "cost", "simulate"), float,
     lambda p: mb.sw_decide(0.95, 10, p=p), ["0.4999"], ["0.5", "0"]),
    ("--horizon", ("forecast", "cost", "simulate"), int,
     lambda k: mb.make_band(0.0, 1.0, k), ["1"], ["0"]),
    ("--sample", ("cost",), int, _sample_moments, ["2"], ["1"]),
    ("--seed", ("cost", "simulate"), int, lambda seed: mb.substream(seed, 0),
     ["0", str(2**64 - 1)], ["-1", str(2**64)]),
    ("--trials", ("simulate",), int,
     lambda n: mb.run_calibration(trials=n), ["100"], ["99"]),
    ("--length", ("simulate",), int,
     lambda n: mb.run_calibration(walk_length=n), ["10"], ["9"]),
    ("--sigma", ("simulate",), float,
     lambda sigma: mb.run_calibration(sigma=sigma), ["0.5"],
     ["0", "-1", "nan", "inf"]),
]


def refusal(call, value):
    """``str()`` of the ValueError that ``call(value)`` raises."""
    with pytest.raises(ValueError) as exc:
        call(value)
    return str(exc.value)


def _limit_cases():
    # want: the exit code at the limit, or the library's words past it
    for option, commands, convert, refuse, at, past in OPTION_LIMITS:
        bad_text = "abc" if convert is float else "x"
        cases = [(text, 0) for text in at]
        cases += [(text, functools.partial(refusal, refuse, convert(text)))
                  for text in past]
        cases.append((bad_text, f"invalid {convert.__name__} value: {bad_text!r}"))
        for command in commands:
            for text, want in cases:
                yield pytest.param(
                    command, option, text, want, id=f"{command} {option} {text}"
                )


@pytest.mark.parametrize("command, option, text, want", _limit_cases())
def test_each_option_limit_is_a_usage_error_in_the_librarys_words(
    capsys, command, option, text, want
):
    argv = [*COMMAND_ARGV[command], option, text]
    if want == 0:
        assert run_cli(capsys, *argv)[0] == 0
        return
    message = want if isinstance(want, str) else want()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        f"markovband {command}: error: argument {option}: {message}"
    )


def test_cli_runs_as_a_module():
    proc = run_module("check", "--input", WALK)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_markov"] is True


def test_cli_stdout_is_byte_identical_across_runs():
    argv = ["simulate", "--trials", "150", "--length", "20", "--horizon", "3", "--seed", "4"]
    first, second = run_module(*argv), run_module(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("paths, horizon", [(400000, 1), (400000, 12), (400000, 100),
                                            (140000, 500)])
def test_sampled_moments_do_not_depend_on_the_cpus_the_process_may_use(paths, horizon):
    # One CPU runs one worker, and all CPUs one worker each; 140000 paths at
    # horizon 500 are three blocks, the last one short.
    argv = [*COMMAND_ARGV["cost"], "--sample", str(paths), "--horizon", str(horizon)]
    one_cpu = {min(os.sched_getaffinity(0))}
    pinned = run_module(*argv, preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
    assert pinned.returncode == 0
    assert pinned.stdout == run_module(*argv).stdout


@pytest.mark.parametrize("paths, horizon", [(65536, 500), (140000, 500), (20000000, 1)])
def test_sampling_a_long_horizon_or_many_paths_peaks_under_200_mb(paths, horizon):
    # One 2**16-path block at horizon 500 is 262 MB: holding whole blocks
    # took 573 MB of RSS, and two pieces a worker 37 MB.  A count of one
    # block is streamed too, not summarised from its matrix.  At horizon 1,
    # 2e7 paths are a 160 MB column: summarising it whole took 341 MB, and
    # two pieces a worker 37 MB.
    run = run_module(*COMMAND_ARGV["cost"], "--sample", str(paths), "--horizon", str(horizon))
    assert run.returncode == 0
    assert run.peak_rss_mb <= 200, f"peak RSS {run.peak_rss_mb:.0f} MB"


# ------------------------------------------------------- one parser a process


def test_import_builds_no_parser_and_two_calls_build_one():
    script = f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import markovband.cli as cli
assert built == [], built
builds = []
build = cli.build_parser
cli.build_parser = lambda: builds.append(1) or build()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["check", "--input", {WALK!r}]),
             cli.main(["check", "--input", {SKEWED!r}])]
print(codes, len(builds))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "1]", "1"]


def test_in_process_calls_match_fresh_processes(capsys):
    # options of one call (--force, --horizon, --rule) must not leak into the next
    calls = [
        ["forecast", "--input", SKEWED, "--force", "--horizon", "3"],
        ["forecast", "--input", SKEWED],
        ["forecast", "--input", WALK],
        ["check", "--input", SKEWED, "--rule", "p-value"],
        ["check", "--input", SKEWED],
        ["forecast", "--input", WALK, "--horizon", "0"],
        ["check", "--input", WALK],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    fresh = [(p.returncode, p.stdout) for p in (run_module(*argv) for argv in calls)]
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 1, 0, 1, 1, 2, 0]


@pytest.mark.parametrize(
    "series, extra, what",
    [
        (WALK, ["--sample", "100", "--horizon", "2"], "sampled costs"),
        (EVENTS, ["--sample", "100", "--horizon", "2"], "sampled costs"),
        (None, [], "cost band edges"),
        (DRIFT, [], "cost band edges"),  # no drift warning before the error
    ],
    ids=["walk-sample", "events-sample", "band-edges", "drift-band-edges"],
)
def test_cost_overflow_exits_2_with_one_error_line(tmp_path, series, extra, what):
    rates = tmp_path / "rates.cfg"
    rates.write_text("delay=1e307\ncancellation=0\ndiversion=0\nair_turnback=0\nspare=0\n")
    series = series or write_series(tmp_path, 50)  # values near 100
    proc = run_module(
        "cost", "--input", series, "--events", EVENTS, "--rates", str(rates), *extra
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert only_error_line(proc.stderr), proc.stderr
    assert f"{what} exceed the float64 range" in proc.stderr
