import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovband as mb
from markovband.cli import main

DATA = Path(__file__).parent / "data"
WALK = str(DATA / "gaussian_walk.csv")
SKEWED = str(DATA / "skewed.csv")
RAMP = str(DATA / "ramp.csv")
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


def test_check_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "--input", "does-not-exist.csv")
    assert code == 2
    assert "error:" in err


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
    b = mb.band(mb.load_series(WALK), 5)
    assert code == 0
    assert payload["x0"] == b.x0
    assert payload["sigma"] == b.sigma
    assert payload["horizon"] == 5
    assert [row["k"] for row in payload["bands"]] == [1, 2, 3, 4, 5]
    assert [row["lower"] for row in payload["bands"]] == list(b.lower)
    assert [row["upper"] for row in payload["bands"]] == list(b.upper)


def test_forecast_plot_csv_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "forecast", "--input", WALK, "--horizon", "4", "--format", "plot-csv"
    )
    lines = out.strip().splitlines()
    b = mb.band(mb.load_series(WALK), 4)
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


def test_forecast_force_overrides_refusal(capsys):
    code, out, err = run_cli(capsys, "forecast", "--input", SKEWED, "--force")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["bands"]) == 12  # default horizon
    assert "warning" in err


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


def test_cost_sample_needs_two_paths(capsys, tmp_path):
    series, events, rates = write_micro_fixtures(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--input", str(series), "--events", str(events),
              "--rates", str(rates), "--sample", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "a sample stddev needs at least two paths" in captured.err


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
def test_cost_series_the_check_cannot_judge_needs_force(capsys, tmp_path, n, reason):
    series = write_series(tmp_path, n)
    inputs = ["--input", series, "--events", EVENTS, "--rates", RATES]
    code, out, err = run_cli(capsys, "cost", *inputs, "--sample", "50")
    assert code == 2
    assert out == ""
    assert reason in err

    code, out, err = run_cli(capsys, "cost", *inputs, "--sample", "50", "--force")
    payload = json.loads(out)
    summary = mb.summarize_costs(mb.load_events(EVENTS), mb.load_rates(RATES))
    cb = mb.cost_band(mb.band(mb.load_series(series), 12), summary)
    assert code == 0
    assert [row["upper"] for row in payload["cost_bands"]] == cb.upper.tolist()
    assert payload["samples_summary"]["count"] == 50
    assert "warning: the Markov check cannot judge this series" in err
    assert reason in err


def test_cost_malformed_input_exits_2_before_the_markov_check(capsys, tmp_path):
    events = tmp_path / "events.csv"
    events.write_text("delays,cancellations\n1,2\n")
    code, out, err = run_cli(
        capsys, "cost", "--input", SKEWED, "--events", str(events), "--rates", RATES
    )
    assert code == 2
    assert out == ""
    assert "missing required columns" in err


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
])
def test_a_series_past_the_check_range_exits_2_naming_its_length(
    capsys, tmp_path, command
):
    code, out, err = run_cli(capsys, *command, "--input", write_series(tmp_path, 5999))
    assert code == 2
    assert out == ""
    assert "5999" in err
    assert "3 to 5000 differences" in err


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "markovband", *argv], capture_output=True, text=True
    )


def only_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


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
    assert "0.68" in err  # stderr explains the expected coverage level


def test_simulate_bad_trials_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--trials", "50")
    assert code == 2
    assert "trials" in err


def test_cli_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "markovband", "check", "--input", WALK],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_markov"] is True


def test_cli_stdout_is_byte_identical_across_runs():
    cmd = [
        sys.executable, "-m", "markovband", "simulate",
        "--trials", "150", "--length", "20", "--horizon", "3", "--seed", "4",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
