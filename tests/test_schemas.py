"""Every CLI JSON payload must validate against its published schema."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import markovband as mb
from markovband.cli import main
from markovband.swilk import RULES

SCHEMAS = Path(__file__).parent.parent / "docs" / "schemas"
DATA = Path(__file__).parent / "data"


def load_schema(name):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    return schema


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_check_payload_validates(capsys):
    payload = run_json(capsys, "check", "--input", str(DATA / "gaussian_walk.csv"))
    Draft202012Validator(load_schema("check")).validate(payload)


def test_check_pvalue_payload_validates(capsys):
    payload = run_json(
        capsys, "check", "--input", str(DATA / "gaussian_walk.csv"),
        "--rule", "p-value",
    )
    Draft202012Validator(load_schema("check")).validate(payload)
    assert "p_value" in payload


@pytest.mark.parametrize("name", ["gaussian_walk.csv", "skewed.csv"])
@pytest.mark.parametrize("rule", RULES)
def test_library_payloads_validate_without_the_cli(name, rule):
    series = mb.load_series(DATA / name)
    verdict = mb.check_markov(series, rule=rule)
    Draft202012Validator(load_schema("check")).validate(verdict.to_dict())
    b = mb.band(series, 6, verdict)
    Draft202012Validator(load_schema("forecast")).validate(b.to_dict())
    summary = mb.summarize_costs(
        mb.load_events(DATA / "events.csv"), mb.load_rates(DATA / "rates.cfg")
    )
    cost = mb.cost_band(b, summary).to_dict()
    Draft202012Validator(load_schema("cost")).validate(cost)


def test_forecast_payload_validates(capsys):
    payload = run_json(
        capsys, "forecast", "--input", str(DATA / "gaussian_walk.csv"),
        "--horizon", "6",
    )
    Draft202012Validator(load_schema("forecast")).validate(payload)


def test_cost_payload_validates(capsys):
    payload = run_json(
        capsys, "cost", "--input", str(DATA / "gaussian_walk.csv"),
        "--events", str(DATA / "events.csv"), "--rates", str(DATA / "rates.cfg"),
        "--sample", "200",
    )
    Draft202012Validator(load_schema("cost")).validate(payload)
    assert "samples_summary" in payload


def test_simulate_payload_validates(capsys):
    payload = run_json(
        capsys, "simulate", "--trials", "120", "--length", "15", "--horizon", "3"
    )
    Draft202012Validator(load_schema("simulate")).validate(payload)


def test_schemas_reject_extra_fields():
    schema = load_schema("check")
    bad = {"is_markov": True, "w": 0.95, "threshold": 0.9,
           "rule": "paper-threshold", "error_mean": 0.0, "error_stddev": 1.0,
           "drift_warning": False, "n_errors": 10, "surprise": 1}
    with pytest.raises(Exception):
        Draft202012Validator(schema).validate(bad)


def test_cost_schema_needs_two_sampled_paths():
    schema = load_schema("cost")
    payload = {"adc": 1.0, "asc": 0.0, "per_interruption": 1.0,
               "cost_bands": [{"k": 1, "lower": 0.5, "upper": 1.5}],
               "samples_summary": {"count": 1, "seed": 0, "per_step": [
                   {"k": 1, "mean": 1.0, "stddev": 0.0}]}}
    with pytest.raises(Exception):
        Draft202012Validator(schema).validate(payload)
    payload["samples_summary"]["count"] = 2
    Draft202012Validator(schema).validate(payload)
