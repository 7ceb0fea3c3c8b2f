"""What the benchmark under ``bench/`` takes from the library, by name.

``bench/tracer.py`` wraps the functions in its ``TARGETS`` table;
``bench/worker.py`` calls package-level names as ``mb.<name>`` (the screen
loop, the CLI probe), reads the weight cache's counters and rebuilds
``run_calibration`` from public blocks as an oracle.  Removing or renaming
any of these breaks the traced benchmark, so each is pinned here.  The
tracer's probe also refuses a run in which a target is never called, so
the CLI calls it relies on are counted too.  Nothing under ``bench/`` is
changed: it is only put on ``sys.path`` and imported.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import markovband as mb
from markovband.swilk import RULES

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    # appended, so that bench's oracles.py cannot shadow the tests' own
    sys.path.append(str(BENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))


def test_every_trace_target_is_a_library_function(bench):
    tracer, _ = bench
    assert tracer.TARGETS
    for module, attr, _name, _how in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"markovband.{module}"), attr)
        assert callable(fn), (module, attr)


def test_every_name_the_worker_calls_resolves():
    # every dotted chain after ``mb.`` in worker.py, e.g. ``mb.load_series``,
    # ``self.mb.cli.main``, ``ctx.mb.simulate.run_calibration``
    text = (BENCH / "worker.py").read_text()
    chains = set(re.findall(r"\bmb\.([A-Za-z_][\w.]*[\w])", text))
    assert {"check_markov", "load_series", "cli.main",
            "simulate.run_calibration"} <= chains, chains
    for chain in chains:
        obj = mb
        for attr in chain.split("."):
            assert hasattr(obj, attr), chain
            obj = getattr(obj, attr)
        assert callable(obj) or inspect.ismodule(obj), chain


def test_weight_cache_counters_are_there():
    assert callable(mb.swilk.sw_coefficients.cache_info)
    assert callable(mb.swilk.sw_coefficients.cache_clear)
    assert mb.swilk.sw_coefficients.cache_info().maxsize > 0


@pytest.mark.parametrize("rule", RULES)
def test_calibration_replay_is_the_library_report(bench, rule):
    _, worker = bench
    args = dict(trials=100, walk_length=20, sigma=1.0, horizon=4, p=0.05,
                rule=rule, seed=7)
    replay = worker.replay_calibration(mb, **args)
    assert replay == mb.run_calibration(**args).to_dict()


DATA = Path(__file__).parent / "data"
COST_INPUTS = ["--events", str(DATA / "events.csv"), "--rates", str(DATA / "rates.cfg")]


def counting(monkeypatch, module, name):
    """Replace ``module.<name>`` by a wrapper that counts its calls, as the
    tracer does; returns the list that grows by one entry a call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("argv", [
    ["forecast", "--input", str(DATA / "gaussian_walk.csv")],
    ["forecast", "--input", str(DATA / "skewed.csv"), "--force"],
    ["cost", "--input", str(DATA / "gaussian_walk.csv"), *COST_INPUTS],
    ["cost", "--input", str(DATA / "skewed.csv"), *COST_INPUTS, "--force"],
], ids=["forecast", "forecast --force", "cost", "cost --force"])
def test_forecast_and_cost_band_once_through_the_cli_binding(
    capsys, monkeypatch, argv
):
    # the tracer's forecast.band span is seen only where cli calls it by name
    calls = counting(monkeypatch, mb.cli, "band")
    assert mb.cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cost_sample_of_the_probe_size_draws_through_sample_costs(
    capsys, monkeypatch
):
    # the probe's cost --sample 20000 is the only call that reaches cost.sample
    calls = counting(monkeypatch, mb.cost, "sample_costs")
    argv = ["cost", "--input", str(DATA / "gaussian_walk.csv"), *COST_INPUTS,
            "--sample", "20000", "--seed", "7"]
    assert mb.cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1
