#!/usr/bin/env python3
"""markovband benchmark: one workload, checked outputs, metrics as JSON.

Usage (from the repository root):

    python3 bench/run.py --workload {screen,calibrate,sample} --seed N \\
        --seconds S --trace {0,1}

The program under test is the ``markovband`` package in ``src/`` next to
this directory; the benchmark refuses to run (exit 2) without it.  Inputs
are generated from ``--seed`` into a scratch directory inside the checkout,
the workload runs in one child process (worker.py) for about ``--seconds``
seconds, and every output is checked by the oracles in oracles.py.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a separate traced run; the
lines above it give the same numbers under their per-workload names, the
failure count with its base, and the environment.  See README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"

WORKLOADS = ("screen", "calibrate", "sample")
#: Fresh interpreters started to time import (median reported).
SETUP_REPEATS = 12
#: ``python -m markovband`` subprocess runs per workload.
CLI_RUNS = {"screen": inputs.SCREEN_CLI_FILES, "calibrate": 11, "sample": 9}
#: Tail percentile of operation times, fixed per workload so that it does
#: not move with speed; each has at least ten operations beyond it in a
#: 25-second run on a 2-core VM (about 7000 series, 130 calibrations and
#: 50 samples).
TAIL_PERCENTILE = {"screen": 99, "calibrate": 75, "sample": 75}

#: end-to-end metric -> (unit, name per workload)
END_TO_END = {
    "setup_s": ("s", {}),
    "peak_rss_mb": ("MB", {}),
    "cli_ms_p50": ("ms", {}),
    "work_per_s": ("1/s", {"screen": "series_per_s", "calibrate": "trials_per_s",
                           "sample": "path_steps_per_s"}),
    "op_ms_p50": ("ms", {"screen": "series_ms_p50", "calibrate": "calibration_ms_p50",
                         "sample": "sample_ms_p50"}),
    "op_ms_tail": ("ms", {"screen": "series_ms_p99", "calibrate": "calibration_ms_p75",
                          "sample": "sample_ms_p75"}),
}

PER_LAYER_UNITS = {
    "cli.main_us": "us",
    "cli.import_ms": "ms",
    "cli.numpy_floor_ms": "ms",
    "series.load_us_per_row": "us",
    "series.rejected": "count",
    "series.mangled": "count",
    "swilk.coef_misses": "count",
    "swilk.coef_hits": "count",
    "swilk.coef_cold_ms": "ms",
    "swilk.statistic_us": "us",
    "swilk.pvalue_us": "us",
    "normal.ppf_us": "us",
    "markov.check_us": "us",
    "markov.checks": "count",
    "markov.accept_frac": "fraction",
    "forecast.band_us": "us",
    "forecast.sample_ms": "ms",
    "forecast.bytes_computed": "B",
    "rng.substreams": "count",
    "rng.substream_us": "us",
    "rng.ns_per_draw": "ns",
    "cost.sample_ms": "ms",
    "cost.summary_us": "us",
    "cost.matrix_bytes": "B",
    "simulate.trial_us": "us",
    "simulate.loop_us": "us",
    "trace.overhead_frac": "fraction",
}

SETUP_CODE = ("import time; t = time.perf_counter(); import markovband.cli; "
              "print(time.perf_counter() - t)")
FLOOR_CODE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_env() -> dict:
    """Environment of every process that runs the program."""
    env = dict(os.environ)
    threads = str(nproc())
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


def side_runs(inp, trace: bool) -> list[dict]:
    """Fresh-interpreter and CLI subprocess runs, interleaved.

    The worker spreads them evenly over its measuring time, so that their
    medians see the host over the whole run rather than one moment of it.
    """
    py = sys.executable
    setup = [{"kind": "setup", "argv": [py, "-c", SETUP_CODE]}] * SETUP_REPEATS
    floor = [{"kind": "floor", "argv": [py, "-c", FLOOR_CODE]}] * (SETUP_REPEATS if trace else 0)
    if inp.workload == "screen":
        argvs = [["check", "--input", c.path] for c in inp.cases[: CLI_RUNS["screen"]]]
    elif inp.workload == "calibrate":
        a = inputs.calibrate_call(inp.fixtures, 0)
        argvs = [["simulate", "--trials", str(a["trials"]), "--length", str(a["walk_length"]),
                  "--sigma", repr(a["sigma"]), "--horizon", str(a["horizon"]),
                  "--p", repr(a["p"]), "--rule", a["rule"], "--seed", str(a["seed"])]]
    else:
        argvs = [inputs.sample_argv(inp.fixtures, 0)]
    cli = [{"kind": "cli", "argv": [py, "-m", "markovband", *argvs[i % len(argvs)]]}
           for i in range(CLI_RUNS[inp.workload])]
    runs = []
    for i in range(max(len(setup), len(cli))):
        runs += setup[i:i + 1] + floor[i:i + 1] + cli[i:i + 1]
    return runs


def setup_metrics(side: list[dict]) -> dict:
    setup = [r for r in side if r["kind"] == "setup"]
    floor = [float(r["stdout"]) for r in side if r["kind"] == "floor"]
    metrics = {
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "cli.import_ms": statistics.median(float(r["stdout"]) for r in setup) * 1e3,
    }
    if floor:
        metrics["cli.numpy_floor_ms"] = statistics.median(floor) * 1e3
    return metrics


def worker_timeout(seconds: float) -> float:
    """Time the worker may take: measuring time (twice, for a margin) plus
    warm-up, subprocess runs, probe and calibration replay."""
    return 2 * seconds + 120


def run_worker(plan: dict, env: dict, work: Path) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path),
                           str(result_path)], env=env, cwd=ROOT,
                          timeout=worker_timeout(plan["seconds"]))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def llc() -> str | None:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = sorted(cache.glob("index*"), key=lambda p: int(p.name[5:]))
    for index in reversed(levels):
        try:
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        return f"L{(index / 'level').read_text().strip()} {size}, shared by cpus {shared}"
    return None


def environment(worker_numpy: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": worker_numpy,
        "nproc": nproc(),
        "blas_threads": nproc(),
        "llc": llc(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def end_to_end(workload: str, setup: dict, res: dict, cli_runs: list) -> dict:
    measured = res["measured"]
    op_ms = np.array(measured["op_ns"]) / 1e6
    return {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "cli_ms_p50": statistics.median(ms for _, _, ms in cli_runs),
        "work_per_s": measured["work_per_round"] / statistics.median(measured["round_s"]),
        "op_ms_p50": float(np.median(op_ms)),
        "op_ms_tail": float(np.percentile(op_ms, TAIL_PERCENTILE[workload])),
    }


def per_layer(setup: dict, res: dict, tally) -> dict:
    values = {**res["layers"], **tally.counts}
    values["cli.import_ms"] = setup["cli.import_ms"]
    values["cli.numpy_floor_ms"] = setup["cli.numpy_floor_ms"]
    return {name: values[name] for name in PER_LAYER_UNITS}


def report(args, env_record: dict, res: dict, tally, metrics: dict, units: dict) -> None:
    print(f"markovband benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env_record))
    measured = res["measured"]
    print(f"measured {measured['rounds']} rounds, {len(measured['op_ns'])} operations "
          f"in {measured['measured_s']:.2f} s of rounds")
    sources = res.get("layer_sources", {})
    for name, value in metrics.items():
        alias = END_TO_END.get(name, (None, {}))[1].get(args.workload)
        label = f"{alias} ({name})" if alias else name
        note = " [probe: idle in this workload]" if sources.get(name) == "probe" else ""
        print(f"  {label:<44} {value:>16.6g} {units[name]}{note}")
    frac = tally.failed / tally.attempted
    print(f"  failed_frac {frac:.6f} = {tally.failed}/{tally.attempted} operations"
          f" ({dict(tally.classes)})")
    for line in tally.examples + tally.problems:
        print(f"  check: {line}")
    if res.get("replay_mismatches"):
        print(f"  check: replay differs from run_calibration in {res['replay_mismatches']} calls")
    if "layer_shares" in res:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in res["layer_shares"].items())
        print(f"  trace: self-time share per layer: {shares}")
    if "spans" in res:
        print(f"  trace: spans in {res['trace_out']}, {res['spans']['kept']} kept, "
              f"{res['spans']['dropped']} over the cap")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="markovband benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "markovband" / "__init__.py").is_file():
        print(f"error: the program is missing: no markovband package under {SRC}",
              file=sys.stderr)
        return 2

    env = program_env()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = inputs.make(args.workload, args.seed, work)
        trace_out = TRACES / f"trace-{args.workload}-{args.seed}.jsonl"
        if args.trace:
            TRACES.mkdir(exist_ok=True)
        plan = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "src": str(SRC),
            "trace_out": str(trace_out),
            "files": [c.path for c in inp.cases],
            "fixtures": inp.fixtures,
        }
        plan["side"] = side_runs(inp, bool(args.trace))
        res = run_worker(plan, env, work)
        res["trace_out"] = str(trace_out.relative_to(ROOT))
        setup = setup_metrics(res["side"])
        cli_runs = [(r["rc"], r["stdout"], r["wall_s"] * 1e3)
                    for r in res["side"] if r["kind"] == "cli"]
        tally = oracles.CHECKS[args.workload](inp, res, cli_runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if args.trace:
        metrics = per_layer(setup, res, tally)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(args.workload, setup, res, cli_runs)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    missing = [name for name, value in metrics.items()
               if not isinstance(value, (int, float)) or not math.isfinite(value)]
    if missing:
        raise RuntimeError(f"no measurement for {', '.join(missing)}")
    report(args, environment(res["numpy"]), res, tally, metrics, units)
    correct = tally.correct and not res.get("replay_mismatches")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
