"""Run one benchmark workload in a single process and report raw results.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) names the workload, its generated inputs, the
measuring time and whether to trace.  The worker imports markovband from the
``src`` directory given in the plan, runs whole rounds of the workload until
the time is up, and writes every operation's time and output to the result
file; run.py checks the outputs and turns the times into metrics.  Between
rounds it also makes the subprocess runs the plan lists (fresh interpreters
and ``python -m markovband`` calls), spread over the measuring time.

With tracing, the first half of the time runs untraced and the second half
traced, so the two rates give the tracer's overhead.  A layer the workload
never calls is then timed on small probe inputs, so that every per-layer
time is a measurement.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from tracer import Tracer

#: Screen files run once, untimed, before measuring.
SCREEN_WARMUP_FILES = 20
#: Sizes for cold Shapiro-Wilk weights in the probe (unused by calibrate).
PROBE_COEF_SIZES = (97, 389, 1553, 4093)
PROBE_TRIALS = 1000
PROBE_REPEATS = 5


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import markovband
    import markovband.cli

    found = Path(markovband.__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"markovband was imported from {found}, not from {src}")
    return markovband


class MissCounter:
    """Sizer for sw_coefficients spans: 1 when the call missed the LRU cache."""

    def __init__(self, cached) -> None:
        self.cached = cached
        self.last = cached.cache_info().misses

    def __call__(self, _result) -> int:
        misses = self.cached.cache_info().misses
        cold, self.last = misses != self.last, misses
        return int(cold)


class Context:
    def __init__(self, mb, plan: dict) -> None:
        self.mb = mb
        self.plan = plan
        self.fixtures = plan["fixtures"]
        self.coef = mb.swilk.sw_coefficients  # the cached function itself
        self.op_span = contextlib.nullcontext

    def call(self, argv: list[str]):
        """cli.main in-process with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.mb.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue()


class Screen:
    """The analyst's loop: check each corpus file, forecast it if it passes."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.files = ctx.plan["files"]
        self.times: list[int] = []
        self.first: dict[int, list] = {}
        self.mismatches = [0] * len(self.files)

    def op(self, i: int, record: bool = True) -> None:
        ctx, path = self.ctx, self.files[i]
        start = time.perf_counter_ns()
        with ctx.op_span():
            rc, out = ctx.call(["check", "--input", path])
            result = [rc, out, None, None]
            if rc == 0:
                result[2:] = ctx.call(["forecast", "--input", path])
        elapsed = time.perf_counter_ns() - start
        if not record:
            return
        self.times.append(elapsed)
        if i not in self.first:
            self.first[i] = result
        elif self.first[i] != result:
            self.mismatches[i] += 1

    def warmup(self) -> None:
        for i in range(min(SCREEN_WARMUP_FILES, len(self.files))):
            self.op(i, record=False)

    def round(self) -> int:
        for i in range(len(self.files)):
            self.op(i)
        return len(self.files)

    def diagnose(self, i: int) -> dict:
        """Exception a refused file raises when loaded and checked directly."""
        mb = self.ctx.mb
        try:
            mb.check_markov(mb.load_series(self.files[i]))
        except Exception as exc:
            return {"type": type(exc).__name__, "value_error": isinstance(exc, ValueError),
                    "message": str(exc)}
        return {"type": None, "value_error": False, "message": ""}

    def results(self) -> dict:
        files = []
        for i in range(len(self.files)):
            rc, out, frc, fout = self.first[i]
            files.append({
                "rc": rc, "out": out, "forecast_rc": frc, "forecast_out": fout,
                "mismatches": self.mismatches[i],
                "diagnosis": self.diagnose(i) if rc == 2 else None,
            })
        return {"files": files}


class Calibrate:
    """Repeated run_calibration calls at the CLI default of 2000 trials."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.times: list[int] = []
        self.reports: list = []
        self.k = 0

    def op(self, k: int, record: bool = True) -> None:
        args = inputs.calibrate_call(self.ctx.fixtures, k)
        start = time.perf_counter_ns()
        with self.ctx.op_span():
            try:
                out = self.ctx.mb.simulate.run_calibration(**args).to_json()
            except Exception as exc:
                out = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter_ns() - start
        if record:
            self.times.append(elapsed)
            self.reports.append([k, elapsed, out])

    def warmup(self) -> None:
        self.op(-1, record=False)

    def round(self) -> int:
        for _ in inputs.CALIBRATE_CONFIGS:
            self.op(self.k)
            self.k += 1
        return inputs.CALIBRATE_TRIALS * len(inputs.CALIBRATE_CONFIGS)

    def results(self) -> dict:
        return {"reports": self.reports}


class Sample:
    """Repeated ``cost --sample 1000000 --horizon 12`` calls, one seed each."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.times: list[int] = []
        self.outputs: list = []
        self.k = 0

    def op(self, k: int, record: bool = True) -> None:
        argv = inputs.sample_argv(self.ctx.fixtures, k)
        start = time.perf_counter_ns()
        with self.ctx.op_span():
            rc, out = self.ctx.call(argv)
        elapsed = time.perf_counter_ns() - start
        if record:
            self.times.append(elapsed)
            self.outputs.append([k, rc, out])

    def warmup(self) -> None:
        self.op(-1, record=False)

    def round(self) -> int:
        self.op(self.k)
        self.k += 1
        return inputs.SAMPLE_PATHS * inputs.HORIZON

    def results(self) -> dict:
        return {"outputs": self.outputs}


WORKLOADS = {"screen": Screen, "calibrate": Calibrate, "sample": Sample}


def run_side(run: dict) -> dict:
    """One timed subprocess run (fresh interpreter or CLI call)."""
    start = time.perf_counter()
    proc = subprocess.run(run["argv"], capture_output=True, text=True, timeout=60)
    return {"kind": run["kind"], "rc": proc.returncode, "stdout": proc.stdout,
            "wall_s": time.perf_counter() - start}


def measure(workload, seconds: float, after_first=None, side=()) -> dict:
    """Whole rounds until ``seconds`` of rounds have passed.

    The work mix is the same every round.  The ``side`` subprocess runs are
    made between rounds, evenly over the measuring time, and their time is
    not counted as measuring time.
    """
    first_op = len(workload.times)
    work_per_round, round_s, side_out = 0, [], []
    spent = 0.0
    while spent < seconds:
        t0 = time.perf_counter()
        work_per_round = workload.round()
        round_s.append(time.perf_counter() - t0)
        spent += round_s[-1]
        if len(round_s) == 1 and after_first is not None:
            after_first()
        while len(side_out) < len(side) and spent >= seconds * len(side_out) / len(side):
            side_out.append(run_side(side[len(side_out)]))
    side_out += [run_side(run) for run in side[len(side_out):]]
    return {
        "rounds": len(round_s),
        "measured_s": spent,
        "work_per_round": work_per_round,
        "round_s": round_s,
        "op_ns": workload.times[first_op:],
        "side": side_out,
    }


def replay_calibration(mb, trials, walk_length, sigma, horizon, p, rule, seed) -> dict:
    """run_calibration rebuilt from its public blocks, trial by trial.

    Each trial draws from ``substream``, differences the history, runs
    ``sw_test`` and builds the band with ``make_band``.  Coverage uses the
    same comparison as the loop so that the report matches it bit for bit;
    the band is built for its cost.
    """
    root_k = np.sqrt(np.arange(1, horizon + 1, dtype=float))
    accepted = 0
    covered = np.zeros(horizon)
    sigma_hat_sum = 0.0
    for t in range(trials):
        noise = mb.substream(seed, t).standard_normal(walk_length - 1 + horizon) * sigma
        values = np.empty(walk_length + horizon)
        values[0] = 0.0
        values[1:] = 0.0 + np.cumsum(noise)
        errors = mb.difference(mb.TimeSeries(values=values[:walk_length]))
        accepted += mb.sw_test(errors.errors, p=p, rule=rule).normal
        sigma_hat_sum += errors.stddev
        x_last = values[walk_length - 1]
        mb.make_band(float(x_last), errors.stddev, horizon)
        covered += np.abs(values[walk_length:] - x_last) <= root_k * errors.stddev
    sigma_hat_mean = sigma_hat_sum / trials
    return {
        "trials": trials,
        "walk_length": walk_length,
        "horizon": horizon,
        "true_sigma": float(sigma),
        "markov_acceptance_rate": accepted / trials,
        "coverage_per_step": [float(c) for c in covered / trials],
        "sigma_hat_mean": sigma_hat_mean,
        "sigma_hat_rel_error": abs(sigma_hat_mean - sigma) / sigma,
    }


def loop_pairs(mb, calls: list[tuple]) -> dict:
    """Per-trial time of run_calibration calls against a replay of the same seeds.

    ``calls`` holds (arguments, report, call ns); without a report and a
    time (the probe) the call is made and timed here.
    """
    trial_us, loop_us, mismatches = [], [], 0
    for args, report, call_ns in calls:
        start = time.perf_counter_ns()
        replay = replay_calibration(mb, **args)
        replay_ns = time.perf_counter_ns() - start
        if call_ns is None:  # probe: time the call here too
            start = time.perf_counter_ns()
            report = mb.simulate.run_calibration(**args).to_dict()
            call_ns = time.perf_counter_ns() - start
        mismatches += replay != report
        trial_us.append(call_ns / args["trials"] / 1e3)
        loop_us.append((call_ns - replay_ns) / args["trials"] / 1e3)
    return {"simulate.trial_us": statistics.median(trial_us),
            "simulate.loop_us": statistics.median(loop_us), "replay_mismatches": mismatches}


def _median(values, scale: float):
    return statistics.median(values) / scale if len(values) else None


def layer_times(tracer: Tracer) -> dict:
    """Per-layer times from spans; None where the layer had no call."""
    st = tracer.stats
    empty = Tracer().stat("")

    def get(name):
        return st.get(name, empty)

    def ratio(name, scale):
        s = get(name)
        ok = [(d, z) for d, z in zip(s.durs, s.sizes) if z > 0]
        total = sum(z for _, z in ok)
        return sum(d for d, _ in ok) / total / scale if total else None

    coef = get("swilk.coefficients")
    ppf = get("normal.ppf")
    return {
        "cli.main_us": _median(get("cli.main").selfs, 1e3),
        "series.load_us_per_row": ratio("series.load", 1e3),
        "swilk.coef_cold_ms": _median([d for d, z in zip(coef.durs, coef.sizes) if z == 1], 1e6),
        "swilk.statistic_us": _median(get("swilk.statistic").selfs, 1e3),
        "swilk.pvalue_us": _median(get("swilk.pvalue").durs, 1e3),
        "normal.ppf_us": ppf.tally_ns / len(ppf.sizes) / 1e3 if len(ppf.sizes) else None,
        "markov.check_us": _median(get("markov.check").durs, 1e3),
        "forecast.band_us": _median(get("forecast.band").durs, 1e3),
        "forecast.sample_ms": _median(get("forecast.sample_paths").durs, 1e6),
        "rng.substream_us": _median(get("rng.substream").durs, 1e3),
        "rng.ns_per_draw": ratio("rng.standard_normal_matrix", 1.0),
        "cost.sample_ms": _median(get("cost.sample").durs, 1e6),
        "cost.summary_us": _median(get("cost.summarize").durs, 1e3),
    }


def layer_shares(tracer: Tracer) -> dict:
    """Share of the traced operations' time spent in each layer's own code.

    A layer's time is the self time of its spans (and tallies); ``bench`` is
    the self time of the operation spans, the harness's own work such as
    capturing stdout.
    """
    self_ns: dict[str, int] = {}
    for name, s in tracer.stats.items():
        layer = name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + sum(s.selfs) + s.tally_ns
    total = sum(self_ns.values())
    return {layer: ns / total for layer, ns in sorted(self_ns.items(), key=lambda x: -x[1])}


def sizers(ctx: Context) -> dict:
    return {
        "series.load": len,
        "swilk.coefficients": MissCounter(ctx.coef),
        "markov.check": lambda v: int(v.is_markov),
        "rng.standard_normal_matrix": lambda a: a.size,
        "forecast.sample_paths": lambda a: a.nbytes,
        "cost.sample": lambda a: a.nbytes,
    }


def round_counts(ctx: Context, tracer: Tracer):
    """Exact counts over one traced round (corpus pass, config cycle or cost call)."""
    marks = {}

    def snap():
        info = ctx.coef.cache_info()
        return tracer.snapshot(), info.hits, info.misses

    before = snap()

    def after_first():
        spans0, hits0, misses0 = before
        spans1, hits1, misses1 = snap()

        def delta(name, i):
            return spans1.get(name, (0, 0))[i] - spans0.get(name, (0, 0))[i]

        checks = delta("markov.check", 0)
        marks.update({
            "swilk.coef_misses": misses1 - misses0,
            "swilk.coef_hits": hits1 - hits0,
            "markov.checks": checks,
            "markov.accept_frac": delta("markov.check", 1) / checks if checks else 0.0,
            "rng.substreams": delta("rng.substream", 0),
            "forecast.bytes_computed": _median(
                [z for z in tracer.stat("forecast.sample_paths").sizes if z > 0], 1) or 0,
            "cost.matrix_bytes": _median(
                [z for z in tracer.stat("cost.sample").sizes if z > 0], 1) or 0,
        })

    return marks, after_first


def probe(ctx: Context) -> dict:
    """Time every layer on small fixed inputs (used only for idle layers)."""
    f = ctx.fixtures["probe"]
    tracer = Tracer(sizers(ctx))
    tracer.install()
    try:
        for _ in range(PROBE_REPEATS):
            ctx.call(["check", "--input", f["series"]])
            ctx.call(["check", "--input", f["series"], "--rule", "p-value"])
            ctx.call(["forecast", "--input", f["series"], "--force"])
            ctx.call(["cost", "--input", f["series"], "--events", f["events"],
                      "--rates", f["rates"], "--sample", "20000", "--seed", "7"])
        for n in PROBE_COEF_SIZES:
            ctx.mb.swilk.sw_coefficients(n)
        ctx.mb.simulate.run_calibration(trials=PROBE_TRIALS, seed=ctx.plan["seed"])
    finally:
        tracer.uninstall()
    return layer_times(tracer)


def traced_run(ctx: Context, workload, seconds: float) -> dict:
    """Untraced half, traced half, probe of idle layers; per-layer metrics."""
    plan = ctx.plan
    untraced = measure(workload, seconds / 2, side=plan["side"])
    if plan["workload"] == "calibrate":
        calls = []
        for k, call_ns, out in workload.reports[: len(inputs.CALIBRATE_CONFIGS)]:
            report = json.loads(out) if isinstance(out, str) else out
            calls.append((inputs.calibrate_call(ctx.fixtures, k), report, call_ns))
    else:
        args = inputs.calibrate_call({"base_seed": plan["seed"]}, 1)
        args["trials"] = PROBE_TRIALS
        calls = [(args, None, None)]
    pairs = loop_pairs(ctx.mb, calls)

    tracer = Tracer(sizers(ctx))
    counts, after_first = round_counts(ctx, tracer)
    ctx.op_span = tracer.op
    tracer.install()
    try:
        traced = measure(workload, seconds / 2, after_first)
    finally:
        tracer.uninstall()
        ctx.op_span = contextlib.nullcontext
    tracer.write(plan["trace_out"])

    times = layer_times(tracer)
    probed = probe(ctx)
    layers, sources = {}, {}
    for name, value in times.items():
        layers[name], sources[name] = (
            (value, "workload") if value is not None else (probed[name], "probe"))
    source = "workload" if plan["workload"] == "calibrate" else "probe"
    for name in ("simulate.trial_us", "simulate.loop_us"):
        layers[name], sources[name] = pairs[name], source
    layers.update(counts)
    layers["trace.overhead_frac"] = (
        statistics.median(traced["round_s"]) / statistics.median(untraced["round_s"]) - 1.0)
    return {"measured": untraced, "traced": traced, "layers": layers,
            "layer_sources": sources, "replay_mismatches": pairs["replay_mismatches"],
            "layer_shares": layer_shares(tracer),
            "spans": {"kept": len(tracer.spans), "dropped": tracer.dropped}}


def run(plan: dict) -> dict:
    mb = import_program(Path(plan["src"]))
    ctx = Context(mb, plan)
    workload = WORKLOADS[plan["workload"]](ctx)
    workload.warmup()
    result: dict = {"numpy": np.__version__}
    if plan["trace"]:
        result.update(traced_run(ctx, workload, plan["seconds"]))
    else:
        result["measured"] = measure(workload, plan["seconds"], side=plan["side"])
    result["side"] = result["measured"]["side"]
    result.update(workload.results())
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def peak_rss_mb() -> float:
    """High-water resident set of this process.

    ``ru_maxrss`` would also count the parent's memory at fork time, so the
    kernel's per-address-space mark is read where it exists.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text())
    result = run(plan)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
