"""Output oracles: every operation's output is checked against ground truth.

An operation is one distinct input: a corpus file, a calibration call or a
cost call.  It is counted once however often the timing loop repeats it;
its repeats, and the CLI subprocess runs of it, must print the same bytes.
So ``attempted`` and ``failed`` depend on the inputs, not on how many
rounds fit in the measuring time.

A failed operation is one whose output is wrong, that crashed with a
traceback, that silently dropped or invented rows ("mangled", or
"mangled-other" outside the known BOM defect), or whose
output differed between two runs of the same input.  Refusals by name
(SeriesFormatError, DegenerateSeriesError, the more-than-5000-differences
refusal) of inputs that deserve them are not failures; they are counted as
``series.rejected``.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
from scipy import stats

import inputs

#: |W - scipy.stats.shapiro W|.  scipy's port of AS R94 builds its weights
#: with a normal quantile accurate to about 1e-7 (PPND7), so the two differ
#: by up to about 1e-8 on heavy-tailed series and 4e-10 on Gaussian ones.
W_TOL = 1e-7
#: Relative tolerance for moments and band edges recomputed from the truth.
REL_TOL = 1e-9
#: Monte Carlo checks: per report/call, and pooled over a run.
Z_CALL = 6.0
Z_POOLED = 5.0

#: Outcome classes that are not failures.
PASSING = ("ok", "rejected")
#: Failure class of the one loader defect this benchmark is meant to expose:
#: a single-column file that starts with a UTF-8 BOM loses its first row
#: and is otherwise checked correctly.  It counts as failed but does not
#: make the run incorrect.  Rows dropped or invented in any other way are
#: ``mangled-other``, which does.
KNOWN = ("mangled",)
MANGLED = KNOWN + ("mangled-other",)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.classes: Counter = Counter()
        self.examples: list[str] = []
        self.problems: list[str] = []  # checks over a whole run
        self.counts = {"series.rejected": 0, "series.mangled": 0}

    def add(self, outcome: str, detail: str = "") -> None:
        self.attempted += 1
        self.classes[outcome] += 1
        if outcome not in PASSING:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(f"{outcome}: {detail}")

    @property
    def correct(self) -> bool:
        unexpected = [c for c in self.classes if c not in PASSING + KNOWN]
        return not unexpected and not self.problems


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def _classify_refusal(case, r) -> tuple[str, str]:
    rc = r["rc"]
    if rc in (0, 1):
        return "wrong", "input that must be refused was accepted"
    if rc != 2:
        return "wrong", f"exit code {rc!r}"
    d = r["diagnosis"]
    named = {
        "format": d["type"] == "SeriesFormatError",
        "degenerate": d["type"] == "DegenerateSeriesError",
        "long": d["value_error"],
    }[case.expect]
    if named:
        return "rejected", d["type"]
    return "wrong", f"refused with {d['type']}: {d['message']}"


def _check_verdict(case, out: str) -> tuple[str, str]:
    truth = np.array(case.values)
    got = json.loads(out)
    n = truth.size - 1
    if got["n_errors"] == n:
        return _check_verdict_of(truth, got)
    detail = f"{got['n_errors']} differences reported for {n} in the file"
    if case.fmt == "bom-single" and got["n_errors"] == n - 1:
        # The known defect: the BOM makes the first row look like a header.
        # It is counted only if the rest of the series was checked correctly.
        outcome, problem = _check_verdict_of(truth[1:], got)
        if outcome == "ok":
            return "mangled", detail + " (first row dropped)"
        return outcome, f"{detail}; without the first row: {problem}"
    return "mangled-other", detail


def _check_verdict_of(truth, got: dict) -> tuple[str, str]:
    d = np.diff(truth)
    w_ref = float(stats.shapiro(d).statistic)
    if abs(got["w"] - w_ref) > W_TOL:
        return "wrong", f"W {got['w']!r} against scipy {w_ref!r}"
    mean, sd = float(d.mean()), float(d.std(ddof=1))
    if not (_close(got["error_mean"], mean) and _close(got["error_stddev"], sd)):
        return "wrong", "error moments differ from the truth"
    threshold = 1.0 - 2.0 * 0.05
    if got["threshold"] != threshold or got["is_markov"] != (got["w"] >= threshold):
        return "wrong", "verdict does not follow from W and the threshold"
    if abs(w_ref - threshold) > W_TOL and got["is_markov"] != (w_ref >= threshold):
        return "wrong", "verdict differs from the reference"
    limit = 2.0 * sd / math.sqrt(d.size)
    if abs(abs(mean) - limit) > REL_TOL * limit and got["drift_warning"] != (abs(mean) > limit):
        return "wrong", "drift flag differs from the reference"
    return "ok", ""


def _check_band(case, out: str) -> tuple[str, str]:
    truth = np.array(case.values)
    sd = float(np.diff(truth).std(ddof=1))
    x0 = float(truth[-1])
    got = json.loads(out)
    if got["x0"] != x0 or not _close(got["sigma"], sd) or got["horizon"] != inputs.HORIZON:
        return "wrong", "band anchor, sigma or horizon differs from the truth"
    ks = [b["k"] for b in got["bands"]]
    if ks != list(range(1, inputs.HORIZON + 1)):
        return "wrong", "band steps are not 1..horizon"
    for b in got["bands"]:
        half = math.sqrt(b["k"]) * sd
        if not (_close(b["lower"], x0 - half) and _close(b["upper"], x0 + half)):
            return "wrong", f"band edge at k={b['k']} differs from x0 +/- sqrt(k)*sigma"
    return "ok", ""


def _screen_outcome(case, r) -> tuple[str, str]:
    rc = r["rc"]
    if isinstance(rc, str):
        return "crash", rc
    if case.expect != "ok":
        return _classify_refusal(case, r)
    if rc == 2:
        return "wrong", f"valid series refused: {r['diagnosis']['message']}"
    if rc not in (0, 1):
        return "wrong", f"exit code {rc!r}"
    outcome = _check_verdict(case, r["out"])
    if outcome[0] != "ok" or rc == 1:
        return outcome
    if r["forecast_rc"] != 0:
        return "wrong", f"forecast of a passing series exited {r['forecast_rc']!r}"
    return _check_band(case, r["forecast_out"])


def check_screen(inp, result: dict, cli_runs: list) -> Tally:
    tally = Tally()
    outcomes = []
    for i, (case, r) in enumerate(zip(inp.cases, result["files"])):
        outcome, detail = _screen_outcome(case, r)
        # The i-th subprocess run checks the i-th file (see run.side_runs).
        differing = [(rc, out) for rc, out, _ms in cli_runs[i::len(inp.cases)]
                     if (rc, out) != (r["rc"], r["out"])]
        if outcome in PASSING and (r["mismatches"] or differing):
            outcome, detail = "nondeterministic", (
                f"{r['mismatches']} differing repeats, {len(differing)} differing subprocess runs")
        outcomes.append(outcome)
        tally.add(outcome, f"{case.path} ({case.kind}, {case.fmt}): {detail}")
    tally.counts["series.rejected"] = outcomes.count("rejected")
    tally.counts["series.mangled"] = sum(outcomes.count(c) for c in MANGLED)
    return tally


def exact_coverage(walk_length: int) -> float:
    """P(|T| <= 1) for Student t with walk_length - 2 degrees of freedom."""
    return float(2.0 * stats.t.cdf(1.0, walk_length - 2) - 1.0)


def _calibration_problem(args: dict, rep: dict) -> str:
    expect = exact_coverage(args["walk_length"])
    se = math.sqrt(expect * (1.0 - expect) / args["trials"])
    cov = rep["coverage_per_step"]
    if (rep["trials"], rep["walk_length"], rep["horizon"], rep["true_sigma"]) != (
            args["trials"], args["walk_length"], args["horizon"], args["sigma"]):
        return "report parameters differ from the call"
    if len(cov) != args["horizon"] or any(abs(c - expect) > Z_CALL * se for c in cov):
        return f"coverage {cov} against exact {expect:.4f} +/- {Z_CALL} SE"
    if not 0.0 <= rep["markov_acceptance_rate"] <= 1.0 or rep["sigma_hat_rel_error"] != abs(
            rep["sigma_hat_mean"] - args["sigma"]) / args["sigma"]:
        return "acceptance rate or sigma-hat error is inconsistent"
    return ""


def check_calibrate(inp, result: dict, cli_runs: list) -> Tally:
    tally = Tally()
    pooled: dict[int, list] = {}
    for k, _ns, out in result["reports"]:
        args = inputs.calibrate_call(inp.fixtures, k)
        if isinstance(out, str):
            rep = json.loads(out)
            problem = _calibration_problem(args, rep)
            outcome = "wrong" if problem else "ok"
        else:
            outcome, problem = "crash", out["error"]
        if k == 0 and outcome == "ok":
            differing = [r for r in cli_runs if not (r[0] == 0 and r[1].rstrip("\n") == out)]
            if differing:
                outcome, problem = "nondeterministic", (
                    f"{len(differing)} simulate subprocess runs differ")
        tally.add(outcome, f"call {k}: {problem}")
        if outcome == "ok":
            pooled.setdefault(args["walk_length"], []).append(rep["coverage_per_step"])
    for walk_length, covs in pooled.items():
        expect = exact_coverage(walk_length)
        se = math.sqrt(expect * (1.0 - expect) / (inputs.CALIBRATE_TRIALS * len(covs)))
        worst = float(np.max(np.abs(np.mean(covs, axis=0) - expect)))
        if worst > Z_POOLED * se:
            tally.problems.append(
                f"pooled coverage at L={walk_length} is {worst / se:.1f} SE from {expect:.4f}")
    return tally


def cost_truth(truth: dict) -> tuple[float, float, float, float]:
    """x0, sigma-hat, ADC and ASC recomputed from the fixtures."""
    values = np.array(truth["values"])
    r = truth["rates"]
    direct, spare = [], []
    for m in truth["months"]:
        n = m["delays"] + m["cancellations"] + m["diversions"] + m["air_turnbacks"]
        direct.append((r["delay"] * m["delays"] + r["cancellation"] * m["cancellations"]
                       + r["diversion"] * m["diversions"]
                       + r["air_turnback"] * m["air_turnbacks"]) / n)
        spare.append(r["spare"] * m["spares"] / n)
    return float(values[-1]), float(np.diff(values).std(ddof=1)), float(np.mean(direct)), float(
        np.mean(spare))


def _sample_problem(inp, k: int, out: str) -> str:
    x0, sd, adc, asc = cost_truth(inp.truth)
    rate = adc + asc
    got = json.loads(out)
    if not (_close(got["adc"], adc) and _close(got["asc"], asc)):
        return "ADC/ASC differ from the truth"
    for k_step, b in enumerate(got["cost_bands"], start=1):
        half = math.sqrt(k_step) * sd
        if not (_close(b["lower"], (x0 - half) * rate) and _close(b["upper"], (x0 + half) * rate)):
            return f"cost band at k={k_step} differs from (x0 +/- sqrt(k)*sigma) * rate"
    summary = got["samples_summary"]
    n = inputs.SAMPLE_PATHS
    if summary["count"] != n or summary["seed"] != inp.fixtures["base_seed"] + k:
        return "sample count or seed differs from the call"
    if len(summary["per_step"]) != inputs.HORIZON:
        return "per-step summary has the wrong length"
    for step in summary["per_step"]:
        spread = math.sqrt(step["k"]) * sd * rate
        if abs(step["mean"] - x0 * rate) > Z_CALL * spread / math.sqrt(n):
            return f"step {step['k']} mean {step['mean']} against {x0 * rate}"
        if abs(step["stddev"] - spread) > Z_CALL * spread / math.sqrt(2.0 * (n - 1)):
            return f"step {step['k']} stddev {step['stddev']} against {spread}"
    return ""


def check_sample(inp, result: dict, cli_runs: list) -> Tally:
    tally = Tally()
    for k, rc, out in result["outputs"]:
        if isinstance(rc, str):
            outcome, problem = "crash", rc
        else:
            problem = f"exit code {rc!r}" if rc != 0 else _sample_problem(inp, k, out)
            outcome = "wrong" if problem else "ok"
        if k == 0 and outcome == "ok":
            differing = [r for r in cli_runs if (r[0], r[1]) != (rc, out)]
            if differing:
                outcome, problem = "nondeterministic", (
                    f"{len(differing)} cost subprocess runs differ")
        tally.add(outcome, f"call {k}: {problem}")
    return tally


CHECKS = {"screen": check_screen, "calibrate": check_calibrate, "sample": check_sample}
