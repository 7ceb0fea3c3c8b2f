#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree, in pairs.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent REF --label NAME

Each side runs its own ``bench/run.py``, unchanged, with ``--trace 0`` for
the run length that ``BENCHMARK.json`` sets: the parent side in a ``git
archive`` of REF extracted to a temporary directory, the change side in
this working tree.  Every workload of ``BENCHMARK.json`` runs one pair per
seed of ``SEEDS``, the same seed on both sides; the parent runs first in
even pairs and the change in odd ones, so that a drift of the host's speed
over the runs falls on both sides alike.

The record goes to ``BENCH_<NAME>.json`` in the repository root.  For each
workload and end-to-end metric it holds the per-seed values of each side,
their median and quartiles, and the pairs the change won (the direction
and bound come from ``BENCHMARK.json``; ties count for neither side), and
whether the change's median is within the bound: true, false, or
"unresolved" when the parent's own IQR is wider than the bound allows, as
the parent's runs then cannot tell a change of that size from noise.  It
also holds each side's git sha and the sha256 of the ``src`` that
``bench/run.py`` measured (one per side, or the script stops), and the
host's Python, numpy and BLAS versions and CPU count.  A run that fails,
prints no result or checks no output as correct stops the script with no
record written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Seeds of the pairs, in order.
SEEDS = (101, 102, 103, 104, 105, 106, 107, 108, 109, 110)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout


def extract(ref: str, dest: Path) -> None:
    """Write the files of commit ``ref`` under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``root``: its result line and its env line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv[1:])} in {root} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit(f"error: {' '.join(argv[1:])} in {root} checked its outputs "
                 f"as incorrect:\n{proc.stdout}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"result": result, "env": env}


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def within_bound(spec: dict, parent: dict, change: dict) -> bool | str:
    """Whether the change's median is within ``spec``'s bound of the parent's.

    "unresolved" when the parent's IQR exceeds the bound as a share of its
    median, unless every change run beats every parent run.
    """
    lower = spec["better"] == "lower"
    separated = (max(change["values"]) < min(parent["values"]) if lower
                 else min(change["values"]) > max(parent["values"]))
    if parent["iqr"] > spec["bound"] * parent["median"] and not separated:
        return "unresolved"
    ratio = change["median"] / parent["median"]
    return ratio <= 1 + spec["bound"] if lower else ratio >= 1 - spec["bound"]


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric: both sides' values and spreads, and the wins."""
    metrics = {}
    for spec in SPEC["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        side = {s: [r[s]["result"]["metrics"][name]["value"] for r in runs]
                for s in ("parent", "change")}
        wins = sum(c < p if lower else c > p
                   for p, c in zip(side["parent"], side["change"]))
        parent, change = spread(side["parent"]), spread(side["change"])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(runs),
            "median_ratio": change["median"] / parent["median"],
            "within_bound": within_bound(spec, parent, change),
        }
    return metrics


def blas() -> dict | None:
    """Name and version of the BLAS numpy was built with."""
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints and returns None
        return None
    return {key: found.get(key) for key in ("name", "version")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--label", required=True,
                        help="names the record BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    seconds = SPEC["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, roots["parent"])
        sides = {
            "parent": {"ref": args.parent,
                       "git_sha": git("rev-parse", args.parent + "^{commit}").strip()},
            "change": {"ref": "working tree", "git_sha": git("rev-parse", "HEAD").strip(),
                       "dirty": bool(git("status", "--porcelain"))},
        }

        workloads = {}
        for workload in (w["name"] for w in SPEC["workloads"]):
            runs = []
            for i, seed in enumerate(SEEDS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for name in order:
                    run[name] = bench_once(roots[name], workload, seed, seconds)
                    measured = run[name]["env"]["src_sha256"]
                    if sides[name].setdefault("src_sha256", measured) != measured:
                        sys.exit(f"error: the {name} side's src changed between runs")
                    print(f"{workload} seed {seed} {name}: "
                          f"{json.dumps(run[name]['result']['metrics'])}", flush=True)
                runs.append(run)
            workloads[workload] = {
                "pairs": [{"seed": r["seed"], "first": r["first"],
                           **{s: {"attempted": r[s]["result"]["attempted"],
                                  "failed": r[s]["result"]["failed"]}
                              for s in ("parent", "change")}} for r in runs],
                "metrics": summarize(runs),
            }

    record = {
        "label": args.label,
        "command": SPEC["command"],
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "sides": sides,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
