"""In-memory spans around markovband's public functions, recorded from outside.

``Tracer.install`` replaces every binding of a traced function inside the
loaded ``markovband`` modules (so calls between modules are seen too) with a
wrapper that records a span: name, start, end, parent span and the
benchmark operation it belongs to.  Self time -- a span's duration minus the
time its child spans cover -- is accumulated as the spans close.  Per-call
durations are kept for every call; raw span records are kept up to
``SPAN_CAP`` and written out by ``write``.

Hot leaf functions (``norm_ppf`` is called once per weight) are tallied
instead: their count and total time are kept, and their time is taken off
the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import json
import sys
from array import array
from time import perf_counter_ns

SPAN_CAP = 50_000

#: (module, function, span name, how): how is "span" or "tally".  These are
#: the functions the per-layer metrics need plus every function cli.main
#: calls, so that cli.main's self time is its own work.
TARGETS = (
    ("cli", "main", "cli.main", "span"),
    ("series", "load_series", "series.load", "span"),
    ("markov", "check_markov", "markov.check", "span"),
    ("swilk", "sw_statistic", "swilk.statistic", "span"),
    ("swilk", "sw_coefficients", "swilk.coefficients", "span"),
    ("swilk", "sw_pvalue", "swilk.pvalue", "span"),
    ("normal", "norm_ppf", "normal.ppf", "tally"),
    ("forecast", "band", "forecast.band", "span"),
    ("forecast", "sample_paths", "forecast.sample_paths", "span"),
    ("rng", "substream", "rng.substream", "span"),
    ("rng", "standard_normal_matrix", "rng.standard_normal_matrix", "span"),
    ("cost", "load_events", "cost.load_events", "span"),
    ("cost", "load_rates", "cost.load_rates", "span"),
    ("cost", "summarize_costs", "cost.summarize", "span"),
    ("cost", "cost_band", "cost.band", "span"),
    ("cost", "sample_costs", "cost.sample", "span"),
    ("simulate", "run_calibration", "simulate.run_calibration", "span"),
)


class Stat:
    """Per-call durations, self times and sizes of one span name."""

    def __init__(self) -> None:
        self.durs = array("q")
        self.selfs = array("q")
        self.sizes = array("q")
        self.tally_ns = 0


class Tracer:
    def __init__(self, sizers: dict | None = None) -> None:
        #: span name -> function(result) giving the call's size (rows, draws, bytes)
        self.sizers = sizers or {}
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list[int]] = []  # [child_ns, span_id, start_ns]
        self._next_id = 0
        self._op = 0
        self._patched: list[tuple] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _enter(self) -> list[int]:
        """Open a span: push its frame [child_ns, span_id, start_ns]."""
        self._next_id += 1
        frame = [0, self._next_id, 0]
        self._stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def _exit(self, name: str, stat: Stat, frame: list[int], size: int) -> None:
        """Close the innermost span: record its times and charge its parent."""
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        child_ns, span_id, start = frame
        dur = end - start
        own = dur - child_ns
        if stack:
            stack[-1][0] += dur
        stat.durs.append(dur)
        stat.selfs.append(own)
        stat.sizes.append(size)
        if len(self.spans) < SPAN_CAP:
            parent = stack[-1][1] if stack else 0
            self.spans.append((span_id, parent, self._op, name, start, end, own))
        else:
            self.dropped += 1

    def span_wrapper(self, name: str, fn):
        stat = self.stat(name)
        sizer = self.sizers.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            size = -1
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(result)
                return result
            finally:
                tracer._exit(name, stat, frame, size)

        traced.__wrapped__ = fn
        return traced

    def tally_wrapper(self, name: str, fn):
        stat = self.stat(name)
        stack = self._stack

        def tallied(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stat.tally_ns += dur
                stat.sizes.append(1)
                if stack:
                    stack[-1][0] += dur

        tallied.__wrapped__ = fn
        return tallied

    @contextlib.contextmanager
    def op(self, name: str = "bench.op"):
        """One benchmark operation, the parent of its spans."""
        stat = self.stat(name)
        self._op += 1
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, stat, frame, -1)

    def install(self, package: str = "markovband") -> None:
        """Wrap every binding of the traced functions in the loaded modules."""
        wrappers = {}
        for module, attr, name, how in TARGETS:
            fn = getattr(sys.modules[f"{package}.{module}"], attr)
            make = self.span_wrapper if how == "span" else self.tally_wrapper
            wrappers[id(fn)] = make(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """(calls, sum of sizes) per span name, for per-round count deltas."""
        return {
            name: (len(s.sizes), sum(x for x in s.sizes if x > 0))
            for name, s in self.stats.items()
        }

    def write(self, path) -> None:
        """Write a summary line, then one JSON array per recorded span."""
        summary = {
            name: {
                "calls": len(s.sizes),
                "total_ns": sum(s.durs) + s.tally_ns,
                "self_ns": sum(s.selfs) + s.tally_ns,
            }
            for name, s in self.stats.items()
        }
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary, "dropped_spans": self.dropped,
                                 "fields": ["id", "parent", "op", "name", "start_ns",
                                            "end_ns", "self_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

