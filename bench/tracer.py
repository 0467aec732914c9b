"""Span tracing of oddkg from outside the package.

`Tracer.install()` swaps the module-level names through which the package
calls into each layer for timing wrappers; `Tracer.restore()` puts the
originals back.  Untraced benchmark runs never call `install`, so they run
the package unmodified.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
and are written out once, at the end of the benchmark.  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

ROOT_SPAN = "cli.main"

#: the standalone virial functionals that the experiments module imports
STANDALONE = ("bilinear_B", "bsharp", "to_w", "virial_I", "weighted_norms", "H_loc")

# (module, attribute, span name).  A name is patched in the module that
# looks it up at call time, which is the caller's module when the callee
# was imported with `from ... import`.
HOOKS = (
    ("oddkg.cli", "build_config", "experiments.build_config"),
    ("oddkg.cli", "run_scenario", "experiments.run_scenario"),
    ("oddkg.experiments", "config_model", "experiments.config_model"),
    ("oddkg.experiments", "make_initial_data", "experiments.make_initial_data"),
    ("oddkg.experiments", "random_odd_field", "experiments.random_odd_field"),
    ("oddkg.experiments", "write_timeseries", "experiments.write_timeseries"),
    ("oddkg.experiments", "write_summary", "experiments.write_summary"),
    ("oddkg.experiments", "run", "integrator.run"),
    *(("oddkg.experiments", name, f"virial.{name}") for name in STANDALONE),
    ("oddkg.integrator", "make_record", "virial.make_record"),
    ("oddkg.integrator", "fill_dI_dt_numeric", "virial.fill_dI_dt_numeric"),
    ("oddkg.virial", "integrate_fullline", "grid.integrate_fullline"),
    ("oddkg.virial", "derivative", "grid.derivative"),
    ("oddkg.spectral", "lowest_eigs", "spectral.lowest_eigs"),
    ("oddkg.spectral", "negative_count", "spectral.negative_count"),
    ("oddkg.spectral", "coercivity_certificate", "spectral.coercivity_certificate"),
    ("oddkg.spectral", "index_check", "spectral.index_check"),
    ("oddkg.spectral", "_sturm_count", "spectral._sturm_count"),
)


class TraceError(RuntimeError):
    """The recorded spans are not a well-nested tree under one root."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def take(self) -> tuple[list, dict]:
        """Return the spans and counters recorded so far and start afresh."""
        out = (self.spans, self.counters)
        self.spans, self.counters, self._stack = [], {}, []
        return out

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self.spans
            stack = self._stack
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        return traced

    def install(self, modules: dict) -> None:
        """Patch every hook; `modules` maps module names to module objects."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name in HOOKS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, self._adapt(span_name, original)))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def _adapt(self, span_name: str, fn):
        """Extra bookkeeping for the hooks that count work or nest callbacks."""
        if span_name == "experiments.config_model":
            def config_model(*args, **kwargs):
                model = fn(*args, **kwargs)
                return dataclasses.replace(model, f=self.wrap("models.f", model.f))
            return config_model
        if span_name == "integrator.run":
            def run(initial, model, settings, *args, **kwargs):
                if kwargs.get("on_record") is not None:
                    kwargs["on_record"] = self.wrap("experiments.on_record",
                                                    kwargs["on_record"])
                records = fn(initial, model, settings, *args, **kwargs)
                if records:
                    self.count("integrator.steps", round(records[-1].t / settings.dt))
                return records
            return run
        if span_name == "experiments.write_timeseries":
            def write_timeseries(records, path, *args, **kwargs):
                fn(records, path, *args, **kwargs)
                self.count("experiments.csv_bytes", Path(path).stat().st_size)
            return write_timeseries
        if span_name == "spectral._sturm_count":
            def sturm_count(diag, *args, **kwargs):
                self.count("spectral.pivots", len(diag))
                return fn(diag, *args, **kwargs)
            return sturm_count
        return fn


def write_spans(spans: list, path: Path) -> None:
    """One JSON object per line: name, start_ns, end_ns, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps({"name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent}) + "\n")


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Checks that the spans form one tree under a single root with every
    child inside its parent's interval, and that the self times sum to
    the root span exactly.
    """
    if not spans or spans[0][3] != -1:
        raise TraceError("the first span must be the root")
    own = [end - start for _, start, end, _ in spans]
    for i, (name, start, end, parent) in enumerate(spans[1:], start=1):
        if parent < 0:
            raise TraceError(f"span {i} ({name}) is outside the root span")
        _, pstart, pend, _ = spans[parent]
        if not pstart <= start <= end <= pend:
            raise TraceError(f"span {i} ({name}) is not inside its parent")
        own[parent] -= end - start
    root = spans[0][2] - spans[0][1]
    if min(own) < 0 or sum(own) != root:
        raise TraceError(f"self times sum to {sum(own)} ns, root span is {root} ns")
    return own
