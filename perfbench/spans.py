"""Span recorder for the benchmark's traced runs (stdlib only).

`Recorder.install()` wraps the public qrotor functions named in `TRACED`
both in the module that defines them and in every qrotor module that
imported them by name, so internal calls such as
``lineshape_peak -> stack_average`` are caught as well as calls from the CLI.
Each call becomes one span: name, start, end, parent span and job id.  Spans
stay in memory until `dump()` writes them as JSON lines; `self_times()` sums
self time per span name, and `counters` holds the counts derived from call
arguments.

The recorder is an object the caller owns and installs; nothing here runs at
import time, so a later ``--trace`` option in the package can reuse it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

# Module -> its public functions that get a span.  `units` and `exceptions`
# hold constants only and get none.
TRACED = {
    "qrotor.config": ["parse_config"],
    "qrotor.optics": ["optical_potential", "ring_minima"],
    "qrotor.spectrum": ["assemble_spectrum", "solve_radial", "solve_axial"],
    "qrotor.raman": ["calibrate_quadratic_scale", "lineshape_peak", "stack_average",
                     "fit_lineshape", "fit_model"],
    "qrotor.fivelevel": ["raman_resonance", "evolve_populations", "oscillation_frequency"],
    "qrotor.sensor": ["sensor_budget", "tilt_compensation", "rotation_scan_rows",
                      "transition_frequency"],
    "qrotor.output": ["write_csv", "write_json", "parallel_map"],
}
CLI_SUBCOMMANDS = ("spectrum", "lineshape", "rotation-scan", "budget", "tilt")

# Counters derived from call arguments, keyed by span name.  Bytes of the
# stack-average grid x ring block are computed from the array shapes (one
# float64 per cell), not measured.
_COUNTERS = {
    "raman.stack_average": lambda a: {
        "raman.stack_average.cells": _cells(a),
        "raman.stack_average.bytes_computed": 8 * _cells(a),
    },
    "spectrum.solve_radial": lambda a: {"spectrum.grid_points": a["grid_points"]},
    "spectrum.solve_axial": lambda a: {"spectrum.grid_points": a["grid_points"]},
    "fivelevel.evolve_populations": lambda a: {
        "fivelevel.evolve_populations.steps": a["steps_per_period"]},
    "output.write_csv": lambda a: {"output.bytes_written": os.path.getsize(a["path"])},
    "output.write_json": lambda a: {"output.bytes_written": os.path.getsize(a["path"])},
}
COUNTER_NAMES = ("raman.stack_average.cells", "raman.stack_average.bytes_computed",
                 "spectrum.grid_points", "fivelevel.evolve_populations.steps",
                 "output.bytes_written")
_MAXIMA = ("output.parallel_map.workers",)


def _cells(args) -> int:
    grid = getattr(args["delta"], "size", 1)
    return int(grid) * len(args["ring_shifts"])


_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)
_current_job: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_job", default=None)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: str | None
    start: float
    end: float = 0.0


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()   # counters are updated from worker threads

    # -- recording -------------------------------------------------------
    def _open(self, name: str):
        span = Span(next(self._ids), name, _current_span.get(), _current_job.get(),
                    time.perf_counter())
        self.spans.append(span)
        return span, _current_span.set(span.id)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _current_span.reset(token)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of the `with` block."""
        span, token = self._open(name)
        try:
            yield span
        finally:
            self._close(span, token)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Tag every span opened inside the `with` block with `job_id`."""
        token = _current_job.set(job_id)
        try:
            yield
        finally:
            _current_job.reset(token)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- installation ----------------------------------------------------
    def _wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        counter = _COUNTERS.get(name)
        recorder = self
        is_pool = name == "output.parallel_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if counter is not None or is_pool:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            with recorder.span(name):
                if is_pool:
                    # worker threads start from an empty context; run each
                    # item in a copy of this span's context so the item's
                    # spans keep their parent and job
                    recorder.record_max("output.parallel_map.workers",
                                        bound.arguments["workers"])
                    inner, ctx = bound.arguments["fn"], contextvars.copy_context()
                    bound.arguments["fn"] = lambda item: ctx.copy().run(inner, item)
                    args, kwargs = bound.args, bound.kwargs
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(bound.arguments).items():
                    recorder.count(key, value)
            recorder.count(name + ".calls", 1)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function where it is defined and where imported."""
        if self._patches:
            return
        import qrotor.cli as cli  # loads every traced module

        users = [m for n, m in sys.modules.items() if n == "qrotor" or n.startswith("qrotor.")]
        for mod_name, names in TRACED.items():
            module = importlib.import_module(mod_name)
            layer = mod_name.split(".", 1)[1]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(original, f"{layer}.{fname}")
                for user in users:
                    if getattr(user, fname, None) is original:
                        self._patch(user, fname, wrapped)
        for sub in CLI_SUBCOMMANDS:
            command = cli.cli.commands[sub]
            self._patch(command, "callback", self._wrap(command.callback, f"cli.{sub}"))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans as JSON lines, then one line of counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "job": s.job, "start": s.start, "end": s.end}) + "\n")
            fh.write(json.dumps({"counters": self.counters, "maxima": self.maxima}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed: duration minus the part of it that
        child spans cover.  Children of one parent overlap when they run on
        worker threads, so the covered part is the union of their intervals.
        """
        children: dict[tuple, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault((s.job, s.parent), []).append((s.start, s.end))
        out: dict[str, float] = {}
        for s in self.spans:
            covered = [(max(lo, s.start), min(hi, s.end))
                       for lo, hi in children.get((s.job, s.id), ())]
            own = (s.end - s.start) - _union_length([c for c in covered if c[1] > c[0]])
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def layer_metrics(self, names, measured: dict, per: float = 1) -> dict[str, float]:
        """Values of the per-layer metrics `names` from this run's spans.

        ``<span>.s`` / ``<span>.self_s`` is the summed self time of one traced
        function, ``<layer>.s`` that of every traced function of the layer,
        ``<span>.calls`` and the argument-derived counters are sums; every sum
        is divided by `per` (the cycles of jobs the run traced).  Maxima are
        not divided, and `measured` supplies the values taken outside the
        spans.
        """
        self_s = self.self_times()
        spans = {f"{mod.split('.', 1)[1]}.{fn}" for mod, fns in TRACED.items() for fn in fns}
        spans |= {f"cli.{sub}" for sub in CLI_SUBCOMMANDS}
        layers = {name.split(".", 1)[0] for name in spans}
        out = {}
        for name in names:
            base, _, suffix = name.rpartition(".")
            if name in measured:
                out[name] = measured[name]
            elif name in _MAXIMA:
                out[name] = self.maxima.get(name, 0)
            elif name in COUNTER_NAMES or (suffix == "calls" and base in spans):
                out[name] = self.counters.get(name, 0) / per
            elif suffix in ("s", "self_s") and base in spans:
                out[name] = self_s.get(base, 0.0) / per
            elif suffix == "s" and base in layers:
                out[name] = sum((v for k, v in self_s.items() if k.startswith(base + ".")),
                                0.0) / per
            else:
                raise KeyError(f"no traced source for per-layer metric {name!r}")
        return out


def _union_length(intervals) -> float:
    total, lo_run, hi_run = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        total += hi_run - lo_run
    return total
