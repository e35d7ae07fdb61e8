"""Spans and counts around the public functions of every qforge layer.

install() rebinds each public function of each layer module, on that module
and wherever another qforge module imported it by name, to a wrapper that
records (name, start, end, parent, target).  Calls within a module go through
the module's globals, so they are wrapped too.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "qmath", "families", "synth_pure", "elements", "compilers",
    "spectral", "recipe_io", "matrix_io", "cli",
)
TARGET = "target"  # name of the root span of each target


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent_id, target)
        self.stack: list[int] = []
        self.active = False
        self.target = -1

    def install(self) -> None:
        import qforge

        mods = {name: importlib.import_module(f"qforge.{name}") for name in LAYERS}
        holders = [qforge, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key in [k for k, v in vars(holder).items() if v is fn]:
                        setattr(holder, key, wrapped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.target)

        return traced

    def open_span(self, target: int) -> int:
        """Root span of one target; later spans are its children."""
        self.target = target
        sid = len(self.spans)
        self.spans.append((TARGET, time.perf_counter_ns(), None, -1, target))
        self.stack.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        name, t0, _, parent, target = self.spans[sid]
        self.stack.pop()
        self.spans[sid] = (name, t0, time.perf_counter_ns(), parent, target)

    def add_span(self, name, t0, t1, parent, target) -> int:
        self.spans.append((name, t0, t1, parent, target))
        return len(self.spans) - 1

    def add_child_spans(self, spans: list, parent: int, target: int) -> None:
        """Spans recorded in a child process; its roots hang under `parent`."""
        base = len(self.spans)
        for name, t0, t1, p, _ in spans:
            self.spans.append((name, t0, t1, parent if p < 0 else base + p, target))

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for sid, (name, t0, t1, parent, target) in enumerate(self.spans):
                f.write(json.dumps([sid, name, t0, t1, parent, target]) + "\n")


def self_times(spans: list) -> list[int]:
    """Duration minus the part covered by direct children, per span."""
    child = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def summarize(spans: list, counted_targets: set[int]) -> dict:
    """Per-function call counts (over counted targets), median durations and
    self times (over every span), and per-layer self time over target time."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    self_us = defaultdict(list)
    calls = defaultdict(int)
    layer_self = defaultdict(int)
    target_ns = 0
    for (name, t0, t1, _, target), own in zip(spans, selfs):
        durations[name].append((t1 - t0) / 1e3)
        self_us[name].append(own / 1e3)
        if target not in counted_targets:
            continue
        if name == TARGET:
            target_ns += t1 - t0
            continue
        calls[name] += 1
        layer_self[name.split(".")[0]] += own
    return {
        "us": {k: statistics.median(v) for k, v in durations.items()},
        "self_us": {k: statistics.median(v) for k, v in self_us.items()},
        "calls_per_target": {k: v / len(counted_targets) for k, v in calls.items()},
        "self_share": {k: v / target_ns for k, v in layer_self.items()},
    }


def run_traced_cli(spans_path: str, argv: list[str]) -> None:
    """Run the qforge CLI in this process with every layer traced, then write
    the spans as JSON, whatever the exit status."""
    tracer = Tracer()
    tracer.install()
    import qforge.cli

    tracer.active = True
    sys.argv = ["qforge", *argv]
    try:
        qforge.cli.main()
    finally:
        tracer.active = False
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)
