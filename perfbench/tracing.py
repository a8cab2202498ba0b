"""Spans around the public functions of cpdlab, installed from outside the package.

:class:`Tracer` replaces each target function at every name the cpdlab
modules bind it to (``cpdlab.recipes.train`` as well as
``cpdlab.network.train``), so calls made through any of those names are
recorded.  Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall`
puts every original object back.

Spans are recorded only while a command is open (:meth:`Tracer.command`),
so the benchmark's own checks, which call cpdlab between commands, stay
out of the trace.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _rows(args, kwargs, result):
    return len(result)


def _input_rows(args, kwargs, result):
    x = args[-1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else shape[0]


def _series_rows(args, kwargs, result):
    return 1


def _samples(args, kwargs, result):
    return len(result.labels) + result.window_length - 1


def _report_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _example_epochs(args, kwargs, result):
    bound = _train_signature().bind(*args, **kwargs)
    bound.apply_defaults()
    return len(bound.arguments["y"]) * bound.arguments["config"].epochs


@functools.cache
def _train_signature():
    from cpdlab import network

    return inspect.signature(network.train)


def train_flop(architecture, example_epochs: int) -> float:
    """Floating-point operations of training, computed from the layer shapes.

    Per example: the forward pass and the weight gradients each cost
    ``2 * sum(d_in * d_out)``, and back-propagating the error costs the
    same minus the first layer, which needs no input gradient.
    Element-wise work (ReLU, loss, Adam) is left out.
    """
    dims = architecture.layer_dims
    weights = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    per_example = 2 * weights + 2 * weights + 2 * (weights - dims[0] * dims[1])
    return float(per_example) * example_epochs


@dataclass(frozen=True)
class Target:
    """One traced function: its defining module, its name there, its work count."""

    module: str
    name: str
    work: str | None = None
    count: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}"


TARGETS = (
    Target("simulate", "gen_scenario", "rows", _rows),
    Target("simulate", "gen_multiclass", "rows", _rows),
    Target("simulate", "gen_piecewise", "rows", _series_rows),
    Target("cusum", "cusum_statistic"),
    Target("cusum", "cusum_star_statistic"),
    Target("cusum", "step_response"),
    Target("robust", "wilcoxon_statistic"),
    Target("robust", "zscore_truncate"),
    Target("glr", "lr_variance_scan"),
    Target("glr", "lr_slope_scan"),
    Target("glr", "adaptive_classify"),
    Target("network", "Preprocessor.apply", "rows", _input_rows),
    Target("network", "forward", "rows", _input_rows),
    Target("network", "train", "example_epochs", _example_epochs),
    Target("network", "loss_and_gradient"),
    Target("network", "network_from_json"),
    Target("localise", "localise", "samples", _samples),
    Target("evaluate", "tune_threshold"),
    Target("evaluate", "batch_cusum_statistics"),
    Target("evaluate", "mer_from_predictions"),
    Target("evaluate", "monte_carlo_bound_check"),
    Target("dataio", "load_dataset"),
    Target("dataio", "load_values"),
    Target("dataio", "write_report", "bytes", _report_bytes),
    Target("recipes", "run_recipe"),
    Target("cli", "main"),
)

# Tracing overhead, from pairs of untraced and traced passes, and the
# speed factor that turns this run's seconds into reference seconds.
TRACE_METRICS = {
    "trace.untraced_wall_ref_s": "ref-s",
    "trace.traced_wall_ref_s": "ref-s",
    "trace.overhead_ref_s": "ref-s",
    "trace.speed_factor": "ref-s/s",
}


def _target_units(targets) -> dict:
    units = {}
    for t in targets:
        units[f"{t.label}.calls"] = "count"
        units[f"{t.label}.total_s"] = "s"
        units[f"{t.label}.self_s"] = "s"
        units[f"{t.label}.errors"] = "count"
        if t.work:
            units[f"{t.label}.{t.work}"] = "bytes" if t.work == "bytes" else "count"
    return units


def layer_metric_units() -> dict:
    """Name and unit of every per-layer metric, in report order."""
    return {**_target_units(TARGETS), "network.train.gflop_computed": "GFLOP",
            "network.train.gflops": "GFLOP/s", **TRACE_METRICS}


class Span:
    """One call of a traced function; ``parent`` indexes the enclosing span."""

    __slots__ = ("name", "command", "parent", "start", "end", "error", "work", "outer")

    def __init__(self, name, command, parent, outer):
        self.name = name
        self.command = command
        self.parent = parent
        self.outer = outer
        self.start = self.end = 0.0
        self.error = False
        self.work = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the target functions while a command is open."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.train_flop = 0.0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._command = None
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def command(self, command_id: str):
        """Record the spans of one command under ``command_id``."""
        self._command = command_id
        try:
            yield
        finally:
            self._command = None

    def wrap(self, label: str, fn, count=None):
        """Return ``fn`` wrapped so that each call inside a command becomes a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._command is None:
                return fn(*args, **kwargs)
            depth = tracer._open.get(label, 0)
            span = Span(label, tracer._command,
                        tracer._stack[-1] if tracer._stack else None, depth == 0)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open[label] = depth + 1
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                tracer._open[label] = depth
            if count is not None:
                span.work = count(args, kwargs, result)
                if label == "network.train":
                    tracer.train_flop += train_flop(result.architecture, span.work)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        """Replace every target at each name a cpdlab module binds it to."""
        for t in self.targets:
            module = importlib.import_module(f"cpdlab.{t.module}")
            owner_name, _, attr = t.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, self.wrap(t.label, original, t.count))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(t.label, original, t.count)
            for name, loaded in list(sys.modules.items()):
                if name != "cpdlab" and not name.startswith("cpdlab."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back, last replaced first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_metrics(self, passes: int = 1) -> dict:
        """Per-layer metrics of the recorded spans, averaged over ``passes``.

        A span's self time is its duration minus the time its child
        spans cover; spans of one thread nest, so that is the sum of the
        children's durations.  A call nested in a call of the same
        function adds to ``calls`` but not again to ``total_s``.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        values = dict.fromkeys(_target_units(self.targets), 0.0)
        works = {t.label: t.work for t in self.targets}
        for span, children in zip(self.spans, child_time):
            values[f"{span.name}.calls"] += 1
            if span.outer:
                values[f"{span.name}.total_s"] += span.duration
            values[f"{span.name}.self_s"] += span.duration - children
            values[f"{span.name}.errors"] += span.error
            if span.work is not None:
                values[f"{span.name}.{works[span.name]}"] += span.work
        values = {k: v / passes for k, v in values.items()}
        flop = self.train_flop / passes
        values["network.train.gflop_computed"] = flop / 1e9
        train_s = values.get("network.train.total_s", 0.0)
        values["network.train.gflops"] = flop / 1e9 / train_s if train_s > 0 else 0.0
        return values

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "command": span.command,
                    "parent": span.parent, "start": span.start - origin,
                    "end": span.end - origin, "error": span.error,
                }) + "\n")


def installed_wrappers() -> list[str]:
    """Names of cpdlab attributes that currently hold a traced wrapper."""
    found = []
    for name, loaded in list(sys.modules.items()):
        if name != "cpdlab" and not name.startswith("cpdlab."):
            continue
        for key, value in vars(loaded).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{name}.{key}.{attr}")
    return found
