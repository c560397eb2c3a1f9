"""Per-layer spans around polyflow's public functions, installed from outside.

``Tracer.install`` wraps every public function defined in the layer modules
and rebinds each name through which a call can reach it: the defining
module, ``from``-imports in other modules (``spectral_flow.real_basis``,
``yau_flow.flow_solution``, ``cli.run_rk4``, ...), the package namespace and
module-level dispatch tables.  ``remove`` puts every original back.

Spans nest on one stack.  Per span name the tracer keeps the call count,
busy time (outermost spans only, so recursion is not counted twice) and self
time (duration minus the time covered by child spans).  Times gather per job
and ``fold`` adds them to the totals scaled to reference machine speed.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("circulant", "polygon", "spectral_flow", "yau_flow", "integrate", "svg", "cli")

# Per-element helpers, called once per vertex, mode or CSV cell: a span each
# would cost more than the work it times and swamp the layers above them.
LEAVES = {
    "circulant": {"root_of_unity", "lambda_base", "flow_eigenvalue", "um_value"},
    "polygon": {"format_float"},
}

METHODS = {"spectral_flow": {"FlowSolution": ("from_decomposition", "polygon_at")}}


def _inserted(counters, args, kwargs, result):
    a, b = args[0], args[1]
    counters["polygon.reconcile_vertex_counts.inserted"] += (
        result[0].n - a.n + result[1].n - b.n
    )


def _integrated(counters, args, kwargs, result):
    counters["integrate.steps"] += len(result.times) - 1
    counters["integrate.retained_states"] += len(getattr(result, "polygons", ()))


def _svg_bytes(counters, args, kwargs, result):
    counters["svg.bytes_out"] += os.path.getsize(args[1])


def _csv_bytes(counters, args, kwargs, result):
    counters["cli.csv_bytes"] += os.path.getsize(args[0])


AFTER = {
    "polygon.reconcile_vertex_counts": _inserted,
    "integrate.integrate": _integrated,
    "svg.write": _svg_bytes,
    "cli.write_trajectory_csv": _csv_bytes,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self._job_busy: Counter = Counter()
        self._job_self: Counter = Counter()
        self.counters: Counter = Counter()
        self._open: Counter = Counter()
        self._stack: list[list[float]] = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                self._job_self[name] += duration - children[0]
                if not self._open[name]:
                    self._job_busy[name] += duration
                if self._stack:
                    self._stack[-1][0] += duration
            if after is not None:
                try:
                    after(self.counters, args, kwargs, result)
                except Exception:  # a counter must never fail the traced call
                    self.counters["tracer.hook_errors"] += 1
            return result

        span.__wrapped__ = fn
        return span

    def fold(self, scale: float):
        """Add the times gathered since the last fold, multiplied by ``scale``."""
        for job, total in ((self._job_busy, self.busy), (self._job_self, self.self_time)):
            for name, seconds in job.items():
                total[name] += seconds * scale
            job.clear()

    def install(self) -> list[str]:
        """Wrap the layers; returns the span names installed."""
        modules = {layer: importlib.import_module(f"polyflow.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        installed = []
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__
                        and name not in LEAVES.get(layer, ())):
                    installed.append(f"{layer}.{name}")
                    wrappers[id(obj)] = (obj, self.wrap(installed[-1], obj))
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for name in names:
                    installed.append(f"{layer}.{cls_name}.{name}")
                    self._patch_method(cls, name, installed[-1])
        polygon_cls = modules["polygon"].Polygon
        original_init = polygon_cls.__dict__["__init__"]

        def counted_init(obj, *args, **kwargs):
            self.counters["polygon.Polygon.constructed"] += 1
            original_init(obj, *args, **kwargs)

        polygon_cls.__init__ = counted_init
        self._restore.append((setattr, polygon_cls, "__init__", original_init))

        namespaces = [sys.modules["polyflow"]] + list(modules.values())
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._restore.append((setattr, module, attr, value))
                elif isinstance(value, dict):  # dispatch tables such as cli's handlers
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            value[key] = wrappers[id(item)][1]
                            self._restore.append((dict.__setitem__, value, key, item))
        return installed

    def _patch_method(self, cls, name: str, span_name: str):
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            patched = classmethod(self.wrap(span_name, original.__func__))
        else:
            patched = self.wrap(span_name, original)
        setattr(cls, name, patched)
        self._restore.append((setattr, cls, name, original))

    def remove(self):
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)
