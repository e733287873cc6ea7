"""Spans around tiltmedian's public functions, recorded from outside the package.

``install`` wraps every public function of the seven modules, plus the
``TiltedView`` methods ``median``, ``mean`` and ``cdf``, and rebinds each wrapper
under every name a loaded ``tiltmedian`` module holds for the original (so
``tilting.integrate`` and ``medianlaw.tilt`` are traced too). Spans stay in
memory; ``layer_totals`` folds them into per-layer counts and times.

This module uses only the standard library, so a CLI child can load it
without paying for more imports than tiltmedian's own.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time

MODULES = ("numerics", "measures", "tilting", "medianlaw", "symmetry", "convolution", "cli")
VIEW_METHODS = ("median", "mean", "cdf")


class Tracer:
    """Span recorder: one span per traced call, with its parent and its operation."""

    def __init__(self) -> None:
        # each span: [op, name, parent index, start, end, extra]
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float, extra=None) -> None:
        self.spans.append([self.op, name, -1, start, end, extra])

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as one gzipped csv row."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
            out = csv.writer(handle)
            out.writerow(["op", "name", "parent", "start", "end", "extra"])
            out.writerows(self.spans)


def _integrate_extra(args, kwargs, result):
    return (result.evaluations, 0 if result.tolerance_met else 1)


def _scan_extra(args, kwargs, result):
    return result.name


def _median_extra(args, kwargs, result):
    view = args[0]
    return f"{view.base.spec!r}@{view.t!r}"


def _convolve_extra(args, kwargs, result):
    setup = args[1] if len(args) > 1 else kwargs["setup"]
    taps = 2 * setup.kernel_steps() + 1
    return (result.window_hi - result.window_lo + 1) * taps


_EXTRAS = {
    "numerics.integrate": _integrate_extra,
    "medianlaw.scan": _scan_extra,
    "tilting.median": _median_extra,
    "convolution.convolve": _convolve_extra,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every loaded tiltmedian module."""
    wrappers: dict[int, object] = {}
    for short in MODULES:
        module = sys.modules.get(f"tiltmedian.{short}")
        if module is None:
            continue
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = tracer.wrap(name, fn, _EXTRAS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "tiltmedian" or mod_name.startswith("tiltmedian."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
    view = sys.modules["tiltmedian.tilting"].TiltedView
    for method in VIEW_METHODS:
        name = f"tilting.{method}"
        setattr(view, method, tracer.wrap(name, getattr(view, method), _EXTRAS.get(name)))


def layer_totals(spans, scope_of=lambda op: op) -> dict[str, float]:
    """Per-layer sums: ``<layer>.calls``, ``.s``, ``.self_s`` and the layer's extras.

    ``spans`` hold parent indices into the same list. A span of
    ``medianlaw.scan`` is filed under ``medianlaw.scan.<diagnostic>``. Self time
    is a span's duration minus the durations of its direct children.
    ``tilting.median.points`` counts distinct (measure, t) pairs per scope,
    where ``scope_of`` maps an operation to the process run or pass that could
    have shared a median between its calls.
    """
    child_time = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    median_points: set = set()

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for index, (op, name, _, start, end, extra) in enumerate(spans):
        if name == "medianlaw.scan":
            name = f"{name}.{extra}"
        duration = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.s", duration)
        add(f"{name}.self_s", duration - child_time[index])
        if extra is None:
            continue
        if name == "numerics.integrate":
            add(f"{name}.evals", extra[0])
            add(f"{name}.tol_missed", extra[1])
        elif name == "convolution.convolve":
            add(f"{name}.madds", extra)
        elif name == "tilting.median":
            median_points.add((scope_of(op), extra))
    totals["tilting.median.points"] = len(median_points)
    return totals
