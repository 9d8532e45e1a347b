"""Span tracing of the lgmirror layers, installed from outside the program.

`Tracer.install()` imports the `lgmirror` modules one at a time in
dependency order, recording each import as a span of its layer, and then
replaces every public module-level function (a name without a leading
underscore, defined in that module) by a wrapper, in its own module and in
every module that imported it by name.  The arithmetic methods of `QSqrt2`
are wrapped as well; they are counted and timed, but record no span, since
they run millions of times.

A span is recorded where a call crosses into another layer: name, start,
end and the index of its parent span.  A call within the caller's own
layer is only counted, because its time is that layer's self time either
way.  A layer's self time is the time its spans cover minus the time
covered by their child spans.  Spans stay in memory in flat arrays and are
written out by `write()` when the run ends.

Methods of the other classes (e.g. `SignedPermutation.__mul__`) are not
wrapped: their time counts to the layer of the function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "scalars",
    "partitions",
    "weyl",
    "clifford",
    "grouprep",
    "superpotential",
    "qchevalley",
    "jacobi",
    "cli",
)

QSQRT2_ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse", "__pow__")


def _bits(x) -> int:
    return max(x.a.numerator.bit_length(), x.a.denominator.bit_length(),
               x.b.numerator.bit_length(), x.b.denominator.bit_length())


class Tracer:
    """Spans, per-layer self time and call counts of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open frames: [layer, span index or -1, time covered by child spans]
        self._stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()  # by "layer.function"
        self.layer_calls: Counter = Counter()
        self.extra: Counter = Counter()  # counts derived from arguments and results
        self.coeff_bits_max = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, layer: str, nid: int) -> list:
        stack = self._stack
        parent = -1
        for frame in reversed(stack):
            if frame[1] >= 0:
                parent = frame[1]
                break
        idx = -1
        if nid >= 0:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [layer, idx, 0.0]
        stack.append(frame)
        return frame

    def _leave(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        duration = t1 - t0
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[1] >= 0:
            self.span_start[frame[1]] = t0
            self.span_end[frame[1]] = t1

    def span(self, layer: str, fn, name: str, hook=None, record: bool = True):
        """Wrap `fn` as a function of `layer`."""
        nid = self._name_id(name) if record else -1
        stack = self._stack
        calls, layer_calls = self.calls, self.layer_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            layer_calls[layer] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = self._enter(layer, nid)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._leave(frame, t0, perf_counter())
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def timed_import(self, module: str, layer: str):
        frame = self._enter(layer, self._name_id(f"{layer}.import"))
        t0 = perf_counter()
        try:
            return importlib.import_module(module)
        finally:
            self._leave(frame, t0, perf_counter())

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Import lgmirror layer by layer and wrap its public functions."""
        import numpy  # noqa: F401  -- a dependency, not a layer: keep its import out of the spans

        self.timed_import("lgmirror", "scalars")  # the package __init__ imports only scalars
        modules = {layer: self.timed_import(f"lgmirror.{layer}", layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                wrapper = self.span(layer, value, f"{layer}.{attr}", HOOKS.get(f"{layer}.{attr}"))
                wrapped[id(value)] = wrapper
                setattr(mod, attr, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and not attr.startswith("__"):
                    setattr(mod, attr, wrapped[id(value)])
        qsqrt2 = modules["scalars"].QSqrt2
        for method in QSQRT2_ARITHMETIC:
            setattr(qsqrt2, method, self.span("scalars", getattr(qsqrt2, method),
                                              f"scalars.QSqrt2.{method}", _coeff_bits, record=False))

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Deterministic counts and per-layer self times so far."""
        return {
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "layer_calls": {layer: self.layer_calls[layer] for layer in LAYERS},
            "calls": dict(self.calls),
            "extra": dict(self.extra),
            "coeff_bits_max": self.coeff_bits_max,
            "spans": len(self.span_start),
        }

    def spans(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "parent", "start", "end"],
            "spans": [
                [n, p, round(s, 7), round(e, 7)]
                for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh, separators=(",", ":"))


# -- counts taken from arguments and results ------------------------------------


def _coeff_bits(tracer: Tracer, fn, args, kwargs, result) -> None:
    if hasattr(result, "a"):
        bits = _bits(result)
        if bits > tracer.coeff_bits_max:
            tracer.coeff_bits_max = bits


def _subwords(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.extra["weyl.subwords_returned"] += len(result)


def _starts(tracer: Tracer, fn, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.extra["jacobi.starts"] += bound.arguments["trials"]
    tracer.extra["jacobi.points_found"] += len(result)


HOOKS = {
    "weyl.reduced_subwords": _subwords,
    "weyl.complement_subwords": _subwords,
    "jacobi.find_critical_points": _starts,
}
