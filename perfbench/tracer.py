"""In-process spans around the public functions of the quvar modules.

Every public function defined in ``quvar.{cli,bounds,extremal,gaussian,
gridsim,ozawa}`` is wrapped once and the wrapper is bound in every module
namespace that looks the function up (``evolve`` in ``quvar.gaussian``,
``quvar.ozawa`` and ``quvar.gridsim``, for example), plus a few methods
listed in METHODS. A span records name, start, end and parent. Self time is
a span's duration minus the time its child spans cover; a layer is the
module a function is defined in, and a layer call is a span whose parent
lies in another layer.

Spans are aggregated as they close. The first MAX_SPANS are also kept
verbatim for the span dump; the summary records how many were dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "bounds", "extremal", "gaussian", "gridsim", "ozawa")
METHODS = {
    "extremal": [("ExtremalSpec", "from_variances")],
    "gridsim": [("OracleReport", "render")],
    "ozawa": [("OzawaConfig", "from_dict"), ("ProtocolTrace", "to_csv")],
}
MAX_SPANS = 20_000
COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.stack: list[list] = []  # [span id, name, layer, start, child time]
        self.spans: list[tuple] = []
        self.span_count = 0
        self.by_name: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts = {
            "split_steps": 0,
            "split_steps_useful": 0,
            "fft_calls": 0,
            "fft_points": 0,
            "rounds": 0,
        }

    def wrap(self, fn, layer: str):
        name = f"{fn.__module__}.{fn.__qualname__}"
        count = getattr(self, "_count_" + fn.__name__, None)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.span_count += 1
            frame = [self.span_count, name, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _close(self, frame, end: float) -> None:
        span_id, name, layer, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += duration
        if parent is None or parent[2] != layer:
            self.layer_calls[layer] += 1
        self.layer_self[layer] += duration - child
        stats = self.by_name.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - child
        if len(self.spans) < MAX_SPANS:
            parent_id = parent[0] if parent is not None else None
            self.spans.append((span_id, parent_id, name, start - self.t0, end - self.t0))

    # Work counters, taken from the arguments and results at the same
    # boundaries. FFT counts are computed from the algorithms: one forward
    # and one inverse transform per split step, per free propagation and per
    # moments() call, each over the grid's n complex points.

    def _fft(self, calls: int, n: int) -> None:
        self.counts["fft_calls"] += calls
        self.counts["fft_points"] += calls * n

    def _count_moments(self, args, kwargs, result) -> None:
        self._fft(2, _arg(args, kwargs, 0, "psi").grid.n)

    def _count_propagate_free(self, args, kwargs, result) -> None:
        self._fft(2, _arg(args, kwargs, 0, "psi").grid.n)

    def _count_propagate_osc(self, args, kwargs, result) -> None:
        steps = _arg(args, kwargs, 4, "n_steps")
        self.counts["split_steps"] += steps
        self._fft(2 * steps, _arg(args, kwargs, 0, "psi").grid.n)
        # Inside the adaptive refinement only the accepted run is useful.
        if not any(frame[1].endswith(".propagate_osc_adaptive") for frame in self.stack):
            self.counts["split_steps_useful"] += steps

    def _count_propagate_osc_adaptive(self, args, kwargs, result) -> None:
        self.counts["split_steps_useful"] += result[2]

    def _count_run_protocol(self, args, kwargs, result) -> None:
        self.counts["rounds"] += len(result.steps)

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["fft_bytes"] = counts.pop("fft_points") * COMPLEX_BYTES
        return {
            "span_count": self.span_count,
            "spans_dropped": self.span_count - len(self.spans),
            "by_name": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.by_name.items()},
            "layers": {k: {"calls": self.layer_calls[k], "self_s": self.layer_self[k]} for k in LAYERS},
            "counts": counts,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in self.spans
            ],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


def install() -> Tracer:
    """Wrap the quvar modules' public functions in place; returns the tracer."""
    tracer = Tracer()
    package = importlib.import_module("quvar")
    modules = {layer: importlib.import_module(f"quvar.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(obj, layer)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    for layer, methods in METHODS.items():
        for cls_name, meth in methods:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, layer)))
            else:
                setattr(cls, meth, tracer.wrap(raw, layer))
    return tracer
