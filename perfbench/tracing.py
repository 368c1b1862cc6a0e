"""Span tracing of meanfit's public functions, installed from outside the package.

``install`` wraps every function a ``meanfit`` module lists in ``__all__``
and rebinds the wrapper wherever a module global holds the original, so
calls through ``from .x import f`` names (as in ``cli`` and ``fitsearch``)
are caught as well as calls made inside the defining module.  Each span is
``(name, start_ns, end_ns, parent, failed, invocation)``, kept in memory and
written out once by ``dump``; ``layer_metrics`` derives self time from them.
"""

from __future__ import annotations

import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "ingest", "means", "expfam", "wmle", "fitsearch")


def _pgm_bytes(args, kwargs, result):
    yield "bytes", os.stat(args[0] if args else kwargs["path"]).st_size


def _dct_sizes(args, kwargs, result):
    img = args[0] if args else kwargs["img"]
    blocks = (img.height // 8) * (img.width // 8)
    yield "blocks", blocks
    # Two 8x8x8 matrix products per block, a multiply and an add each.
    yield "flops_computed", blocks * 2 * 2 * 8 ** 3
    # uint8 pixels read plus float64 coefficients returned.
    yield "bytes_computed", blocks * 64 + result.values.nbytes


def _histogram_sizes(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    yield "values", getattr(values, "values", values).size
    yield "clipped", result[1]


def _lehmer_values(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    yield "values", len(values)


_COUNTERS = {
    "ingest.load_values_csv": lambda a, k, r: [("rows", r[0].size)],
    "ingest.load_histogram_csv": lambda a, k, r: [("rows", r.nbins)],
    "ingest.load_pgm": _pgm_bytes,
    "ingest.block_dct8": _dct_sizes,
    "ingest.build_histogram": _histogram_sizes,
    "means.lehmer_mean": _lehmer_values,
}


class Recorder:
    """In-memory spans and counters of one invocation."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.fit_points: set = set()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, invocation = self.spans, self.stack, self.invocation
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns
        fit_points = self.fit_points if name == "fitsearch.fit_histogram" else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, failed, invocation)
            if counter is not None:
                for key, amount in counter(args, kwargs, result):
                    self.counters[f"{name}.{key}"] += int(amount)
            if fit_points is not None:
                model, hist, kernel = (*args, *(kwargs[key] for key in
                                                 ("model", "hist", "kernel")[len(args):]))
                fit_points.add((model.name, tuple(sorted(model.hyper.items())),
                                kernel.kind, kernel.beta, id(hist)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["fitsearch.fit_histogram.distinct"] = len(self.fit_points)
        return {"names": self.names, "spans": self.spans, "counters": counters}


def install(invocation: int) -> Recorder:
    """Wrap the public functions of every meanfit layer and rebind all references."""
    recorder = Recorder(invocation)
    modules = [sys.modules[f"meanfit.{layer}"] for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                wrappers[fn] = recorder.wrap(f"{layer}.{attr}", fn)
    for module in [sys.modules["meanfit"], *modules]:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
    return recorder


def layer_metrics(trace: dict) -> dict:
    """Per-name self time (s), call and failure counts, plus the recorded counters."""
    names = trace["names"]
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, failed, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(float)
    for index, (name_id, start, end, parent, failed, _) in enumerate(spans):
        name = names[name_id]
        out[f"{name}.s"] += (end - start - child_ns[index]) * 1e-9
        out[f"{name}.calls"] += 1
        out[f"{name}.failed"] += failed
        if parent < 0:
            out[f"{name}.total_s"] += (end - start) * 1e-9
    out.update(trace["counters"])
    return dict(out)
