"""Span tracing of mobivsr's public functions, from outside the package.

``Tracer.installed()`` replaces module and class attributes with timing
wrappers and puts the originals back on exit. This reaches every layer
without edits to the package: the engine calls ``kernels.*_array`` through
the module, ``ds_conv2d_array`` and ``ds_conv3d_array`` reach their stages
through module globals, and ``costs`` holds its own name for
``shape_infer``, which is therefore patched twice.

A span is ``[name, start_ns, end_ns, parent index, request id, extra]``.
Spans stay in memory until the caller writes them out. A span's self time
is its duration minus the durations of its direct children; calls are
nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
from time import perf_counter_ns

import numpy as np

from mobivsr import arch, costs, energy, engine, graph, kernels, model_io, quantize, tensor

LEDGER_FIELDS = ("multiplies", "adds", "param_reads", "activation_reads", "output_writes")

# Kernels that take a ledger: span name -> function in ``kernels``.
COUNTED_KERNELS = {
    "kernels.conv2d": "conv2d_array",
    "kernels.depthwise2d": "depthwise2d_array",
    "kernels.conv3d": "conv3d_array",
    "kernels.depthwise3d": "depthwise3d_array",
    "kernels.conv1d": "conv1d_array",
    "kernels.fc": "fc_array",
    "kernels.ds_conv2d": "ds_conv2d_array",
    "kernels.ds_conv3d": "ds_conv3d_array",
}
LEAF_KERNELS = ("depthwise2d", "conv2d", "depthwise3d", "conv3d", "conv1d", "fc")
POINTWISE_OPS = {
    "kernels.relu": "relu_array",
    "kernels.batchnorm": "batchnorm_array",
    "kernels.maxpool1d": "maxpool1d_array",
    "kernels.softmax": "softmax_array",
}
# Plain timed functions: span name -> (owner, attribute).
TIMED = {
    "engine.run_graph": (engine, "run_graph"),
    "engine.init_weights": (engine, "init_weights"),
    "quantize.quantize_weights": (quantize, "quantize_weights"),
    "model_io.serialize_weights": (model_io, "serialize_weights"),
    "model_io.parse_weights": (model_io, "parse_weights"),
    "model_io.serialize_graph": (model_io, "serialize_graph"),
    "model_io.parse_graph": (model_io, "parse_graph"),
    "model_io.preprocess_clip": (model_io, "preprocess_clip"),
    "arch.build_mobivsr": (arch, "build_mobivsr"),
    "costs.aggregate": (costs, "aggregate"),
    "energy.impact_report": (energy, "impact_report"),
    "graph.validate": (graph.LayerGraph, "validate"),
}
# Functions that run once per set-up; their metric is the set-up's total.
SETUP_FUNCTIONS = ("engine.init_weights", "quantize.quantize_weights",
                   "model_io.serialize_weights", "model_io.parse_weights")
# Functions reported by their total time per request.
REQUEST_FUNCTIONS = ("graph.validate", "graph.shape_infer", "costs.aggregate",
                     "energy.impact_report", "arch.build_mobivsr", "model_io.serialize_graph",
                     "model_io.parse_graph", "model_io.preprocess_clip")


def ledger_tuple(ledger) -> tuple:
    return tuple(getattr(ledger, f) for f in LEDGER_FIELDS)


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Records spans for calls into mobivsr while installed."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0, 0, parent, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def _close(self, span):
        span[2] = perf_counter_ns()
        self._stack.pop()

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _kernel(self, name, fn):
        # Extra: (flops from the ledger delta, bytes computed from array sizes).
        at = list(inspect.signature(fn).parameters).index("ledger")

        def traced(*args, **kwargs):
            ledger = kwargs.get("ledger", args[at] if len(args) > at else None)
            before = ledger.flops() if ledger is not None else 0
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            flops = ledger.flops() - before if ledger is not None else 0
            span[5] = (flops, _nbytes(args) + out.nbytes)
            return out
        return traced

    def _forward_layer(self, fn):
        # A call without a ledger gets a private one, so per-node counts exist
        # on uncounted runs too; counting never changes the numeric result.
        def traced(spec, x, weights, ledger=None):
            own = ledger if ledger is not None else tensor.CounterLedger()
            before = ledger_tuple(own)
            span = self._open("engine.forward_layer")
            try:
                return fn(spec, x, weights, own)
            finally:
                self._close(span)
                span[5] = (id(spec), tuple(a - b for a, b in zip(ledger_tuple(own), before)))
        return traced

    def _as_array(self, fn):
        def traced(self_tensor):
            span = self._open("tensor.as_array")
            try:
                return fn(self_tensor)
            finally:
                self._close(span)
                quant = self_tensor.quant is not None
                span[5] = 4 * self_tensor.data.size if quant else 0
        return traced

    @contextlib.contextmanager
    def installed(self):
        try:
            for name, attr in COUNTED_KERNELS.items():
                self._patch(kernels, attr, self._kernel(name, getattr(kernels, attr)))
            for name, attr in POINTWISE_OPS.items():
                self._patch(kernels, attr, self._timed(name, getattr(kernels, attr)))
            for name, (owner, attr) in TIMED.items():
                self._patch(owner, attr, self._timed(name, owner.__dict__[attr]))
            shape_infer = self._timed("graph.shape_infer", graph.shape_infer)
            self._patch(graph, "shape_infer", shape_infer)
            self._patch(costs, "shape_infer", shape_infer)
            self._patch(engine, "forward_layer", self._forward_layer(engine.forward_layer))
            self._patch(tensor.Tensor, "as_array", self._as_array(tensor.Tensor.as_array))
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def self_ns(self) -> list:
        covered = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _adder(sums: dict):
    def add(key, value):
        sums[key] = sums.get(key, 0) + value
    return add


def layer_metrics(tracer: Tracer, requests: list) -> dict:
    """Per-layer metrics: medians over ``requests`` of each request's totals.

    Set-up functions are reported from the spans of request id "setup".
    """
    self_ns = tracer.self_ns()
    per_request = {r: {} for r in requests}
    per_request["setup"] = {}
    for i, (name, start, end, parent, request, extra) in enumerate(tracer.spans):
        sums = per_request.get(request)
        if sums is None:
            continue
        add = _adder(sums)
        dur_ms, self_ms = (end - start) / 1e6, self_ns[i] / 1e6
        short = name.split(".", 1)[1]
        if name.startswith("kernels.") and short in LEAF_KERNELS:
            add(f"{name}.self_ms", self_ms)
            add(f"{name}.flops", extra[0])
            add(f"{name}.bytes", extra[1])
            if short == "conv2d" and parent is not None \
                    and tracer.spans[parent][0] == "kernels.ds_conv2d":
                add("kernels.conv2d.pointwise_ms", self_ms)
        elif name in POINTWISE_OPS:
            add("kernels.pointwise_ops.self_ms", self_ms)
        elif name == "engine.run_graph":
            add("engine.run_graph.ms", dur_ms)
            add("engine.run_graph.self_ms", self_ms)
        elif name == "engine.forward_layer":
            add("engine.forward_layer.self_ms", self_ms)
        elif name == "tensor.as_array":
            add("tensor.as_array.ms", dur_ms)
            add("tensor.as_array.dequant_bytes", extra)
        elif name in REQUEST_FUNCTIONS or name in SETUP_FUNCTIONS:
            add(f"{name}.ms", dur_ms)
    for sums in per_request.values():
        for k in LEAF_KERNELS:
            ms = sums.get(f"kernels.{k}.self_ms", 0.0)
            flops = sums.get(f"kernels.{k}.flops", 0)
            sums[f"kernels.{k}.gflops_s"] = flops / ms / 1e6 if ms > 0 else 0.0
    setup = per_request.pop("setup")
    metrics = {}
    keys = {k for sums in per_request.values() for k in sums}
    for key in sorted(keys):
        metrics[key] = _median([sums.get(key, 0) for sums in per_request.values()])
    for name in SETUP_FUNCTIONS:
        metrics[f"{name}.ms"] = setup.get(f"{name}.ms", 0.0)
    return metrics


def node_table(tracer: Tracer, graph_, requests: list) -> list:
    """One record per graph node: shapes, median time, measured and analytical cost."""
    wanted = set(requests)
    times, ledgers = {}, {}
    for name, start, end, _, request, extra in tracer.spans:
        if name == "engine.forward_layer" and request in wanted:
            spec_id, delta = extra
            times.setdefault(spec_id, []).append((end - start) / 1e6)
            ledgers[spec_id] = delta
    _, shapes = graph.shape_infer(graph_, graph_.input_shape)
    analytical = dict(costs.aggregate(graph_).per_layer)
    rows = []
    for node_id, spec in graph_.nodes:
        measured = ledgers.get(id(spec))
        cost = analytical[node_id]
        row = {
            "node": node_id,
            "kind": spec.kind,
            "in_shape": list(shapes[node_id][0]),
            "out_shape": list(shapes[node_id][1]),
            "self_ms": _median(times[id(spec)]) if id(spec) in times else None,
            "measured": dict(zip(LEDGER_FIELDS, measured)) if measured else None,
            "analytical": {"params": cost.params, "memory_accesses": cost.memory_accesses,
                           "flops": cost.flops},
        }
        if measured:
            row["measured"]["flops"] = measured[0] + measured[1]
            row["measured"]["memory_accesses"] = sum(measured[2:])
        rows.append(row)
    return rows


def route_metrics(nodes: list) -> dict:
    """The two routes compared: measured minus analytical FLOPs, and analytical
    over measured memory accesses, summed over the node table."""
    measured = [r["measured"] for r in nodes if r["measured"]]
    flops = sum(m["flops"] for m in measured)
    accesses = sum(m["memory_accesses"] for m in measured)
    return {
        "costs.flops_gap": flops - sum(r["analytical"]["flops"] for r in nodes),
        "costs.mem_access_ratio":
            sum(r["analytical"]["memory_accesses"] for r in nodes) / accesses,
    }
