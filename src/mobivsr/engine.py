"""Forward execution of layer graphs, with optional operation counting.

Each layer kind but ``residual_add`` has one runner in ``_RUNNERS``, which
``forward_layer`` dispatches to; the engine holds no shape rule of its own.
``run_graph`` checks, then runs. Its check pass calls ``graph.shape_infer``
on the input value's shape, which validates the graph and every node's input
shape, and ``graph.checked_weights`` on every node's weights, so a bad input
or weight tensor fails naming its node before any kernel runs. A second loop
runs the nodes. int8 tensors are dequantized only when their node runs, so
at most one layer's fp32 weights sit beside the activations. relu and
batchnorm nodes run in place on a value ``run_graph`` owns: one that is not
the caller's input (an array or a ``Tensor``'s data), not a residual source
still held for a later reader, and not kept for ``keep_outputs``. The
runner sees such a value as an ``_Owned`` view, since ``forward_layer``'s
signature is the same for every caller; any other caller's value is never
written.
``counted_forward``, the one way to run a single layer, checks its input as
``run_graph`` does, then the layer's weights and the value's rank, and
leaves channel counts to the kernels.

The middle stack's 2-D layers run per frame: a rank-4 (C, L, H, W) value is
folded so the time axis becomes the kernels' batch axis and unfolded after.
Weight-stationary counting is preserved because a folded layer is still a
single kernel invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .costs import COSTED_KINDS
from .errors import ValidationError
from .graph import LAYER_KINDS, LayerGraph, LayerSpec, checked_weights, shape_infer, weight_shapes
from .tensor import CounterLedger, Tensor

# batchnorm statistics start as the identity transform
_IDENTITY_STATS = {"mean": 0.0, "var": 1.0, "gamma": 1.0, "beta": 0.0}


def init_weights(graph: LayerGraph, seed: int = 0) -> dict:
    """Seeded random weights for every layer that needs them.

    Normal draws with std 1/sqrt(fan_in), which keeps activations (and hence
    the untrained softmax) well conditioned through the deep stack. Batchnorm
    layers get identity statistics. Returns {node id: {tensor name: Tensor}}
    in graph order.
    """
    rng = np.random.default_rng(seed)
    bundle = {}
    for node_id, spec in graph.nodes:
        shapes = weight_shapes(spec)
        if not shapes:
            continue
        tensors = {}
        for name, shape in shapes.items():
            n = math.prod(shape)
            if name in _IDENTITY_STATS:
                data = np.full(n, _IDENTITY_STATS[name], dtype=np.float32)
            else:
                # fan-in: every axis but the output-channel one
                std = math.sqrt(1.0 / math.prod(shape[1:]))
                data = rng.normal(0.0, std, size=n).astype(np.float32)
            tensors[name] = Tensor(shape=shape, data=data)
        bundle[node_id] = tensors
    return bundle


def _array(value) -> np.ndarray:
    return value.as_array() if isinstance(value, Tensor) else np.asarray(value, dtype=np.float32)


def _input_array(value) -> np.ndarray:
    """A layer or graph input value as fp32; ValidationError unless it is an
    array of real numbers, every one finite in fp32."""
    if isinstance(value, Tensor):
        a = value.as_array()
    else:
        try:
            a = np.asarray(value)
        except ValueError as exc:  # a ragged nest of sequences
            raise ValidationError(f"input is not an array: {exc}") from None
        if a.dtype.kind not in "biuf":
            raise ValidationError(f"input must hold real numbers, got dtype {a.dtype}")
        with np.errstate(over="ignore"):  # a value past fp32's range fails below
            a = a.astype(np.float32, copy=False)
    if not np.isfinite(a).all():
        raise ValidationError("input holds NaN or values that are infinite in fp32")
    return a


def _arrays(tensors: dict) -> dict:
    """{name: fp32 array}; int8 tensors are dequantized here."""
    return {name: _array(t) for name, t in tensors.items()}


def _per_frame(kernel, x: np.ndarray, *args) -> np.ndarray:
    """Run a batched 2-D kernel on a (C,H,W) frame, or on the L frames of a
    (C,L,H,W) value folded into the batch axis and unfolded after."""
    if x.ndim == 4:
        return kernel(x.swapaxes(0, 1), *args).swapaxes(0, 1)
    return kernel(x[None], *args)[0]


class _Owned(np.ndarray):
    """A view ``run_graph`` passes of a value it owns: no caller, held
    residual source or kept output shares it, so an elementwise runner may
    write its result into it."""


# kinds whose runners write into an _Owned input
_IN_PLACE = frozenset({"relu", "batchnorm"})

# One runner per kind but residual_add: (spec, x, weights, ledger) -> array.
# Each looks its kernel up in ``kernels`` when it runs, never at import.
_RUNNERS = {
    "conv2d": lambda s, x, w, ledger: _per_frame(
        kernels.conv2d_array, x, w["weights"], s.stride, s.padding, ledger),
    "ds_conv2d": lambda s, x, w, ledger: _per_frame(
        kernels.ds_conv2d_array, x, w["depthwise"], w["pointwise"], s.stride, s.padding,
        ledger),
    "conv3d": lambda s, x, w, ledger: kernels.conv3d_array(
        x, w["weights"], s.stride, s.padding, ledger),
    "ds_conv3d": lambda s, x, w, ledger: kernels.ds_conv3d_array(
        x, w["depthwise"], w["pointwise"], s.stride, s.padding, ledger),
    "temporal_conv1d": lambda s, x, w, ledger: kernels.conv1d_array(
        x, w["weights"], s.stride, s.padding, ledger),
    "fc": lambda s, x, w, ledger: kernels.fc_array(x, w["weights"], ledger),
    "maxpool": lambda s, x, w, ledger: kernels.maxpool1d_array(x, s.window, s.stride),
    "relu": lambda s, x, w, ledger: kernels.relu_array(x, isinstance(x, _Owned)),
    "batchnorm": lambda s, x, w, ledger: kernels.batchnorm_array(
        x, w["mean"], w["var"], w["gamma"], w["beta"], s.eps, isinstance(x, _Owned)),
    "softmax": lambda s, x, w, ledger: kernels.softmax_array(x),
    "spatial_avg": lambda s, x, w, ledger: x.mean(axis=(-2, -1)),
    "temporal_avg": lambda s, x, w, ledger: x.mean(axis=-1),
}


def forward_layer(spec: LayerSpec, x: np.ndarray, weights: dict | None,
                  ledger: CounterLedger | None = None) -> np.ndarray:
    """Run one layer on an array value the caller has checked against the spec;
    residual_add is handled by run_graph."""
    run = _RUNNERS.get(spec.kind)
    if run is None:
        raise ValidationError(f"cannot execute layer kind {spec.kind!r} standalone")
    out = run(spec, x, weights, ledger)
    if ledger is not None and spec.kind in COSTED_KINDS:
        ledger.output_writes += int(out.size)
    return np.asarray(out, dtype=np.float32)


def counted_forward(layer: LayerSpec, input, weights: dict | None = None):
    """Run one layer and return (output Tensor, CounterLedger).

    ``weights`` maps tensor names to Tensors (or arrays) for weighted kinds.
    Before the kernel runs, the input must be an array of real numbers, all
    finite in fp32 (ValidationError), the weights must have the spec's shapes
    (ValidationError or DimensionMismatch) and the value a rank the kind takes
    (ValidationError); the kernels check channel counts. The output is
    bit-identical to an uncounted call; cost-free kinds yield an all-zero
    ledger.
    """
    x = _input_array(input)
    checked = checked_weights(layer, weights, layer.kind)
    if x.ndim not in LAYER_KINDS[layer.kind].ranks:
        raise ValidationError(f"{layer.kind} cannot take a rank {x.ndim} value")
    ledger = CounterLedger()
    return Tensor.from_array(forward_layer(layer, x, _arrays(checked), ledger)), ledger


@dataclass
class RunResult:
    output: Tensor
    ledger: CounterLedger | None = None
    node_outputs: dict | None = None


def run_graph(graph: LayerGraph, weights: dict, input, counted: bool = False,
              keep_outputs: bool = False) -> RunResult:
    """Execute a graph end to end.

    ``weights`` is the {node id: {name: Tensor}} bundle. Before the first
    kernel runs, the input must be an array of real numbers, all finite in
    fp32, and ``weights`` a dict (ValidationError naming the input or the
    weights); ``shape_infer`` checks the graph and the input value's shape
    against every node (GraphValidationError naming the node, or
    ValidationError for a shape that is not all positive extents), and every
    node's weights are checked; int8 tensors are dequantized only when their
    node runs. With ``counted`` a single ledger accumulates over all layers.
    Each node's output is freed after its last reader (the next node, or the
    last node its residual edges feed), so memory stays flat in depth, and
    relu and batchnorm nodes write into a value only ``run_graph`` holds;
    the input is never written. With ``keep_outputs`` every node's output
    array is retained and returned in ``node_outputs``, and no node runs in
    place.
    """
    value = _input_array(input)
    if not isinstance(weights, dict):
        raise ValidationError("run_graph weights must be a {node id: {name: Tensor}} dict, "
                              f"got {type(weights).__name__}")
    shape_infer(graph, value.shape)
    # a valid graph has at most one edge into each node
    incoming = {dst: src for src, dst in graph.residual_edges}
    # the last node, in graph order, that reads each edge source
    last_reader = {incoming[n]: n for n, _ in graph.nodes if n in incoming}
    # check every node first: (id, spec, edge source, checked weights)
    steps = [(node_id, spec, incoming.get(node_id),
              checked_weights(spec, weights.get(node_id), f"node {node_id!r}"))
             for node_id, spec in graph.nodes]
    ledger = CounterLedger() if counted else None
    outputs = {}
    owned = False  # the caller's input is never written
    for node_id, spec, src, tensors in steps:
        if spec.kind == "residual_add":
            value = value + outputs[src]
        else:
            if src is not None:
                value, owned = outputs[src], False
            if owned and spec.kind in _IN_PLACE:
                value = value.view(_Owned)
            value = forward_layer(spec, value, _arrays(tensors), ledger)
        # a fresh output is owned unless it is kept or held for an edge
        owned = not keep_outputs and node_id not in last_reader
        if not keep_outputs and last_reader.get(src) == node_id:
            del outputs[src]
        if keep_outputs or node_id in last_reader:
            outputs[node_id] = value
    return RunResult(output=Tensor.from_array(value), ledger=ledger,
                     node_outputs=outputs if keep_outputs else None)
