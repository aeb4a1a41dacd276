"""Forward execution of layer graphs, with optional operation counting.

Each layer kind but ``residual_add`` has one runner in ``_RUNNERS``, which
``forward_layer`` dispatches to; the engine holds no shape rule of its own.
``run_graph`` checks, then runs. Its check pass calls ``graph.shape_infer``
on the input value's shape, which validates the graph and every node's input
shape, and ``graph.checked_weights`` on every node's weights, so a bad input
or weight tensor fails naming its node before any kernel runs. A second loop
runs the nodes. int8 tensors are dequantized only when their node runs, so
at most one layer's fp32 weights sit beside the activations.

Unless ``keep_outputs`` is set, ``run_graph`` follows ``graph.plan_activations``:
it allocates one arena per call and hands each planned node its slot, a
flat fp32 view the node's kernel writes its output into (``out=``). A slot
may be the bytes of the node's own input when that input dies there: relu,
batchnorm and residual_add then run in place, and a separable layer writes
over its input block by block. The caller's input is never written, nor is
any value before its last reader has run. Only the values in the arena
hold it, so it is freed after the last reader of the last of them; in
MobiVSR that is before the backend dequantizes its large weights. The slot
reaches the runner inside the weights dict, a ``_Slotted`` one, since
``forward_layer``'s signature is the same for every caller.
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
from .graph import (
    LAYER_KINDS,
    LayerGraph,
    LayerSpec,
    checked_weights,
    plan_activations,
    shape_infer,
    weight_shapes,
)
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


def _per_frame(kernel, x: np.ndarray, *args, out=None) -> np.ndarray:
    """Run a batched 2-D kernel on a (C,H,W) frame, or on the L frames of a
    (C,L,H,W) value folded into the batch axis and unfolded after."""
    if x.ndim == 4:
        return kernel(x.swapaxes(0, 1), *args, out=out).swapaxes(0, 1)
    return kernel(x[None], *args, out=out)[0]


class _Slotted(dict):
    """A node's {name: array} weights, carrying the arena slot ``run_graph``
    planned for its output."""

    def __init__(self, arrays: dict, slot: np.ndarray):
        super().__init__(arrays)
        self.slot = slot


# One runner per kind but residual_add: (spec, x, weights, ledger, out) -> array,
# where out is the node's slot or None. Each looks its kernel up in ``kernels``
# when it runs, never at import, and passes the slot by keyword.
_RUNNERS = {
    "conv2d": lambda s, x, w, ledger, out: _per_frame(
        kernels.conv2d_array, x, w["weights"], s.stride, s.padding, ledger, out=out),
    "ds_conv2d": lambda s, x, w, ledger, out: _per_frame(
        kernels.ds_conv2d_array, x, w["depthwise"], w["pointwise"], s.stride, s.padding,
        ledger, out=out),
    "conv3d": lambda s, x, w, ledger, out: kernels.conv3d_array(
        x, w["weights"], s.stride, s.padding, ledger),
    "ds_conv3d": lambda s, x, w, ledger, out: kernels.ds_conv3d_array(
        x, w["depthwise"], w["pointwise"], s.stride, s.padding, ledger, out=out),
    "temporal_conv1d": lambda s, x, w, ledger, out: kernels.conv1d_array(
        x, w["weights"], s.stride, s.padding, ledger),
    "fc": lambda s, x, w, ledger, out: kernels.fc_array(x, w["weights"], ledger),
    "maxpool": lambda s, x, w, ledger, out: kernels.maxpool1d_array(x, s.window, s.stride),
    "relu": lambda s, x, w, ledger, out: kernels.relu_array(x, out=out),
    "batchnorm": lambda s, x, w, ledger, out: kernels.batchnorm_array(
        x, w["mean"], w["var"], w["gamma"], w["beta"], s.eps, out=out),
    "softmax": lambda s, x, w, ledger, out: kernels.softmax_array(x),
    "spatial_avg": lambda s, x, w, ledger, out: x.mean(axis=(-2, -1)),
    "temporal_avg": lambda s, x, w, ledger, out: x.mean(axis=-1),
}


def forward_layer(spec: LayerSpec, x: np.ndarray, weights: dict | None,
                  ledger: CounterLedger | None = None) -> np.ndarray:
    """Run one layer on an array value the caller has checked against the spec;
    residual_add is handled by run_graph. The output goes to the slot a
    ``_Slotted`` weights dict carries, else wherever the kernel puts it."""
    run = _RUNNERS.get(spec.kind)
    if run is None:
        raise ValidationError(f"cannot execute layer kind {spec.kind!r} standalone")
    out = run(spec, x, weights, ledger, getattr(weights, "slot", None))
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


def _slots(plan) -> dict:
    """{node id: flat fp32 view of its slot} in a fresh arena. Only the views
    hold the arena, so it is freed with the last value in it."""
    arena = np.empty(plan.arena_bytes // 4, dtype=np.float32)
    return {node_id: arena[offset // 4:(offset + size) // 4]
            for node_id, (offset, size) in plan.slots.items()}


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
    Node outputs go where ``plan_activations`` puts them, in one arena
    allocated for this call: a node may write over an input that dies there,
    but never over the caller's input or a value a later node still reads.
    The arena is freed with the last value in it, so memory stays flat in
    depth. With ``keep_outputs`` no plan is used: every node's output array
    is fresh, retained and returned in ``node_outputs``.
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
    slots = {} if keep_outputs else _slots(plan_activations(graph, value.shape))
    for node_id, spec, src, tensors in steps:
        slot = slots.pop(node_id, None)
        if spec.kind == "residual_add":
            value = kernels.add_array(value, outputs[src], out=slot)
        else:
            if src is not None:
                value = outputs[src]
            arrays = _arrays(tensors)
            value = forward_layer(spec, value, arrays if slot is None else _Slotted(arrays, slot),
                                  ledger)
        if not keep_outputs and last_reader.get(src) == node_id:
            del outputs[src]
        if keep_outputs or node_id in last_reader:
            outputs[node_id] = value
    return RunResult(output=Tensor.from_array(value), ledger=ledger,
                     node_outputs=outputs if keep_outputs else None)
