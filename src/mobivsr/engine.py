"""Forward execution of layer graphs, with optional operation counting.

Each layer kind but ``residual_add`` has one runner in ``_RUNNERS``, which
``forward_layer`` dispatches to; the engine holds no shape rule of its own.
``run_graph`` checks, then runs. Its check pass calls ``graph.shape_infer``
on the input value's shape, which validates the graph and every node's input
shape, and ``graph.checked_weights`` on every node's weights, so a bad input
or weight tensor fails naming its node before any kernel runs. A second loop
runs the nodes. int8 tensors are dequantized only when their node runs, so
at most one layer's fp32 weights sit beside the activations. The one-layer
tensor API checks the weights and the value's rank in ``_apply`` and leaves
channel counts to the kernels.

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
from .errors import DimensionMismatch, ValidationError
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
    """run_graph's input value as fp32; ValidationError unless it is an array
    of real numbers, every one finite in fp32."""
    if isinstance(value, Tensor):
        a = value.as_array()
    else:
        try:
            a = np.asarray(value)
        except ValueError as exc:  # a ragged nest of sequences
            raise ValidationError(f"run_graph input is not an array: {exc}") from None
        if a.dtype.kind not in "biuf":
            raise ValidationError(f"run_graph input must hold real numbers, got dtype {a.dtype}")
        with np.errstate(over="ignore"):  # a value past fp32's range fails below
            a = a.astype(np.float32, copy=False)
    if not np.isfinite(a).all():
        raise ValidationError("run_graph input holds NaN or values that are infinite in fp32")
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
    "relu": lambda s, x, w, ledger: kernels.relu_array(x),
    "batchnorm": lambda s, x, w, ledger: kernels.batchnorm_array(
        x, w["mean"], w["var"], w["gamma"], w["beta"], s.eps),
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


def _apply(spec: LayerSpec, x: np.ndarray, weights: dict | None = None,
           ledger: CounterLedger | None = None) -> Tensor:
    """Check the weights against the spec's shapes and the value's rank against
    the kind's, then run the layer; the kernels check channel counts."""
    checked = checked_weights(spec, weights, spec.kind)
    if x.ndim not in LAYER_KINDS[spec.kind].ranks:
        raise ValidationError(f"{spec.kind} cannot take a rank {x.ndim} value")
    return Tensor.from_array(forward_layer(spec, x, _arrays(checked), ledger))


def counted_forward(layer: LayerSpec, input, weights: dict | None = None):
    """Run one layer and return (output Tensor, CounterLedger).

    ``weights`` maps tensor names to Tensors (or arrays) for weighted kinds.
    The output is bit-identical to an uncounted call; cost-free kinds yield
    an all-zero ledger.
    """
    ledger = CounterLedger()
    return _apply(layer, _array(input), weights, ledger), ledger


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
    last node its residual edges feed), so memory stays flat in depth; with
    ``keep_outputs`` every node's output array is retained and returned in
    ``node_outputs``.
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
    for node_id, spec, src, tensors in steps:
        if spec.kind == "residual_add":
            value = value + outputs[src]
        else:
            if src is not None:
                value = outputs[src]
            value = forward_layer(spec, value, _arrays(tensors), ledger)
        if not keep_outputs and last_reader.get(src) == node_id:
            del outputs[src]
        if keep_outputs or node_id in last_reader:
            outputs[node_id] = value
    return RunResult(output=Tensor.from_array(value), ledger=ledger,
                     node_outputs=outputs if keep_outputs else None)


# ---------------------------------------------------------------------------
# tensor-level API: one layer on Tensors (or arrays), hyperparameters read
# off the weight shapes, executed by forward_layer
# ---------------------------------------------------------------------------


def _ranked(value, rank, what) -> np.ndarray:
    a = _array(value)
    if a.ndim != rank:
        raise DimensionMismatch("rank", rank, a.ndim, what)
    return a


def conv2d(input, weights, stride=1, padding="same", ledger=None) -> Tensor:
    """2-D convolution of a (Ci,H,W) tensor with (Co,Ci,K,K) weights, no bias."""
    x = _ranked(input, 3, "conv2d input")
    w = _ranked(weights, 4, "conv2d weights")
    co, ci, k = w.shape[:3]
    spec = LayerSpec("conv2d", in_channels=ci, out_channels=co, kernel_size=k,
                     stride=stride, padding=padding)
    return _apply(spec, x, {"weights": w}, ledger)


def conv3d(input, weights, stride=1, padding="same", ledger=None) -> Tensor:
    """3-D convolution of (Ci,L,H,W) with (Co,Ci,T,K,K); temporal stride is 1."""
    x = _ranked(input, 4, "conv3d input")
    w = _ranked(weights, 5, "conv3d weights")
    co, ci, t, k = w.shape[:4]
    spec = LayerSpec("conv3d", in_channels=ci, out_channels=co, kernel_size=k,
                     temporal_size=t, stride=stride, padding=padding)
    return _apply(spec, x, {"weights": w}, ledger)


def ds_conv2d(input, depthwise_weights, pointwise_weights, stride=1, padding="same",
              ledger=None) -> Tensor:
    """Depthwise-separable 2-D convolution: grouped (Ci,K,K) stage then 1x1 mix."""
    x = _ranked(input, 3, "ds_conv2d input")
    dw = _ranked(depthwise_weights, 3, "depthwise weights")
    pw = _ranked(pointwise_weights, 4, "pointwise weights")
    spec = LayerSpec("ds_conv2d", in_channels=dw.shape[0], out_channels=pw.shape[0],
                     kernel_size=dw.shape[1], stride=stride, padding=padding)
    return _apply(spec, x, {"depthwise": dw, "pointwise": pw}, ledger)


def ds_conv3d(input, depthwise_weights, pointwise_weights, stride=1,
              pointwise_mode="partial", padding="same", ledger=None) -> Tensor:
    """Depthwise-separable 3-D convolution with a partial (Tx1x1) or full (1x1x1)
    pointwise stage."""
    x = _ranked(input, 4, "ds_conv3d input")
    dw = _ranked(depthwise_weights, 4, "depthwise weights")
    pw = _ranked(pointwise_weights, 5, "pointwise weights")
    spec = LayerSpec("ds_conv3d", in_channels=dw.shape[0], out_channels=pw.shape[0],
                     kernel_size=dw.shape[2], temporal_size=dw.shape[1], stride=stride,
                     pointwise_mode=pointwise_mode, padding=padding)
    return _apply(spec, x, {"depthwise": dw, "pointwise": pw}, ledger)


def temporal_conv1d(input, weights, stride=1, padding="same", ledger=None) -> Tensor:
    """1-D convolution along the time axis of a (Ci,L) tensor."""
    x = _ranked(input, 2, "temporal conv input")
    w = _ranked(weights, 3, "temporal conv weights")
    co, ci, k = w.shape
    spec = LayerSpec("temporal_conv1d", in_channels=ci, out_channels=co, kernel_size=k,
                     stride=stride, padding=padding)
    return _apply(spec, x, {"weights": w}, ledger)


def fully_connected(input, weights, ledger=None) -> Tensor:
    """Matrix-vector product of an (I,) input with (Q,I) weights, no bias."""
    x = _ranked(input, 1, "fully connected input")
    w = _ranked(weights, 2, "fully connected weights")
    spec = LayerSpec("fc", in_features=w.shape[1], out_features=w.shape[0])
    return _apply(spec, x, {"weights": w}, ledger)


def maxpool(input, window, stride=None) -> Tensor:
    """Max pooling over the last axis; the stride defaults to the window."""
    spec = LayerSpec("maxpool", window=window, stride=window if stride is None else stride)
    return _apply(spec, _array(input))


def relu(input) -> Tensor:
    return _apply(LayerSpec("relu"), _array(input))


def batchnorm_inference(input, mean, var, gamma, beta, eps=1e-5) -> Tensor:
    x = _array(input)
    stats = dict(zip(("mean", "var", "gamma", "beta"), map(_array, (mean, var, gamma, beta))))
    return _apply(LayerSpec("batchnorm", in_channels=x.shape[0], eps=eps), x, stats)


def softmax(input) -> Tensor:
    return _apply(LayerSpec("softmax"), _array(input))
