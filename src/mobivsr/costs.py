"""Analytical parameter, memory-access and FLOP accounting.

The closed forms below mirror the counting conventions of the reference
kernels. With K the square kernel side, T the temporal kernel size, C_in and
C_out the channel counts and I/Q the fully-connected widths, a layer's
parameter count P is:

================  ================================================
layer             parameters P
================  ================================================
conv2d            K^2 C_in C_out
conv3d            K^2 T C_in C_out
ds_conv2d         C_in (K^2 + C_out)
ds_conv3d         C_in (T K^2 + Tp C_out), Tp = T partial, 1 full
temporal_conv1d   K C_in C_out
fc                I Q
================  ================================================

Each weight takes part in one multiply per output position, and there are
V_out / C_out positions for an output volume V_out (one for fc). At 2 FLOPs
per multiply, and with V_in the input volume:

    FLOPs            = 2 P V_out / C_out           (an exact integer)
    memory accesses  = P + P V_in / C_in + V_out   (fc: P + V_in + V_out)
    exact accesses   = P + P V_out / C_out + V_out (fc: P + V_in + V_out)

Convolutions read one activation per multiply, so the exact read term is the
multiply count P V_out / C_out; fc reads its input once. ``exact_accesses_of``
equals the instrumented count on every node, at every stride and padding (a
property test draws both over small graphs). The memory-access column,
``mem_access_of``, counts P / C_in reads per input element instead. That
assumes stride 1 and same padding, where each channel has as many output
positions as input positions. A strided layer has about stride^2 fewer
output positions, so the column over-counts its reads by about stride^2
(3.4-4.0x on MobiVSR's eight stride-2 nodes), and that is the whole 2.32
ratio of the column to the instrumented count at alpha=1. A valid-padded
layer with a kernel wider than 1 is over-counted too. Activations, pooling,
normalization, softmax and residual adds cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import LayerGraph, LayerSpec, layer_output_shape, shape_infer, volume, weight_shapes

# the parameter count P of every kind that has one, as in the table above
_PARAMS = {
    "conv2d": lambda s: s.kernel_size**2 * s.in_channels * s.out_channels,
    "conv3d": lambda s: s.kernel_size**2 * s.temporal_size * s.in_channels * s.out_channels,
    "ds_conv2d": lambda s: s.in_channels * (s.kernel_size**2 + s.out_channels),
    "ds_conv3d": lambda s: s.in_channels * (
        s.temporal_size * s.kernel_size**2
        + (s.temporal_size if s.pointwise_mode == "partial" else 1) * s.out_channels),
    "temporal_conv1d": lambda s: s.kernel_size * s.in_channels * s.out_channels,
    "fc": lambda s: s.in_features * s.out_features,
}

COSTED_KINDS = tuple(_PARAMS)


@dataclass(frozen=True)
class LayerCost:
    params: int = 0
    memory_accesses: int = 0
    flops: int = 0


# what every cost-free kind costs; LayerCost is frozen, so nodes can share it
_FREE = LayerCost()


@dataclass
class CostReport:
    """Per-layer and total analytical costs for a whole graph."""

    per_layer: list
    totals: LayerCost
    size_bytes: int
    dtype: str

    # the published table's units, which ReferencePreset carries as fields
    @property
    def size_mb(self) -> float:
        return self.size_bytes / 1e6

    @property
    def params_m(self) -> float:
        return self.totals.params / 1e6

    @property
    def mem_kaccess(self) -> float:
        return self.totals.memory_accesses / 1e3

    @property
    def flops_b(self) -> float:
        return self.totals.flops / 1e9


def params_of(layer: LayerSpec) -> int:
    """Learned parameter count of one layer; zero for cost-free kinds."""
    formula = _PARAMS.get(layer.kind)
    return 0 if formula is None else formula(layer)


def _cost(spec: LayerSpec, in_shape, out_shape=None) -> LayerCost:
    """Closed-form cost of one layer from its parameter count and the volumes
    around it; ``out_shape`` is inferred when not given."""
    formula = _PARAMS.get(spec.kind)
    if formula is None:
        return _FREE
    if out_shape is None:
        out_shape = layer_output_shape(spec, in_shape)
    p, vi, vo = formula(spec), volume(in_shape), volume(out_shape)
    reads = vi if spec.kind == "fc" else p * vi // in_shape[0]
    return LayerCost(params=p, memory_accesses=p + reads + vo, flops=2 * p * vo // out_shape[0])


def mem_access_of(layer: LayerSpec, input_shape) -> int:
    """Memory accesses of one layer: weight reads + activation reads + writes."""
    return _cost(layer, input_shape).memory_accesses


def exact_accesses_of(spec: LayerSpec, in_shape) -> int:
    """Memory accesses of one layer as the reference kernels count them:
    P + P V_out / C_out + V_out, one activation read per multiply (fc:
    P + V_in + V_out); zero for cost-free kinds."""
    formula = _PARAMS.get(spec.kind)
    if formula is None:
        return 0
    out_shape = layer_output_shape(spec, in_shape)
    p, vo = formula(spec), volume(out_shape)
    reads = volume(in_shape) if spec.kind == "fc" else p * vo // out_shape[0]
    return p + reads + vo


def flops_of(layer: LayerSpec, input_shape) -> int:
    """FLOPs of one layer under the 2-per-multiply convention."""
    return _cost(layer, input_shape).flops


def aggregate(graph: LayerGraph, input_shape=None, dtype: str = "fp32") -> CostReport:
    """Cost every layer of a graph and sum the columns. Within a call, nodes
    that hold one LayerSpec object and read one shape share its LayerCost,
    worked out once; ``shape_infer`` shares their output shapes the same way.

    size_bytes covers learned parameters only: 4 bytes each for fp32, or one
    byte each plus 8 bytes of scale/zero-point metadata per weight tensor for
    int8. Residual adds and normalization stats are excluded, matching the
    per-layer formulas.
    """
    if dtype not in ("fp32", "int8"):
        raise ValueError(f"dtype must be 'fp32' or 'int8', got {dtype!r}")
    if input_shape is None:
        input_shape = graph.input_shape
    if input_shape is None:
        raise ValueError("graph has no input_shape: add one to the graph, "
                         "or pass input_shape= to aggregate")
    _, shapes = shape_infer(graph, input_shape)
    costed = {}  # (id(spec), in_shape): that layer's cost and its int8 tensor count
    per_layer = []
    params = accesses = flops = tensors = 0
    for node_id, spec in graph.nodes:
        if spec.kind not in _PARAMS:
            per_layer.append((node_id, _FREE))
            continue
        in_shape, out_shape = shapes[node_id]
        key = (id(spec), in_shape)
        entry = costed.get(key)
        if entry is None:
            entry = costed[key] = (_cost(spec, in_shape, out_shape),
                                   len(weight_shapes(spec)) if dtype == "int8" else 0)
        cost, count = entry
        per_layer.append((node_id, cost))
        params += cost.params
        accesses += cost.memory_accesses
        flops += cost.flops
        tensors += count
    totals = LayerCost(params, accesses, flops)
    size_bytes = 4 * params if dtype == "fp32" else params + 8 * tensors
    return CostReport(per_layer=per_layer, totals=totals, size_bytes=size_bytes, dtype=dtype)


@dataclass(frozen=True)
class EfficiencyRatios:
    """Accuracy per unit of size, compute, parameters and memory traffic."""

    acc_per_mb: float
    acc_per_gflop: float
    acc_per_mparam: float
    acc_per_kaccess: float


def efficiency_ratios(source, accuracy: float) -> EfficiencyRatios:
    """Accuracy divided by size (MB), FLOPs (billions), params (millions) and
    memory accesses (thousands).

    ``source`` is anything with size_mb / flops_b / params_m / mem_kaccess
    attributes in those units: a CostReport or a reference preset.
    ``accuracy`` is a percentage, finite and in [0, 100] (else ValueError). A
    zero column leaves its ratio undefined and raises ValueError.
    """
    if not (math.isfinite(accuracy) and 0 <= accuracy <= 100):
        raise ValueError(f"accuracy must be finite and in [0, 100] percent, got {accuracy!r}")
    ratios = {}
    for ratio, column in (("acc_per_mb", "size_mb"), ("acc_per_gflop", "flops_b"),
                          ("acc_per_mparam", "params_m"), ("acc_per_kaccess", "mem_kaccess")):
        value = getattr(source, column)
        if value == 0:
            raise ValueError(f"efficiency ratios are undefined: {column} is zero")
        ratios[ratio] = accuracy / value
    return EfficiencyRatios(**ratios)
