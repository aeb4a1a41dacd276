"""Forward execution of layer graphs, with optional operation counting.

Each layer kind but ``residual_add`` has one runner in ``_RUNNERS``, which
``forward_layer`` dispatches to; the engine holds no shape rule of its own.
``run_graph`` checks, then runs. Its check pass calls ``graph.shape_infer``
on the input value's shape, which validates the graph and every node's input
shape, and ``graph.checked_weights`` on every node's weights, so a bad input
or weight tensor fails naming its node before any kernel runs. Those shapes
and ``graph.node_inputs``'s reads then give ``graph.plan_tiles`` its
schedule, so no plan infers shapes again.

Unless ``keep_outputs`` is set, ``run_graph`` runs the graph's leading
region depth-first, one tile of frames per step (``_run_tiles``), then the
rest whole. In MobiVSR the region is the front end through s2: no step holds
more than a tile and 2 frames of ds3d1's output, where whole layers would
hold all 29. Each node outputs into a slot, a flat fp32 view its kernel
writes into (``out=``): a region node's in a step arena that every step
reuses, a held node's slot there being a window of the frames it keeps and
then its tile, the region's last node's in its whole output, and a later
node's in an arena of its own. A slot may be the bytes of the node's own
input when that input dies there: relu, batchnorm and residual_add then run
in place, and a separable layer writes over its input block by block. The
caller's input is never written, nor is any value before its last reader has
run, by the lifetimes ``graph.last_reads`` gives the arenas' plans. Only the
values in an arena hold it, so it is freed after the last reader of the last
of them; in MobiVSR that is before the backend dequantizes its large
weights. What a call needs beyond its weights, the slot, a 3-D layer's
``kernels.Frames`` walk and the counts of its earlier tiles, reaches the
runner inside the weights dict, a ``_Slotted`` one, since
``forward_layer``'s signature is the same for every caller.
``counted_forward``, the one way to run a single layer, checks its input as
``run_graph`` does, then the layer's weights and the value's rank, and
leaves channel counts to the kernels.

int8 tensors are dequantized when their node runs, so at most one layer's
fp32 weights sit beside the activations, but a region node's are dequantized
once for all its tiles and held until the region ends. Counting stays weight
stationary: every tile's kernel tallies the layer's weights, but a node's
tiles before its last tally into a ledger of its own, whose counts bar the
weight reads its last tile adds to the pass's ledger. A node's counts for
the pass so reach that ledger in one call, equal to a whole-layer run's. A
call whose kernel tallies multiplies tallies its output's writes.

The middle stack's 2-D layers run per frame: a rank-4 (C, L, H, W) value is
folded so the time axis becomes the kernels' batch axis and unfolded after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .errors import ValidationError
from .graph import (
    LAYER_KINDS,
    LayerGraph,
    LayerSpec,
    checked_weights,
    frames_read,
    last_reads,
    node_inputs,
    plan_tiles,
    shape_infer,
    weight_shapes,
)
from .tensor import CounterLedger, Tensor

_LEDGER_FIELDS = tuple(f.name for f in fields(CounterLedger))
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
    """A node's {name: array} weights, carrying what ``run_graph`` planned for
    this call: ``slot``, the buffer its output goes to (or None); ``frames``,
    the ``kernels.Frames`` walk of a 3-D layer run in tiles (or None); and
    ``carried``, the counts its earlier tiles tallied (or None)."""

    def __init__(self, arrays: dict, slot=None, frames=None, carried=None):
        super().__init__(arrays)
        self.slot, self.frames, self.carried = slot, frames, carried


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
        x, w["weights"], s.stride, s.padding, ledger, frames=getattr(w, "frames", None)),
    "ds_conv3d": lambda s, x, w, ledger, out: kernels.ds_conv3d_array(
        x, w["depthwise"], w["pointwise"], s.stride, s.padding, ledger, out=out,
        frames=getattr(w, "frames", None)),
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
    ``_Slotted`` weights dict carries, else wherever the kernel puts it. When
    the kernel tallies multiplies into ``ledger``, the output's writes are
    tallied too; the counts the weights dict carries are added after."""
    run = _RUNNERS.get(spec.kind)
    if run is None:
        raise ValidationError(f"cannot execute layer kind {spec.kind!r} standalone")
    multiplies = ledger.multiplies if ledger is not None else 0
    out = run(spec, x, weights, ledger, getattr(weights, "slot", None))
    if ledger is not None:
        if ledger.multiplies > multiplies:
            ledger.output_writes += int(out.size)
        carried = getattr(weights, "carried", None)
        if carried is not None:
            for name in _LEDGER_FIELDS:
                setattr(ledger, name, getattr(ledger, name) + getattr(carried, name))
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


def _slots(plan, before=None) -> dict:
    """{node id: flat fp32 view of its slot} in a fresh arena, from the
    ``before`` bytes the plan keeps before a held node's output. Only the
    views hold the arena, so it is freed with the last value in it."""
    arena = np.empty(plan.arena_bytes // 4, dtype=np.float32)
    before = before or {}
    return {node_id: arena[(offset - before.get(node_id, 0)) // 4:(offset + size) // 4]
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
    node's weights are checked. With ``counted`` a single ledger accumulates
    over all layers.

    The graph runs as ``plan_tiles`` schedules it: its leading region, if it
    has one, depth-first in tiles of frames, then the rest whole. Node
    outputs go where the plan puts them, in arenas allocated for this call: a
    node may write over an input that dies there, but never over the caller's
    input or a value a later node still reads. Each arena is freed with the
    last value in it, so memory stays flat in depth. int8 tensors are
    dequantized when their node runs, a region node's once for all its tiles.
    With ``keep_outputs`` no plan is used: every node runs once, on its whole
    input, and its output array is fresh, retained and returned in
    ``node_outputs``.
    """
    value = _input_array(input)
    if not isinstance(weights, dict):
        raise ValidationError("run_graph weights must be a {node id: {name: Tensor}} dict, "
                              f"got {type(weights).__name__}")
    _, shapes = shape_infer(graph, value.shape)
    inputs = node_inputs(graph)
    # check every node first: (id, spec, checked weights)
    steps = [(node_id, spec, checked_weights(spec, weights.get(node_id), f"node {node_id!r}"))
             for node_id, spec in graph.nodes]
    ledger = CounterLedger() if counted else None
    if keep_outputs:
        values = _run(steps, inputs, {None: value}, {}, ledger, keep=True)
        del values[None]
        return RunResult(Tensor.from_array(values[steps[-1][0]]), ledger, values)
    plan = plan_tiles(graph, shapes, inputs)
    values = {None: value}
    if plan.region:
        region = steps[:plan.region]
        values = {region[-1][0]: _run_tiles(region, inputs, shapes, plan, value, ledger)}
    values = _run(steps[plan.region:], inputs, values, _slots(plan.rest), ledger)
    return RunResult(output=Tensor.from_array(values[steps[-1][0]]), ledger=ledger)


def _run(steps, inputs, values, slots, ledger, keep=False) -> dict:
    """Run ``steps`` whole, in order, on ``values`` ({id: array}, None the
    graph's input), each node's output going to its slot in ``slots``. A value
    is dropped after its last reader (``graph.last_reads``) unless ``keep``;
    returns ``values``."""
    ids = list(inputs)
    last, final = {value: ids[i] for value, i in last_reads(inputs).items()}, ids[-1]
    for node_id, spec, tensors in steps:
        x, addend = inputs[node_id]
        slot = slots.pop(node_id, None)
        if addend is not None:
            out = kernels.add_array(values[x], values[addend], out=slot)
        else:
            arrays = _arrays(tensors)
            out = forward_layer(spec, values[x], arrays if slot is None else _Slotted(arrays, slot),
                                ledger)
        for read in () if keep else (x, addend):
            if last.get(read) == node_id:
                values.pop(read, None)
        if keep or node_id in last or node_id == final:
            values[node_id] = out
    return values


def _frames(flat, shape) -> np.ndarray:
    """A flat fp32 buffer of whole frames of a (C, L, H, W) value, frame-major
    and channels last, as a (C, n, H, W) view: the layout a correlation,
    batchnorm, relu or add writes a slot in on such a value."""
    c, _, h, w = shape
    return flat.reshape(-1, h, w, c).transpose(3, 0, 1, 2)


def _put(flat, shape, value):
    """Make the frames of ``flat`` hold ``value``, unless a kernel wrote it there."""
    frames = _frames(flat, shape)
    if value.__array_interface__ != frames.__array_interface__:
        frames[...] = value


def _run_tiles(steps, inputs, shapes, plan, clip, ledger) -> np.ndarray:
    """Run the region's ``steps`` depth-first, one tile of frames per step, as
    ``plan`` (a TilePlan) schedules them, and return the region's output.

    A planned node's slot in the step arena holds the frames it computes in
    a step, in order, and a held node's slot is a window that holds the
    frames it keeps before them; the region's last node writes into its
    whole output. After a held node's turn its window takes the frames
    carried from the step before, and the frames the next step keeps are
    carried on, so that readers that lag it or reach across frames find them
    there. A 3-D layer reads its
    window, halo included, through its own ``kernels.Frames`` walk. Weights
    are dequantized once, and a node's tiles but its last tally into a ledger
    of its own that the last one adds, with the weights' reads once, to
    ``ledger``.
    """
    total, frames = clip.shape[1], plan.frames
    first = 1 - -(-max(plan.lags.values()) // frames)  # 0 unless a lag passes a tile
    final = steps[-1][0]
    size = {node_id: math.prod(shapes[node_id][1]) // total for node_id, _, _ in steps}
    slots = _slots(plan.steps, {node_id: 4 * size[node_id] * hold
                                for node_id, hold in plan.held.items()})
    carried = {node_id: np.empty(size[node_id] * hold, dtype=np.float32)
               for node_id, hold in plan.held.items()}
    whole = np.empty(size[final] * total, dtype=np.float32)
    nodes = []  # (id, spec, frames read ahead and behind, weights, walk, own ledger)
    for node_id, spec, tensors in steps:
        ahead, behind = frames_read(spec)
        nodes.append((node_id, spec, ahead, behind, _arrays(tensors),
                      kernels.Frames(total) if ahead else None, CounterLedger()))

    def read(value, f0, f1):
        f0, f1 = max(f0, 0), min(f1, total)
        if value is None:
            return clip[:, f0:f1]
        if value not in plan.held:
            return made[value]
        base = (k - 1) * frames + plan.lags[value] - plan.held[value]  # the window's first frame
        return _frames(slots[value], shapes[value][1])[:, f0 - base:f1 - base]

    for k in range(first, -(-total // frames) + 1):
        made = {}
        for node_id, spec, ahead, behind, arrays, walk, own in nodes:
            s0 = (k - 1) * frames + plan.lags[node_id]  # the first frame of this step's tile
            f0, f1 = max(s0, 0), min(s0 + frames, total)
            hold = plan.held.get(node_id, 0)
            slot = whole[f0 * size[node_id]:f1 * size[node_id]] if node_id == final else None
            if node_id in slots:
                slot = slots[node_id][(f0 - s0 + hold) * size[node_id]:
                                      (f1 - s0 + hold) * size[node_id]]
            if f0 < f1:
                x, addend = inputs[node_id]
                if addend is not None:
                    out = kernels.add_array(read(x, f0, f1), read(addend, f0, f1), out=slot)
                else:
                    if walk is not None:
                        walk.start, walk.stop = max(f0 - behind, 0), f1
                    last = f1 == total
                    if last:
                        own.param_reads = 0  # the last tile's kernel reads the weights once
                    out = forward_layer(spec, read(x, f0 - behind, f1 + ahead),
                                        _Slotted(arrays, slot, walk, own if last else None),
                                        ledger if last else own)
                if hold or node_id == final:
                    _put(slot, shapes[node_id][1], out)
                else:
                    made[node_id] = out
            if hold:  # the window: the carried frames, then this tile's; carry the last on
                window = slots[node_id]
                window[:carried[node_id].size] = carried[node_id]
                carried[node_id][...] = window[frames * size[node_id]:(frames + hold) * size[node_id]]
    return _frames(whole, shapes[final][1])
