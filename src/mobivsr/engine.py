"""Forward execution of layer graphs, with optional operation counting.

Each layer kind but ``residual_add`` has one runner in ``_RUNNERS``, which
``forward_layer`` dispatches to; the engine holds no shape rule of its own.
``run_graph`` checks, then runs. Its check pass calls ``graph.shape_infer``
on the input value's shape, which validates the graph and every node's input
shape, and ``graph.checked_weights`` on every node's weights, with a weight
given as an array held to the input's value rule, so a bad input or weight
tensor fails naming its node before any kernel runs. Those shapes and
``graph.node_inputs``'s reads then give ``graph.plan_tiles`` its schedule,
so no plan infers shapes again.

``run_graph`` is one interpreter loop (``_run``) over the ``TilePlan``
``graph.plan_tiles`` makes: each step runs one tile of frames through the
graph's leading region, depth-first, and the last step runs every node past
the region whole, as one tile of every frame. In MobiVSR the region is the
front end through s3's first block: no step holds more than a tile and 2
frames of ds3d1's output, where whole layers would hold all 29.
``keep_outputs`` runs the same loop on a plan with no region and no slots,
fusing and freeing nothing.
Each region node outputs into a slot, a flat fp32 view its kernel writes
into (``out=``): in a step arena that every step reuses, a held node's slot
there being a window of the frames it keeps and then its tile, and the
region's last node's in its whole output. A slot may be the bytes of the
node's own input when that input dies there: relu, batchnorm and
residual_add then run in place, and a separable layer writes over its input
block by block. The caller's input is never written, nor is any value
before its last reader has run, by the lifetimes ``graph.last_reads`` gives
the step arena's plan. The step arena and the carried frames are freed,
with every view of them, once the region's last step has run. A node past
the region, or of a graph without one, writes where its kernel puts it, and
each value is freed after its last reader; in MobiVSR s4's values are gone
before the backend dequantizes its large weights. What a call needs beyond
its weights, the slot, a 3-D layer's ``kernels.Frames`` walk and the counts
of its earlier tiles, reaches the runner inside the weights dict, a
``_Slotted`` one, since ``forward_layer``'s signature is the same for every
caller.
``counted_forward``, the one way to run a single layer, checks its input as
``run_graph`` does, then the layer's weights and the value's rank, and
leaves channel counts to the kernels.

Fused tails. Once per pass ``run_graph`` takes the chains of relu,
batchnorm and residual_add nodes it fuses from ``graph.fused_tails``, the
rule ``plan_tiles`` cuts by too. Right after the head's call returns, its
``forward_layer`` call or an unfused residual_add's ``kernels.add_array``,
the engine runs the tail in place on the head's whole output (``_tail``),
as the ``kernels.elementwise`` steps the elementwise kernels take, so
outputs and ledgers are the unfused pass's (these kinds tally nothing).
The gain is the dispatch these nodes no longer make: running the tail on
each output block inside the kernel measured no faster. In the region a
chain writes into its last node's slot, which is the head's own when the
head has one, as every tail node of it is planned in place over the value
only it reads; a chain ending in the region's last node writes into the
region's output. Past the region a chain runs on the output its head's
kernel made. Fused nodes make no ``forward_layer`` call, so a tracer that
wraps it sees none of them. ``keep_outputs`` runs every node unfused. In
MobiVSR-1 19 of the 40 nodes are tails, and MobiVSR-4 55 of its 100.

int8 tensors are dequantized by the runner, for its call alone, so at most
one layer's fp32 weights sit beside the activations; a region node's are
dequantized again for each tile, and an fp32 tensor's array is a view of
its data, so fp32 weights cost nothing per call. An int8 temporal_conv1d
whose fp32 weights would exceed ``kernels._COPY_BYTES`` is dequantized one
block of output channels at a time (``_conv1d``). Counting stays weight
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
    ActivationPlan,
    LayerGraph,
    LayerSpec,
    TilePlan,
    checked_weights,
    frames_read,
    fused_tails,
    last_reads,
    layer_output_shape,
    node_inputs,
    plan_tiles,
    shape_infer,
    weight_shapes,
)
from .tensor import CounterLedger, Tensor, _real_array

_LEDGER_FIELDS = tuple(f.name for f in fields(CounterLedger))
# batchnorm statistics start as the identity transform
_IDENTITY_STATS = {"mean": 0.0, "var": 1.0, "gamma": 1.0, "beta": 0.0}
# batchnorm's tensors, in the order its kernel takes them
_STATS = tuple(_IDENTITY_STATS)


def init_weights(graph: LayerGraph, seed: int = 0) -> dict:
    """Seeded random weights for every layer that needs them.

    Normal draws with std 1/sqrt(fan_in), which keeps activations (and hence
    the untrained softmax) well conditioned through the deep stack. Batchnorm
    layers get identity statistics. Returns {node id: {tensor name: Tensor}}
    in graph order. ``seed`` must be a non-negative int (ValueError).
    """
    # bool is an int subclass, but True is no seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
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


def _finite(value, what: str) -> np.ndarray:
    """A layer or graph input, or a weight given as an array, as fp32;
    ValidationError naming ``what`` unless it holds real numbers, every one
    finite in fp32."""
    a = value.as_array() if isinstance(value, Tensor) else _real_array(value, what)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} holds NaN or values that are infinite in fp32")
    return a


def _checked(spec: LayerSpec, tensors, where: str) -> dict:
    """``graph.checked_weights``, with every tensor given as an array checked
    as an input is (see _finite), naming ``where`` and the tensor. Its fp32
    copy is dropped here, and made again when the node runs. Tensors are
    not scanned: ``parse_weights`` checks a file's, and a pass would pay to
    scan them all."""
    checked = checked_weights(spec, tensors, where)
    for name, value in checked.items():
        if not isinstance(value, Tensor):
            _finite(value, f"{where}: weight tensor {name!r}")
    return checked


def _per_frame(kernel, x: np.ndarray, *args, out=None) -> np.ndarray:
    """Run a batched 2-D kernel on a (C,H,W) frame, or on the L frames of a
    (C,L,H,W) value folded into the batch axis and unfolded after."""
    y = kernel(x.swapaxes(0, 1) if x.ndim == 4 else x[None], *args, out=out)
    return y.swapaxes(0, 1) if x.ndim == 4 else y[0]


class _Slotted(dict):
    """A node's {name: Tensor or array} weights, carrying what ``run_graph``
    planned for this call: ``slot``, the buffer its output goes to (or None);
    ``frames``, the ``kernels.Frames`` walk of a 3-D layer run in tiles (or
    None); and ``carried``, the counts its earlier tiles tallied (or None)."""

    def __init__(self, arrays: dict, slot=None, frames=None, carried=None):
        super().__init__(arrays)
        self.slot, self.frames, self.carried = slot, frames, carried


def _conv1d(spec: LayerSpec, x: np.ndarray, w, ledger) -> np.ndarray:
    """A temporal_conv1d call. An int8 weight tensor whose fp32 form exceeds
    ``kernels._COPY_BYTES`` is dequantized and contracted in blocks of output
    channels of at most that size, each block's call tallying its own
    weights, so the layer's fp32 weights are never held whole. The blocks
    are as even as their count allows: a GEMM of a few columns can take
    another BLAS path, which rounds differently. The output is laid out
    channels last, as one call's is."""
    if not isinstance(w, Tensor) or w.quant is None or 4 * w.data.size <= kernels._COPY_BYTES:
        return kernels.conv1d_array(x, _array(w), spec.stride, spec.padding, ledger)
    co, per = w.shape[0], w.data.size // w.shape[0]  # codes per output channel
    n = -(-co // max(kernels._COPY_BYTES // (4 * per), 1))
    out = kernels.empty(layer_output_shape(spec, x.shape)[::-1])
    for k in range(n):
        o0, o1 = k * co // n, (k + 1) * co // n
        block = Tensor((o1 - o0, *w.shape[1:]), w.data[o0 * per:o1 * per], w.quant)
        out[:, o0:o1] = kernels.conv1d_array(x, block.as_array(), spec.stride, spec.padding,
                                             ledger).T
    return out.T


# One runner per kind but residual_add: (spec, x, weights, ledger) -> array, the
# weights a _Slotted. Each looks its kernel up in ``kernels`` when it runs,
# never at import, passes what was planned by keyword, and dequantizes the
# int8 tensors it reads for that call alone.
_RUNNERS = {
    "conv2d": lambda s, x, w, ledger: _per_frame(
        kernels.conv2d_array, x, _array(w["weights"]), s.stride, s.padding, ledger,
        out=w.slot),
    "ds_conv2d": lambda s, x, w, ledger: _per_frame(
        kernels.ds_conv2d_array, x, _array(w["depthwise"]), _array(w["pointwise"]), s.stride,
        s.padding, ledger, out=w.slot),
    "conv3d": lambda s, x, w, ledger: kernels.conv3d_array(
        x, _array(w["weights"]), s.stride, s.padding, ledger, frames=w.frames),
    "ds_conv3d": lambda s, x, w, ledger: kernels.ds_conv3d_array(
        x, _array(w["depthwise"]), _array(w["pointwise"]), s.stride, s.padding, ledger,
        out=w.slot, frames=w.frames),
    "temporal_conv1d": lambda s, x, w, ledger: _conv1d(s, x, w["weights"], ledger),
    "fc": lambda s, x, w, ledger: kernels.fc_array(x, _array(w["weights"]), ledger),
    "maxpool": lambda s, x, w, ledger: kernels.maxpool1d_array(x, s.window, s.stride),
    "relu": lambda s, x, w, ledger: kernels.relu_array(x, out=w.slot),
    "batchnorm": lambda s, x, w, ledger: kernels.batchnorm_array(
        x, *(_array(w[name]) for name in _STATS), s.eps, out=w.slot),
    "softmax": lambda s, x, w, ledger: kernels.softmax_array(x),
    "spatial_avg": lambda s, x, w, ledger: x.mean(axis=(-2, -1)),
    "temporal_avg": lambda s, x, w, ledger: x.mean(axis=-1),
}
# the in-place steps (ufunc, operand) of each kind that can run as a tail
# (each of graph._TAIL_KINDS), from its spec and weights, once per pass; a
# residual_add's step, adding its addend, is made per call
_TAILS = {
    "relu": lambda s, w: kernels.RELU_STEPS,
    "batchnorm": lambda s, w: kernels.batchnorm_steps(*(_array(w[n]) for n in _STATS), s.eps),
    "residual_add": lambda s, w: [],
}


def forward_layer(spec: LayerSpec, x: np.ndarray, weights: dict | None,
                  ledger: CounterLedger | None = None) -> np.ndarray:
    """Run one layer on an array value the caller has checked against the spec;
    residual_add is handled by run_graph. ``weights`` maps tensor names to
    Tensors or arrays; an int8 Tensor is dequantized for this call alone.
    The output goes to the slot a
    ``_Slotted`` weights dict carries, else wherever the kernel puts it. When
    the kernel tallies multiplies into ``ledger``, the output's writes are
    tallied too; the counts the weights dict carries are added after."""
    run = _RUNNERS.get(spec.kind)
    if run is None:
        raise ValidationError(f"cannot execute layer kind {spec.kind!r} standalone")
    if not isinstance(weights, _Slotted):
        weights = _Slotted(weights or {})
    multiplies = ledger.multiplies if ledger is not None else 0
    out = run(spec, x, weights, ledger)
    if ledger is not None:
        if ledger.multiplies > multiplies:
            ledger.output_writes += int(out.size)
        if weights.carried is not None:
            for name in _LEDGER_FIELDS:
                setattr(ledger, name, getattr(ledger, name) + getattr(weights.carried, name))
    return np.asarray(out, dtype=np.float32)


def counted_forward(layer: LayerSpec, input, weights: dict | None = None):
    """Run one layer and return (output Tensor, CounterLedger).

    ``weights`` maps tensor names to Tensors (or arrays) for weighted kinds.
    Before the kernel runs, the input must be an array of real numbers, all
    finite in fp32 (ValidationError), the weights must have the spec's shapes
    (ValidationError or DimensionMismatch), each given as an array held to
    the input's rule (ValidationError naming the kind and the tensor), and
    the value a rank the kind takes (ValidationError); the kernels check
    channel counts. The output is bit-identical to an uncounted call;
    cost-free kinds yield an all-zero ledger.
    """
    x = _finite(input, "input")
    checked = _checked(layer, weights, layer.kind)
    if x.ndim not in LAYER_KINDS[layer.kind].ranks:
        raise ValidationError(f"{layer.kind} cannot take a rank {x.ndim} value")
    ledger = CounterLedger()
    return Tensor.from_array(forward_layer(layer, x, checked, ledger)), ledger


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
    node's weights are checked, those given as arrays by the input's rule
    (ValidationError naming the node and the tensor). With ``counted`` a
    single ledger accumulates over all layers.

    The graph runs as ``plan_tiles`` schedules it: its leading region, if it
    has one, depth-first in tiles of frames, then the rest whole. A region
    node's output goes where the plan puts it, in a step arena allocated for
    this call: a node may write over an input that dies there, but never over
    the caller's input or a value a later node still reads. The arena is
    freed once the region has run, and every later value after its last
    reader, so memory stays flat in depth. int8 tensors are dequantized for
    each call that reads them, a region node's once per tile.
    With ``keep_outputs`` the same loop runs a plan with no region and no
    slots: every node runs once, unfused, on its whole input, and its output
    array is fresh, retained and returned in ``node_outputs``.
    """
    value = _finite(input, "input")
    if not isinstance(weights, dict):
        raise ValidationError("run_graph weights must be a {node id: {name: Tensor}} dict, "
                              f"got {type(weights).__name__}")
    _, shapes = shape_infer(graph, value.shape)
    inputs = node_inputs(graph)
    # check every node first: (id, spec, checked weights)
    steps = [(node_id, spec, _checked(spec, weights.get(node_id), f"node {node_id!r}"))
             for node_id, spec in graph.nodes]
    ledger = CounterLedger() if counted else None
    if keep_outputs:  # every node runs whole and unfused, and every value is kept
        plan, chains = TilePlan(0, 0, {}, {}, ActivationPlan({}, 0)), {}
    else:
        plan = plan_tiles(graph, shapes, inputs)
        chains = _chains(steps, inputs, fused_tails(graph, inputs))
    values = _run(steps, inputs, shapes, plan, value, ledger, chains, keep_outputs)
    values.pop(None, None)
    return RunResult(Tensor.from_array(values[steps[-1][0]]), ledger,
                     values if keep_outputs else None)


def _chains(steps, inputs, tails) -> dict:
    """{head id: (its tail ids, [(steps, addend)] per tail)} for the chains
    ``tails`` (see graph.fused_tails) gives: each tail node's in-place steps,
    made once per pass, and its addend (None but for a residual_add), read
    per call."""
    specs = {node_id: (spec, tensors) for node_id, spec, tensors in steps}
    return {head: (chain, [(_TAILS[specs[t][0].kind](*specs[t]), inputs[t][1]) for t in chain])
            for head, chain in tails.items()}


def _tail(out, parts, read):
    """Run a chain's tail nodes, its ``parts`` (see _chains), in place on its
    head's output ``out``, in node order, as ``kernels.elementwise`` steps:
    each residual_add's adds its addend, read by ``read``."""
    kernels.elementwise(out, [step for steps, addend in parts for step in (
        steps if addend is None else [(np.add, read(addend).T)])], out)


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


def _run(steps, inputs, shapes, plan, clip, ledger, chains, keep=False) -> dict:
    """Run ``steps`` on the graph's input ``clip`` as ``plan`` (a TilePlan)
    schedules them, and return {id: value}: the last node's, and with
    ``keep`` every node's (None the input's).

    Each step runs one tile of frames through the region's nodes, in node
    order; the last step runs every node past the region whole, as one tile
    of every frame. In the region a node's output goes to its tile's part of
    its slot in the step arena, which every step reuses, or of the region's
    whole output for the region's last node; past the region it goes where
    its kernel puts it, once nothing holds the step arena or the carried
    frames. A held node's slot is a window that holds the frames it keeps
    before its tile: after the node's turn the window takes the frames
    carried from the step before, and the frames the next step keeps are
    carried on, so that readers that lag it or reach across frames find them
    there. A 3-D layer in the region reads its window, halo included,
    through its own ``kernels.Frames`` walk. The tail nodes of ``chains``
    (see _chains) run in place on their head's output right after its call,
    which in the region writes into the chain's last node's slot: the head's
    own bytes when it has a slot, as the chain runs in place there, or the
    region's output. A value is dropped after its last reader
    (``graph.last_reads``) unless ``keep``. A region node's tiles but its
    last tally into a ledger of its own that the last one adds, with the
    weights' reads once, to ``ledger``.
    """
    region, frames, held, final = plan.region, plan.frames, plan.held, steps[-1][0]
    end, total = (steps[region - 1][0], clip.shape[1]) if region else (None, 1)
    fused = {t for tails, _ in chains.values() for t in tails}
    values, slots, carried, state = {None: clip}, {}, {}, {}

    def size(node_id):  # the fp32 elements in one frame of a region node's output
        return math.prod(shapes[node_id][1]) // total

    if region:  # a held node's slot starts with the window of frames it keeps
        arena = kernels.empty(plan.steps.arena_bytes // 4)
        slots = {node_id: arena[offset // 4 - size(node_id) * held.get(node_id, 0):
                                (offset + nbytes) // 4]
                 for node_id, (offset, nbytes) in plan.steps.slots.items()}
        slots[end] = kernels.empty(size(end) * total)
        carried = {node_id: kernels.empty(size(node_id) * hold) for node_id, hold in held.items()}
        # per region node: its walk and own ledger, for all its tiles
        state = {node_id: (kernels.Frames(total) if frames_read(spec)[0] else None,
                           CounterLedger())
                 for node_id, spec, _ in steps[:region] if node_id not in fused}

    def read(k, value, f0, f1):
        """Frames [f0, f1) of ``value`` in step ``k``; all of it when k is None."""
        f0, f1 = max(f0, 0), min(f1, total)
        if k is not None and value is None:
            return clip[:, f0:f1]
        if k is None or value not in held:
            return values[value]
        base = (k - 1) * frames + plan.lags[value] - held[value]  # the window's first frame
        return _frames(slots[value], shapes[value][1])[:, f0 - base:f1 - base]

    def run(k, nodes):
        """Run ``nodes`` on step ``k``'s tile of frames, or whole when k is None."""
        # {value: index of its last reader}; a region value is read only in the region
        last = last_reads({node_id: inputs[node_id] for node_id, _, _ in nodes})
        for i, (node_id, spec, tensors) in enumerate(nodes):
            if node_id in fused:
                continue
            tails, parts = chains.get(node_id, ((), []))
            members = [node_id, *tails]
            result, (x, addend), (ahead, behind) = members[-1], inputs[node_id], frames_read(spec)
            s0 = 0 if k is None else (k - 1) * frames + plan.lags[node_id]  # the tile's first frame
            f0, f1 = max(s0, 0), total if k is None else min(s0 + frames, total)
            hold, n = held.get(result, 0), size(result)
            slot = slots.get(result)  # a chain writes into its last node's slot
            if slot is not None:  # only the region's nodes have one
                base = 0 if result == end else s0 - hold  # the frame at the slot's front
                slot = slot[(f0 - base) * n:(f1 - base) * n]
            if f0 < f1:
                if addend is not None:
                    out = kernels.add_array(read(k, x, f0, f1), read(k, addend, f0, f1), out=slot)
                else:
                    walk, own = state.get(node_id, (None, None))
                    if walk is not None:
                        walk.start, walk.stop = max(f0 - behind, 0), f1
                    carry = own if f1 == total else None
                    if carry is not None:
                        carry.param_reads = 0  # the last tile's kernel reads the weights once
                    out = forward_layer(
                        spec, read(k, x, f0 - behind, f1 + ahead),
                        _Slotted(tensors, slot, walk, carry), ledger if f1 == total else own)
                _tail(out, parts, lambda value: read(k, value, f0, f1))
                if hold or result == end:
                    _put(slot, shapes[result][1], out)
                elif keep or result in last or result == final:
                    values[result] = out
            if hold:  # the window: the carried frames, then this tile's; carry the last on
                window = slots[result]
                window[:carried[result].size] = carried[result]
                carried[result][...] = window[frames * n:(frames + hold) * n]
            for j, member in enumerate(() if keep else members, i):  # a chain is consecutive
                for value in inputs[member]:
                    if last.get(value) == j:
                        values.pop(value, None)

    if region:  # steps before 1 run only nodes that lead
        for k in range(1 - -(-max(plan.lags.values()) // frames), -(-total // frames) + 1):
            run(k, steps[:region])
        # free the step arena and the carried frames before the rest runs
        values, slots, carried, state = {end: _frames(slots[end], shapes[end][1])}, {}, {}, {}
        del arena
    run(None, steps[region:])
    return values
