"""Layer-graph intermediate representation and shape inference.

A graph is an ordered list of (id, LayerSpec) nodes plus residual edges.
Nodes execute in list order, each reading the previous node's output, with
two edge-driven exceptions:

* an edge into a ``residual_add`` node supplies its second addend;
* an edge into any other node redirects that node's input to the edge
  source (a tap, used for skip-path convolutions).

Edges always point forward in node order, so graphs are acyclic by
construction. The edge rule above is coded once, in ``node_inputs``, which
gives every node's reads; ``shape_infer`` and the plans all walk them.

Every layer shape rule lives here, in ``LAYER_KINDS``. ``shape_infer``
applies them to a whole graph; the cost model and ``engine.run_graph`` both
run it rather than checking shapes themselves. From those shapes and the
reads, ``plan_tiles`` gives ``run_graph`` its schedule, which leading nodes
run depth-first in tiles of frames and with what lag, and
``plan_activations`` the static memory plan of those tiles: where in an
arena each node's output lives, for as long as ``last_reads`` says it is
read, the lifetimes ``run_graph`` frees values by.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields

from .errors import DimensionMismatch, GraphValidationError, MissingDimension, ValidationError

PADDINGS = ("same", "valid")


def out_extent(n, kernel, stride, padding, axis="spatial"):
    """Output extent of a correlation or pooling window along one axis."""
    if padding == "same":
        return -(-n // stride)
    if n < kernel:
        raise DimensionMismatch(axis, f"extent >= kernel size {kernel}", n, "valid padding")
    return (n - kernel) // stride + 1


def _spatial(spec, in_shape) -> tuple:
    return (out_extent(in_shape[-2], spec.kernel_size, spec.stride, spec.padding, "height"),
            out_extent(in_shape[-1], spec.kernel_size, spec.stride, spec.padding, "width"))


def _conv2d_out(spec, in_shape) -> tuple:
    # a rank-4 (C,L,H,W) input keeps its time axis: frames run as a batch
    return (spec.out_channels,) + in_shape[1:-2] + _spatial(spec, in_shape)


def _conv3d_out(spec, in_shape) -> tuple:
    frames = out_extent(in_shape[1], spec.temporal_size, 1, spec.padding, "time")
    return (spec.out_channels, frames) + _spatial(spec, in_shape)


def _pooled(spec, in_shape) -> tuple:
    return in_shape[:-1] + (out_extent(in_shape[-1], spec.window, spec.stride, "valid", "time"),)


@dataclass(frozen=True)
class LayerKind:
    """Everything the graph module knows about one layer kind.

    ``required`` names the LayerSpec fields the kind must set to positive
    ints; ``ranks`` holds the accepted input ranks; ``lead`` names the field
    the leading input extent must equal (None: unchecked); ``modes`` lists
    the accepted pointwise modes, default first (empty: the field is
    ignored); ``weights(spec)`` gives {tensor name: shape} in storage and
    initialization order; ``output(spec, in_shape)`` gives the output shape
    once rank and leading extent have been checked. ``arena`` says where
    ``run_graph`` may put the output (see ``plan_activations``): None, where
    the kernel allocates it; "slot", in a slot of the step arena;
    "in_place", in such a slot, which may lie over an input that dies at the
    node when the output is no larger. ``reach(spec)`` is how many frames on
    either side of an output frame the input frames it reads lie, for a
    rank-4 (C, L, H, W) value whose L the layer keeps: 0 for a per-frame kind.
    ``behind(spec)`` is how many frames before its first output frame the
    layer reads when it runs in a ``kernels.Frames`` walk, call by call (None:
    its reach); a partial separable layer carries the mid rows it reads
    again, so it reads none.
    """

    required: tuple = ()
    ranks: range = range(1, sys.maxsize)
    lead: str | None = None
    weights: Callable = lambda spec: {}
    output: Callable = lambda spec, in_shape: in_shape
    modes: tuple = ()
    arena: str | None = None
    reach: Callable = lambda spec: 0
    behind: Callable | None = None


_CONV = ("in_channels", "out_channels", "kernel_size")
_CONV_T = _CONV + ("temporal_size",)

LAYER_KINDS = {
    "conv2d": LayerKind(
        _CONV, range(3, 5), "in_channels",
        lambda s: {"weights": (s.out_channels, s.in_channels, s.kernel_size, s.kernel_size)},
        _conv2d_out, arena="slot"),
    "conv3d": LayerKind(
        _CONV_T, range(4, 5), "in_channels",
        lambda s: {"weights": (s.out_channels, s.in_channels, s.temporal_size,
                               s.kernel_size, s.kernel_size)},
        _conv3d_out, reach=lambda s: s.temporal_size // 2),
    "ds_conv2d": LayerKind(
        _CONV, range(3, 5), "in_channels",
        lambda s: {"depthwise": (s.in_channels, s.kernel_size, s.kernel_size),
                   "pointwise": (s.out_channels, s.in_channels, 1, 1)},
        _conv2d_out, arena="in_place"),
    "ds_conv3d": LayerKind(
        _CONV_T, range(4, 5), "in_channels",
        lambda s: {"depthwise": (s.in_channels, s.temporal_size, s.kernel_size, s.kernel_size),
                   # partial mode mixes T frames per output, full mode one
                   "pointwise": (s.out_channels, s.in_channels,
                                 s.temporal_size if s.pointwise_mode == "partial" else 1, 1, 1)},
        _conv3d_out, modes=("partial", "full"), arena="in_place",
        # the grouped stage's T frames, then a partial pointwise stage's T more
        reach=lambda s: s.temporal_size // 2 * (2 if s.pointwise_mode == "partial" else 1),
        behind=lambda s: 0 if s.pointwise_mode == "partial" else s.temporal_size // 2),
    "temporal_conv1d": LayerKind(
        _CONV, range(2, 3), "in_channels",
        lambda s: {"weights": (s.out_channels, s.in_channels, s.kernel_size)},
        lambda s, x: (s.out_channels,
                      out_extent(x[1], s.kernel_size, s.stride, s.padding, "time"))),
    "fc": LayerKind(
        ("in_features", "out_features"), range(1, 2), "in_features",
        lambda s: {"weights": (s.out_features, s.in_features)},
        lambda s, x: (s.out_features,)),
    "maxpool": LayerKind(("window",), output=_pooled),
    "relu": LayerKind(arena="in_place"),
    "batchnorm": LayerKind(
        ("in_channels",), lead="in_channels",
        weights=lambda s: {name: (s.in_channels,) for name in ("mean", "var", "gamma", "beta")},
        arena="in_place"),
    "softmax": LayerKind(),
    "residual_add": LayerKind(arena="in_place"),
    "spatial_avg": LayerKind(ranks=range(3, sys.maxsize), output=lambda s, x: x[:-2]),
    "temporal_avg": LayerKind(ranks=range(2, 3), output=lambda s, x: x[:1]),
}


def _rank_text(ranks: range) -> str:
    if ranks.stop == sys.maxsize:
        return f">= {ranks.start}"
    return " or ".join(str(r) for r in ranks)


def is_int(value) -> bool:
    """An int that is not a bool: bool is an int subclass, but True is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool; a plain float is tested first, as
    the abstract-class check costs about a microsecond per call."""
    if type(value) is float:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def checked_shape(shape) -> tuple:
    """``shape`` as a tuple; ValidationError unless it is a list or tuple of positive ints."""
    if not isinstance(shape, (list, tuple)) or not all(is_int(v) and v > 0 for v in shape):
        raise ValidationError(f"input_shape must be a list of positive ints, got {shape!r}")
    return tuple(shape)


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a kind tag plus the hyperparameters that kind requires."""

    kind: str
    in_channels: int | None = None
    out_channels: int | None = None
    kernel_size: int | None = None
    temporal_size: int | None = None
    stride: int = 1
    padding: str = "same"
    pointwise_mode: str | None = None
    window: int | None = None
    in_features: int | None = None
    out_features: int | None = None
    eps: float = 1e-5

    def __post_init__(self):
        kind = LAYER_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in kind.required + ("stride",):
            value = getattr(self, name)
            if value is None:
                raise MissingDimension(self.kind, name)
            if not is_int(value) or value < 1:
                raise ValueError(f"{self.kind}.{name} must be a positive int, got {value!r}")
        # NaN fails the bounds; eps may be 0, leaving the division by sqrt(var)
        if not is_real(self.eps) or not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be a finite non-negative number, got {self.eps!r}")
        if self.padding not in PADDINGS:
            raise ValueError(f"padding must be 'same' or 'valid', got {self.padding!r}")
        if kind.modes:
            mode = self.pointwise_mode or kind.modes[0]
            if mode not in kind.modes:
                raise ValueError(f"pointwise_mode must be 'partial' or 'full', got {mode!r}")
            object.__setattr__(self, "pointwise_mode", mode)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name, default in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if value is not None and value != default:
                d[name] = value
        return d


# (name, default) of every LayerSpec field after ``kind``, read once for to_dict
_OPTIONAL_FIELDS = tuple((f.name, f.default) for f in fields(LayerSpec) if f.name != "kind")


def _pairs(name, items, form, second=object):
    """``items``, once it is a list or tuple of pairs whose second item is a
    ``second``; else a GraphValidationError naming ``name`` or the first item
    that is no ``form`` pair (a str such as "ab" is no edge)."""
    if not isinstance(items, (list, tuple)):
        raise GraphValidationError(f"{name} must be a list, got {type(items).__name__}")
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 2 or not isinstance(item[1], second):
            raise GraphValidationError(f"{name} holds {item!r}, which is no {form} pair")
    return items


@dataclass
class LayerGraph:
    """Ordered layers plus residual edges; optionally a default input shape."""

    nodes: list = field(default_factory=list)
    residual_edges: list = field(default_factory=list)
    channel_plan: str = "custom"
    input_shape: tuple | None = None

    def __post_init__(self):
        self.nodes = [(str(i), s) for i, s in _pairs("nodes", self.nodes, "(id, LayerSpec)",
                                                     LayerSpec)]
        self.residual_edges = [(str(a), str(b)) for a, b in _pairs(
            "residual_edges", self.residual_edges, "(source, target)")]
        if not isinstance(self.channel_plan, str):
            raise ValueError(f"channel_plan must be a string, got {self.channel_plan!r}")
        if self.input_shape is not None:
            self.input_shape = checked_shape(self.input_shape)

    def validate(self):
        order = {}
        for idx, (node_id, spec) in enumerate(self.nodes):
            if node_id in order:
                raise GraphValidationError(f"duplicate node id {node_id!r}", node_id=node_id)
            order[node_id] = idx
        incoming = {}
        for src, dst in self.residual_edges:
            if src not in order or dst not in order:
                raise GraphValidationError(
                    f"edge ({src!r}, {dst!r}) references a missing node", edge=(src, dst)
                )
            if order[src] >= order[dst]:
                raise GraphValidationError(
                    f"edge ({src!r}, {dst!r}) must point forward in node order",
                    edge=(src, dst),
                )
            if dst in incoming:
                raise GraphValidationError(
                    f"node {dst!r} has more than one incoming edge", node_id=dst
                )
            incoming[dst] = src
        for idx, (node_id, spec) in enumerate(self.nodes):
            if spec.kind == "residual_add":
                if idx == 0:
                    raise GraphValidationError(
                        "residual_add cannot be the first node", node_id=node_id
                    )
                if node_id not in incoming:
                    raise GraphValidationError(
                        f"residual_add node {node_id!r} has no incoming edge", node_id=node_id
                    )


def weight_shapes(spec: LayerSpec) -> dict:
    """Shapes of the weight tensors a layer needs, keyed by tensor name."""
    return LAYER_KINDS[spec.kind].weights(spec)


def checked_weights(spec: LayerSpec, tensors, where: str) -> dict:
    """The tensors a layer needs, taken from ``tensors`` ({name: Tensor or
    array}, or None) once each is present with its recorded shape.

    Raises ValidationError for a missing tensor and DimensionMismatch for a
    wrong shape, both prefixed with ``where`` (a node id or a kind). Tensors
    the kind does not use are left out.
    """
    have = tensors if isinstance(tensors, dict) else {}
    checked = {}
    for name, shape in weight_shapes(spec).items():
        if name not in have:
            raise ValidationError(f"{where}: missing weight tensor {name!r}")
        got = getattr(have[name], "shape", None)
        if got is None or tuple(got) != shape:
            raise DimensionMismatch(name, shape, got, f"{where} weights")
        checked[name] = have[name]
    return checked


def layer_output_shape(spec: LayerSpec, in_shape) -> tuple:
    """Output shape of one layer, after checking the input's rank and leading
    extent against the kind's record."""
    in_shape = tuple(in_shape)
    kind = LAYER_KINDS[spec.kind]
    if len(in_shape) not in kind.ranks:
        raise DimensionMismatch("rank", _rank_text(kind.ranks), len(in_shape), spec.kind)
    if kind.lead is not None and in_shape[0] != getattr(spec, kind.lead):
        raise DimensionMismatch(kind.lead, getattr(spec, kind.lead), in_shape[0], spec.kind)
    return kind.output(spec, in_shape)


def shape_infer(graph: LayerGraph, input_shape):
    """Propagate shapes through a graph, along the reads ``node_inputs``
    derives from its edges.

    Returns (output_shape, {node_id: (in_shape, out_shape)}). Raises
    GraphValidationError naming the first inconsistent edge or node. Within
    a call, nodes that hold one LayerSpec object and read one shape share
    its output shape, worked out once.
    """
    graph.validate()
    out_shape = checked_shape(input_shape)
    made, shapes = {None: out_shape}, {}
    outs = {}  # (id(spec), in_shape): out_shape
    for (node_id, spec), (x, addend) in zip(graph.nodes, node_inputs(graph).values()):
        in_shape = made[x]
        if addend is not None and made[addend] != in_shape:
            raise GraphValidationError(
                f"residual edge ({addend!r}, {node_id!r}) joins shapes {made[addend]} and "
                f"{in_shape}", edge=(addend, node_id))
        key = (id(spec), in_shape)
        out_shape = outs.get(key)
        if out_shape is None:
            try:
                out_shape = outs[key] = layer_output_shape(spec, in_shape)
            except DimensionMismatch as exc:
                raise GraphValidationError(f"node {node_id!r}: {exc}", node_id=node_id) from exc
        made[node_id] = out_shape
        shapes[node_id] = (in_shape, out_shape)
    return out_shape, shapes


def volume(shape) -> int:
    return math.prod(map(int, shape))


def node_inputs(graph: LayerGraph) -> dict:
    """{node id: (input, addend)} in node order, for a graph that validates:
    the id of the node whose output the node reads (None: the graph's input)
    and, for a residual_add, the edge source it adds (else None)."""
    incoming = {dst: src for src, dst in graph.residual_edges}
    inputs, prev = {}, None
    for node_id, spec in graph.nodes:
        src = incoming.get(node_id)
        inputs[node_id] = (prev, src) if spec.kind == "residual_add" else \
            (prev if src is None else src, None)
        prev = node_id
    return inputs


def last_reads(inputs: dict) -> dict:
    """{value: index of the last node reading it}; None is the graph's input."""
    last = {}
    for i, (x, addend) in enumerate(inputs.values()):
        last[x] = i
        if addend is not None:
            last[addend] = i
    return last


@dataclass(frozen=True)
class ActivationPlan:
    """Where ``run_graph`` writes node outputs: ``slots`` maps each planned
    node id to the (byte offset, bytes) of its fp32 output in one arena of
    ``arena_bytes``."""

    slots: dict
    arena_bytes: int


def plan_activations(graph: LayerGraph, shapes: dict, inputs: dict, place=None,
                     before=None) -> ActivationPlan:
    """A static memory plan for the outputs of the nodes ``place`` names (ids
    in node order; by default every node but the last, whose output the caller
    owns), from the shapes ``shape_infer`` gives and the reads ``node_inputs``
    gives alone.

    A value of a node that ``place`` leaves out is the caller's. A node is
    planned when its kind has an ``arena`` rule and its input is the caller's
    or a planned output. Each planned output is live from its node to its
    last reader. A node of an "in_place" kind takes its input's offset when
    that input is a planned output that dies at the node and is no smaller
    than the output; such a chain keeps its offset while its size shrinks.
    ``before`` ({node id: bytes}) names nodes, always planned, whose slot
    keeps that many bytes before their output: a window whose front holds
    frames from the step before. A chain writes such a node's output behind
    them, and a node in place over it writes from the window's front.
    Chains are placed greedy by size (Pisarchyk & Lee, arXiv:2001.03288): the
    largest first, each at the lowest offset where none of its members
    overlaps an output placed before it that is live at the same node.
    """
    order = {node_id: i for i, node_id in enumerate(inputs)}
    place, before = list(inputs)[:-1] if place is None else list(place), before or {}
    last_read, kinds, placed = last_reads(inputs), dict(graph.nodes), set(place)
    size = {node_id: 4 * volume(shapes[node_id][1]) for node_id in place}
    head, chains = {}, {}  # each planned node's chain (by its first node) and its members
    at = {}  # each planned node's (window start, output start) from its chain's offset
    for node_id in place:
        i, x = order[node_id], inputs[node_id][0]
        rule = LAYER_KINDS[kinds[node_id].kind].arena
        if node_id not in before and (rule is None or (x in placed and x not in head)):
            continue
        in_place = rule == "in_place" and x in head and last_read[x] == i \
            and size[node_id] <= size[x]
        out = at[x][0] if in_place else 0
        at[node_id] = (out - before.get(node_id, 0), out)
        head[node_id] = head[x] if in_place else node_id
        chains.setdefault(head[node_id], []).append(node_id)
    live = {}  # per node index: (offset, bytes) of what is placed live there
    offsets = {}
    for first in sorted(chains, key=lambda h: (-size[h] - before.get(h, 0), order[h])):
        # (first index, last index, start, end) of each member's bytes from the offset
        spans = [(order[n], last_read.get(n, order[n]), at[n][0], at[n][1] + size[n])
                 for n in chains[first]]
        # a placed (o, b) live with a member spanning [lo, hi) bars offsets (o - hi, o + b - lo)
        barred = {(o - hi, o + b - lo) for start, stop, lo, hi in spans
                  for t in range(start, stop + 1) for o, b in live.get(t, ())}
        low = -min(lo for _, _, lo, _ in spans)
        offsets[first] = min(c for c in {low} | {b for _, b in barred if b >= low}
                             if not any(a < c < b for a, b in barred))
        for start, stop, lo, hi in spans:
            for t in range(start, stop + 1):
                live.setdefault(t, []).append((offsets[first] + lo, hi - lo))
    slots = {node_id: (offsets[first] + at[node_id][1], size[node_id])
             for node_id, first in head.items()}
    return ActivationPlan(slots, max((o + b for o, b in slots.values()), default=0))


def frames_read(spec: LayerSpec) -> tuple:
    """(ahead, behind): how many frames past its last output frame and before
    its first a layer reads when it runs in a ``kernels.Frames`` walk."""
    kind = LAYER_KINDS[spec.kind]
    ahead = kind.reach(spec)
    return ahead, ahead if kind.behind is None else kind.behind(spec)


# the kinds that may join the chain of the node before them (fused_tails)
_TAIL_KINDS = ("relu", "batchnorm", "residual_add")


def fused_tails(graph: LayerGraph, inputs: dict) -> dict:
    """{head id: [tail ids]}: the chains ``run_graph`` fuses, from the node
    kinds and ``node_inputs``'s reads alone. A relu, batchnorm or
    residual_add joins the chain of the node before it when it reads that
    node's value, which no other node reads; a residual_add's addend must be
    made before the chain's head. Any kind may head a chain, as every runner,
    and ``kernels.add_array`` for an unfused residual_add, returns a buffer
    the engine owns, never a view of its input."""
    ids, last, tails, head = list(inputs), last_reads(inputs), {}, {}
    for i in range(1, len(ids)):
        prev, (x, addend) = ids[i - 1], inputs[ids[i]]
        first = head.get(prev, prev)
        # an addend made before the chain's head is no member of the chain
        if graph.nodes[i][1].kind in _TAIL_KINDS and x == prev and last[prev] == i \
                and (addend is None or head.get(addend, addend) != first):
            head[ids[i]] = first
            tails.setdefault(first, []).append(ids[i])
    return tails


# fp32 bytes a tile of a region's widest value may take, which fixes the
# frames per tile: 4 of MobiVSR's ds3d1 output. The step arena grows by a
# frame of ds3d1 output per tile frame, and each step costs every region node
# a kernel call, whose geometry the kernels keep across calls, and an int8
# node the dequantizing of its weights. With the region through s3's first
# block, run_graph peaks at 10.19 MB on whole layers, 6.49 MB in 8-frame tiles
# and 5.31 MB in 4-frame ones at alpha=1 fp32, and at 11.09, 6.55 and 5.37 MB
# at alpha=4 int8 (counted). Run interleaved in one process on a 2-vCPU host
# (30 passes each), 8-frame tiles cost 11.6 % and 4-frame ones 21.0 % over
# whole layers' median at alpha=1, and 8.9 % and 15.6 % at alpha=4; with the
# region through s2 and a region node's weights dequantized once, 7.0 %,
# 16.0 %, 3.1 % and 10.6 %, measured the same way right after
_TILE_BYTES = 1152 * 1024


@dataclass(frozen=True)
class TilePlan:
    """How ``run_graph`` schedules a graph: nodes [0, ``region``) depth-first,
    one tile of ``frames`` frames at a time, then the rest whole.

    Step k, up to ceil(L / frames), makes the region's output frames
    [(k - 1) * frames, k * frames): a node computes its output frames
    [(k - 1) * frames + lag, k * frames + lag) within the clip, ``lags``
    giving each node's lag, so steps before 1 run only nodes that lead. A
    node in ``held`` keeps that many frames of its output from one step to
    the next, for readers that lag it or reach across frames. ``steps``
    places every region output but the last, a tile's worth, in one arena
    that each step reuses, a held node's in a window of its held frames and
    then its tile; the region's last node keeps its whole output, the value
    the rest reads. No output past the region is planned: each goes where
    its kernel puts it, and ``run_graph`` frees it after its last reader.
    Without a region (``region`` 0) that holds for every node, and ``steps``
    has no slots.
    """

    region: int
    frames: int
    lags: dict
    held: dict
    steps: ActivationPlan


def plan_tiles(graph: LayerGraph, shapes: dict, inputs: dict) -> TilePlan:
    """The schedule of ``graph`` from the shapes ``shape_infer`` gives and the
    reads ``node_inputs`` gives alone.

    The region is a run of leading nodes, on a rank-4 (C, L, H, W) input,
    whose values all keep rank 4 and L frames. It ends at a cut: a node whose
    value is the only one read past it, and which no tail of a chain
    (``fused_tails``) follows, so that no fused chain is split. Once some
    value is larger than the input, the region ends at the first cut whose
    value is no larger, whose whole output, which the rest reads, then takes
    no more than the input, live throughout; without such a cut, at the last
    cut of the run. A tile is as many frames of the region's widest value as
    fit in _TILE_BYTES; a region no longer than one tile runs whole, and a graph
    without a region gets a plan of no slots.

    Lags run back from the region's last node: a node's lag is the largest
    of its readers' lag plus reach, so a reader finds every frame it reads
    computed in the same step, and it holds the frames back to its readers'
    smallest lag minus the frames they read behind (``frames_read``) for the
    next steps: the fused-layer schedule of Alwani et al. (MICRO 2016), with
    Halide's sliding-window storage folding (Ragan-Kelley et al., PLDI 2013).
    """
    ids, kinds, last_read = list(inputs), dict(graph.nodes), last_reads(inputs)
    clip = shapes[ids[0]][0]
    region = widest = cut_widest = 0
    if len(clip) == 4:
        tails = {t for chain in fused_tails(graph, inputs).values() for t in chain}
        read_past = 0  # the last reader of any value before node i
        for i, (node_id, after) in enumerate(zip(ids, ids[1:] + [None])):
            in_shape, out_shape = shapes[node_id]
            if len(in_shape) != 4 or len(out_shape) != 4 or out_shape[1] != clip[1]:
                break
            widest = max(widest, volume(out_shape) // clip[1])
            if read_past <= i and after not in tails and widest * clip[1] > volume(clip):
                region, cut_widest = i + 1, widest
                if volume(out_shape) <= volume(clip):
                    break
            read_past = max(read_past, last_read.get(node_id, i))
    frames = max(_TILE_BYTES // (4 * cut_widest), 1) if region else 0
    if not region or frames >= clip[1]:
        return TilePlan(0, 0, {}, {}, ActivationPlan({}, 0))
    inside = ids[:region]
    # per region value: (reader, frames it reads ahead, frames it reads behind)
    readers = {node_id: [] for node_id in inside}
    for node_id in inside:
        x, addend = inputs[node_id]
        if x is not None:
            readers[x].append((node_id, *frames_read(kinds[node_id])))
        if addend is not None:
            readers[addend].append((node_id, 0, 0))
    lag, held = {}, {}
    for node_id in reversed(inside):
        lag[node_id] = max((lag[r] + ahead for r, ahead, _ in readers[node_id]), default=0)
        hold = lag[node_id] - min((lag[r] - behind for r, _, behind in readers[node_id]),
                                  default=lag[node_id])
        if hold:
            held[node_id] = hold
    tile = {node_id: (shapes[node_id][0], (shapes[node_id][1][0], frames, *shapes[node_id][1][2:]))
            for node_id in inside}
    steps = plan_activations(graph, tile, inputs, inside[:-1], {
        node_id: 4 * volume(shapes[node_id][1]) // clip[1] * hold for node_id, hold in held.items()})
    return TilePlan(region, frames, lag, held, steps)
