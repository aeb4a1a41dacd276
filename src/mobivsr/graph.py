"""Layer-graph intermediate representation and shape inference.

A graph is an ordered list of (id, LayerSpec) nodes plus residual edges.
Nodes execute in list order, each reading the previous node's output, with
two edge-driven exceptions:

* an edge into a ``residual_add`` node supplies its second addend;
* an edge into any other node redirects that node's input to the edge
  source (a tap, used for skip-path convolutions).

Edges always point forward in node order, so graphs are acyclic by
construction.

Every layer shape rule lives here, in ``LAYER_KINDS``. ``shape_infer``
applies them to a whole graph; the cost model and ``engine.run_graph`` both
run it rather than checking shapes themselves. ``plan_activations`` gives
``run_graph`` a static memory plan from those shapes and the edges: where in
one arena each node's output lives.
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
    the kernel allocates it; "slot", in a slot of the activation arena;
    "in_place", in such a slot, which may lie over an input that dies at the
    node when the output is no larger.
    """

    required: tuple = ()
    ranks: range = range(1, sys.maxsize)
    lead: str | None = None
    weights: Callable = lambda spec: {}
    output: Callable = lambda spec, in_shape: in_shape
    modes: tuple = ()
    arena: str | None = None


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
        _conv3d_out),
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
        _conv3d_out, modes=("partial", "full"), arena="in_place"),
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


@dataclass
class LayerGraph:
    """Ordered layers plus residual edges; optionally a default input shape."""

    nodes: list = field(default_factory=list)
    residual_edges: list = field(default_factory=list)
    channel_plan: str = "custom"
    input_shape: tuple | None = None

    def __post_init__(self):
        self.nodes = [(str(i), s) for i, s in self.nodes]
        self.residual_edges = [(str(a), str(b)) for a, b in self.residual_edges]
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
        return incoming


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
    """Propagate shapes through a graph.

    Returns (output_shape, {node_id: (in_shape, out_shape)}). Raises
    GraphValidationError naming the first inconsistent edge or node.
    """
    incoming = graph.validate()
    shapes = {}
    prev_shape = checked_shape(input_shape)
    for node_id, spec in graph.nodes:
        if spec.kind == "residual_add":
            main = prev_shape
            src = incoming[node_id]
            other = shapes[src][1]
            if main != other:
                raise GraphValidationError(
                    f"residual edge ({src!r}, {node_id!r}) joins shapes {other} and {main}",
                    edge=(src, node_id),
                )
            in_shape, out_shape = main, main
        else:
            src = incoming.get(node_id)
            in_shape = shapes[src][1] if src is not None else prev_shape
            try:
                out_shape = layer_output_shape(spec, in_shape)
            except DimensionMismatch as exc:
                raise GraphValidationError(
                    f"node {node_id!r}: {exc}", node_id=node_id
                ) from exc
        shapes[node_id] = (in_shape, out_shape)
        prev_shape = out_shape
    return prev_shape, shapes


def volume(shape) -> int:
    return math.prod(int(v) for v in shape)


@dataclass(frozen=True)
class ActivationPlan:
    """Where ``run_graph`` writes node outputs: ``slots`` maps each planned
    node id to the (byte offset, bytes) of its fp32 output in one arena of
    ``arena_bytes``."""

    slots: dict
    arena_bytes: int


def plan_activations(graph: LayerGraph, input_shape) -> ActivationPlan:
    """A static memory plan for the node outputs of ``graph`` on an input of
    ``input_shape``, from ``shape_infer``'s shapes and the edges alone.

    A node is planned when its kind has an ``arena`` rule, its input is the
    caller's or a planned output, and it is not the last node, whose output
    the caller owns. Each planned output is live from its node to its last
    reader. A node of an "in_place" kind takes its input's offset when that
    input is a planned output that dies at the node and is no smaller than
    the output; such a chain keeps its offset while its size shrinks. Chains
    are placed greedy by size (Pisarchyk & Lee, arXiv:2001.03288): the
    largest first, each at the lowest offset where none of its members
    overlaps an output placed before it that is live at the same node.
    """
    _, shapes = shape_infer(graph, input_shape)
    incoming = {dst: src for src, dst in graph.residual_edges}
    # each node's input (None: the caller's) and the last node reading each output
    inputs, last_read = [], {}
    for i, (node_id, spec) in enumerate(graph.nodes):
        src = incoming.get(node_id)
        prev = graph.nodes[i - 1][0] if i else None
        inputs.append(src if src is not None and spec.kind != "residual_add" else prev)
        for read in (inputs[-1], src):
            if read is not None:
                last_read[read] = i
    size = {node_id: 4 * volume(shapes[node_id][1]) for node_id, _ in graph.nodes}
    head, chains = {}, {}  # each planned node's chain (by its first node): (first, last, bytes)
    for i, (node_id, spec) in enumerate(graph.nodes[:-1]):
        rule, x = LAYER_KINDS[spec.kind].arena, inputs[i]
        if rule is None or (x is not None and x not in head):
            continue
        in_place = rule == "in_place" and x is not None and last_read[x] == i \
            and size[node_id] <= size[x]
        head[node_id] = head[x] if in_place else node_id
        chains.setdefault(head[node_id], []).append((i, last_read.get(node_id, i), size[node_id]))
    live = [[] for _ in graph.nodes]  # per node: (offset, bytes) of the outputs placed live there
    offsets = {}
    for first in sorted(chains, key=lambda h: (-chains[h][0][2], chains[h][0][0])):
        # a placed (offset o, b bytes) live with a member of n bytes bars (o - n, o + b)
        barred = {(o - n, o + b) for start, stop, n in chains[first]
                  for t in range(start, stop + 1) for o, b in live[t]}
        offsets[first] = min(c for c in {0} | {hi for _, hi in barred}
                             if not any(lo < c < hi for lo, hi in barred))
        for start, stop, n in chains[first]:
            for t in range(start, stop + 1):
                live[t].append((offsets[first], n))
    slots = {node_id: (offsets[first], size[node_id]) for node_id, first in head.items()}
    return ActivationPlan(slots, max((o + b for o, b in slots.values()), default=0))
