"""Builders for the MobiVSR-alpha graph family and its comparison presets.

The network has three parts:

* a front end of two depthwise-separable 3-D convolutions (3x3x3 kernels,
  partial Tx1x1 pointwise stage), each halving the spatial extent;
* a middle stack of four subgraphs of LipRes blocks. A LipRes block is two
  depthwise-separable 2-D convolutions with ReLU and a residual skip; the
  downsampling variant strides by two and carries a stride-2 convolution on
  the skip path. Subgraph 1 holds ``alpha`` size-keeping blocks; subgraphs
  2-4 each open with one downsampling block followed by ``alpha - 1``
  keeping blocks. The middle stack runs per frame, with time folded into a
  batch axis;
* a back end that averages out the spatial axes, applies two 1-D temporal
  convolutions around a temporal max-pool, averages over time, and finishes
  with two fully connected layers and a 500-way softmax.

Batch normalization appears only after the two front-end layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import aggregate
from .graph import LayerGraph, LayerSpec, is_int
from .model_io import CROP_SIDE, FRAME_COUNT

CLIP_INPUT_SHAPE = (1, FRAME_COUNT, CROP_SIDE, CROP_SIDE)
NUM_CLASSES = 500
# The largest alpha build_mobivsr accepts. Each alpha adds 20 nodes and about
# 4.5 KB of traced memory to the graph: MobiVSR-1 000 has 20 020 nodes and is
# built in 0.15 s on a 2-vCPU host, while an unbounded alpha runs the process
# out of memory before any error can be raised.
MAX_ALPHA = 1000


@dataclass(frozen=True)
class ChannelPlan:
    """Channel widths left open by the block diagram, frozen after calibration."""

    name: str
    front_end: int = 32
    subgraphs: tuple = (64, 128, 256, 512)
    temporal: tuple = (512, 1024)
    fc_hidden: int = 1024


# Calibrated so that alpha=1 lands near 4.5M parameters and each extra alpha
# adds close to 0.7M, the increments being exactly constant. See
# calibrate_channel_plan for the documented candidate set.
DEFAULT_CHANNEL_PLAN = ChannelPlan("base")

CHANNEL_PLAN_CANDIDATES = (
    ChannelPlan("slim", front_end=16, subgraphs=(32, 64, 128, 256), temporal=(256, 512),
                fc_hidden=512),
    DEFAULT_CHANNEL_PLAN,
    ChannelPlan("wide", front_end=48, subgraphs=(96, 192, 384, 768), temporal=(768, 1024),
                fc_hidden=1024),
    ChannelPlan("compact-head", front_end=32, subgraphs=(64, 128, 256, 512),
                temporal=(512, 512), fc_hidden=512),
)


@dataclass(frozen=True)
class LipResBlock:
    """A residual unit of two separable convolutions, ReLU, and a skip path.

    ``layers`` lists (suffix, LayerSpec) pairs in execution order; ``edges``
    are (source suffix, destination suffix) pairs where the special source
    "@in" stands for the block's input producer. The variant and channel
    counts are not stored: the layers' specs carry them.
    """

    layers: tuple
    edges: tuple


def build_lipres(variant: str, channels_in: int, channels_out: int) -> LipResBlock:
    """Assemble one LipRes block.

    The ``keep`` variant preserves the spatial extent (and therefore requires
    equal channel counts, its skip being an identity). The ``downsample``
    variant halves the spatial extent on both paths, the skip through a 1x1
    convolution with stride two.
    """
    if channels_in < 1 or channels_out < 1:
        raise ValueError(f"channel counts must be positive, got {channels_in}, {channels_out}")
    if variant not in ("keep", "downsample"):
        raise ValueError(f"variant must be 'keep' or 'downsample', got {variant!r}")
    if variant == "keep" and channels_in != channels_out:
        raise ValueError(f"keep blocks need matching channels, "
                         f"got {channels_in} -> {channels_out}")
    downsample = variant == "downsample"
    layers = [
        ("ds1", LayerSpec("ds_conv2d", in_channels=channels_in, out_channels=channels_out,
                          kernel_size=3, stride=2 if downsample else 1)),
        ("relu1", LayerSpec("relu")),
        ("ds2", LayerSpec("ds_conv2d", in_channels=channels_out, out_channels=channels_out,
                          kernel_size=3)),
        ("add", LayerSpec("residual_add")),
        ("relu2", LayerSpec("relu")),
    ]
    edges = [("@in", "add")]
    if downsample:
        layers.insert(3, ("skip", LayerSpec("conv2d", in_channels=channels_in,
                                            out_channels=channels_out, kernel_size=1, stride=2)))
        edges = [("@in", "skip"), ("ds2", "add")]
    return LipResBlock(tuple(layers), tuple(edges))


def _splice(nodes, edges, block: LipResBlock, prefix: str, input_id: str) -> str:
    for suffix, spec in block.layers:
        nodes.append((prefix + suffix, spec))
    for src, dst in block.edges:
        edges.append((input_id if src == "@in" else prefix + src, prefix + dst))
    return nodes[-1][0]


def build_mobivsr(alpha: int, channel_plan: ChannelPlan | None = None) -> LayerGraph:
    """Build the full graph for a given alpha (LipRes blocks per subgraph),
    an int from 1 to MAX_ALPHA (else ValueError)."""
    if not is_int(alpha) or not 1 <= alpha <= MAX_ALPHA:
        raise ValueError(f"alpha must be an int from 1 to {MAX_ALPHA}, got {alpha!r}")
    plan = channel_plan or DEFAULT_CHANNEL_PLAN
    fe, subs = plan.front_end, plan.subgraphs
    nodes, edges = [], []

    for i, (c_in, c_out) in enumerate(((1, fe), (fe, subs[0])), start=1):
        nodes.append((f"frontend.ds3d{i}", LayerSpec(
            "ds_conv3d", in_channels=c_in, out_channels=c_out, kernel_size=3, temporal_size=3,
            stride=2, pointwise_mode="partial")))
        nodes.append((f"frontend.bn{i}", LayerSpec("batchnorm", in_channels=c_out)))
        nodes.append((f"frontend.relu{i}", LayerSpec("relu")))

    last = "frontend.relu2"
    prev_channels = subs[0]
    for sub_index, channels in enumerate(subs, start=1):
        # blocks are frozen values, so one keep block, made at its first
        # position, serves every keep position
        keep = None
        for block_index in range(1, alpha + 1):
            if sub_index > 1 and block_index == 1:
                block = build_lipres("downsample", prev_channels, channels)
            else:
                keep = block = keep or build_lipres("keep", channels, channels)
            last = _splice(nodes, edges, block, f"s{sub_index}.b{block_index}.", last)
        prev_channels = channels

    t1, t2 = plan.temporal
    nodes.append(("backend.spatial_avg", LayerSpec("spatial_avg")))
    nodes.append(("backend.tconv1", LayerSpec(
        "temporal_conv1d", in_channels=subs[3], out_channels=t1, kernel_size=3)))
    nodes.append(("backend.relu1", LayerSpec("relu")))
    nodes.append(("backend.maxpool", LayerSpec("maxpool", window=2, stride=2)))
    nodes.append(("backend.tconv2", LayerSpec(
        "temporal_conv1d", in_channels=t1, out_channels=t2, kernel_size=3)))
    nodes.append(("backend.relu2", LayerSpec("relu")))
    nodes.append(("backend.temporal_avg", LayerSpec("temporal_avg")))
    nodes.append(("head.fc1", LayerSpec("fc", in_features=t2, out_features=plan.fc_hidden)))
    nodes.append(("head.relu", LayerSpec("relu")))
    nodes.append(("head.fc2", LayerSpec("fc", in_features=plan.fc_hidden,
                                        out_features=NUM_CLASSES)))
    nodes.append(("head.softmax", LayerSpec("softmax")))

    return LayerGraph(nodes=nodes, residual_edges=edges, channel_plan=plan.name,
                      input_shape=CLIP_INPUT_SHAPE)


# the published size targets: alpha=1 parameters, the per-alpha increment,
# and the relative error a feasible plan may have on each
_PARAMS_TARGET = 4.5e6
_INCREMENT_TARGET = 0.7e6
_CALIBRATION_TOLERANCE = 0.15


def calibrate_channel_plan(candidates=CHANNEL_PLAN_CANDIDATES) -> ChannelPlan:
    """Pick the candidate plan that best matches the published size targets.

    A plan is feasible when its alpha=1 parameters and per-alpha increment
    both land within _CALIBRATION_TOLERANCE of their targets (relative
    error); among feasible plans the smallest combined error wins.
    """
    best, best_score = None, None
    for plan in candidates:
        p1 = aggregate(build_mobivsr(1, plan)).totals.params
        p2 = aggregate(build_mobivsr(2, plan)).totals.params
        increment = p2 - p1
        err_p = abs(p1 - _PARAMS_TARGET) / _PARAMS_TARGET
        err_i = abs(increment - _INCREMENT_TARGET) / _INCREMENT_TARGET
        if err_p > _CALIBRATION_TOLERANCE or err_i > _CALIBRATION_TOLERANCE:
            continue
        score = err_p + err_i
        if best_score is None or score < best_score:
            best, best_score = plan, score
    if best is None:
        raise ValueError("no candidate plan meets the calibration targets")
    return best


@dataclass(frozen=True)
class ReferencePreset:
    """Reported figures for a model, in the comparison table's units:
    size in MB, parameters in millions, memory accesses in thousands,
    FLOPs in billions, top-1/top-3 accuracy in percent."""

    name: str
    size_mb: float
    params_m: float
    mem_kaccess: float
    flops_b: float
    top1: float
    top3: float


PUBLISHED_MODELS = (
    ReferencePreset("LSTM + ResNet (SOTA)", 130.0, 25.1, 56.3, 290.0, 83.0, 99.8),
    ReferencePreset("LRW Baseline", 43.2, 8.7, 44.0, 95.7, 61.0, 78.0),
    ReferencePreset("MobiVSR-1", 17.8, 4.5, 35.3, 11.0, 72.2, 88.0),
    ReferencePreset("MobiVSR-2", 20.8, 5.2, 37.3, 20.1, 73.0, 89.0),
    ReferencePreset("MobiVSR-3", 23.6, 5.9, 38.9, 29.5, 73.4, 90.2),
    ReferencePreset("MobiVSR-4", 26.5, 6.6, 40.4, 40.1, 74.0, 91.0),
    ReferencePreset("MobiVSR-10", 43.9, 10.8, 51.5, 92.4, 77.1, 96.1),
    ReferencePreset("MobiVSR-11", 46.8, 11.5, 53.3, 99.8, 77.5, 97.3),
)

# Reported per-inference energy (mJ) and CO2 (mg) for the same rows. The LRW
# Baseline energy is not consistent with its own FLOPs under the additive
# energy model (which gives ~220 mJ); comparisons flag that row.
PUBLISHED_IMPACT = {
    "MobiVSR-1": (25.37, 3.21),
    "MobiVSR-2": (46.30, 5.85),
    "MobiVSR-3": (67.92, 8.59),
    "MobiVSR-4": (92.31, 11.67),
    "MobiVSR-10": (212.62, 26.89),
    "MobiVSR-11": (229.64, 29.01),
    "LSTM + ResNet (SOTA)": (667.11, 84.38),
    "LRW Baseline": (229.39, 29.01),
}

IMPACT_OUTLIERS = ("LRW Baseline",)


def published_models() -> list:
    """All published comparison rows, MobiVSR variants included."""
    return list(PUBLISHED_MODELS)
