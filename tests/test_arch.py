"""Architecture builders: block structure, shape flow, and calibration."""

import tracemalloc

import numpy as np
import pytest

from mobivsr import (
    CHANNEL_PLAN_CANDIDATES,
    CLIP_INPUT_SHAPE,
    DEFAULT_CHANNEL_PLAN,
    LayerGraph,
    LayerSpec,
    Tensor,
    aggregate,
    build_lipres,
    build_mobivsr,
    calibrate_channel_plan,
    counted_forward,
    init_weights,
    published_models,
    run_graph,
    shape_infer,
)
from mobivsr.arch import MAX_ALPHA


def block_graph(block):
    """Wrap a single block in a runnable graph behind an identity stem."""
    nodes = [("stem", LayerSpec("relu"))]
    edges = []
    for suffix, spec in block.layers:
        nodes.append((suffix, spec))
    for src, dst in block.edges:
        edges.append(("stem" if src == "@in" else src, dst))
    return LayerGraph(nodes=nodes, residual_edges=edges)


def test_block_count_is_4_alpha():
    for alpha in (1, 2, 3):
        graph = build_mobivsr(alpha)
        adds = [i for i, s in graph.nodes if s.kind == "residual_add"]
        assert len(adds) == 4 * alpha


def test_downsample_blocks_always_three():
    for alpha in (1, 2, 4):
        graph = build_mobivsr(alpha)
        skips = [i for i, s in graph.nodes if i.endswith(".skip")]
        assert len(skips) == 3


@pytest.mark.parametrize("alpha", range(1, 12))
def test_shape_inference_succeeds_for_alpha_grid(alpha):
    out, _ = shape_infer(build_mobivsr(alpha), CLIP_INPUT_SHAPE)
    assert out == (500,)


def test_frontend_and_stack_spatial_extents():
    graph = build_mobivsr(1)
    _, shapes = shape_infer(graph, CLIP_INPUT_SHAPE)
    assert shapes["frontend.ds3d2"][1][-2:] == (24, 24)
    assert shapes["s4.b1.add"][1][-2:] == (3, 3)
    assert shapes["frontend.ds3d2"][1][1] == 29  # frame count intact


def test_keep_block_preserves_shape():
    block = build_lipres("keep", 4, 4)
    graph = block_graph(block)
    x = np.abs(np.random.default_rng(0).normal(size=(4, 7, 7))).astype(np.float32)
    result = run_graph(graph, init_weights(graph, seed=1), Tensor.from_array(x))
    assert result.output.shape == (4, 7, 7)


def test_keep_block_requires_matching_channels():
    with pytest.raises(ValueError):
        build_lipres("keep", 4, 8)
    with pytest.raises(ValueError):
        build_lipres("keep", 0, 0)
    with pytest.raises(ValueError):
        build_lipres("sideways", 4, 4)


@pytest.mark.parametrize("variant,channels,order,edges,strides", [
    ("keep", (4, 4), ["ds1", "relu1", "ds2", "add", "relu2"], (("@in", "add"),),
     {"ds1": 1, "ds2": 1}),
    ("downsample", (4, 8), ["ds1", "relu1", "ds2", "skip", "add", "relu2"],
     (("@in", "skip"), ("ds2", "add")), {"ds1": 2, "ds2": 1, "skip": 2}),
])
def test_lipres_layer_order_and_edges(variant, channels, order, edges, strides):
    block = build_lipres(variant, *channels)
    assert [suffix for suffix, _ in block.layers] == order
    assert block.edges == edges
    specs = dict(block.layers)
    assert {name: specs[name].stride for name in strides} == strides


def test_downsample_block_halves_spatial_extent():
    block = build_lipres("downsample", 4, 8)
    graph = block_graph(block)
    _, shapes = shape_infer(graph, (4, 24, 24))
    assert shapes["add"][1] == (8, 12, 12)


def test_downsample_skip_is_a_stride2_conv_of_the_block_input():
    block = build_lipres("downsample", 3, 6)
    graph = block_graph(block)
    weights = init_weights(graph, seed=2)
    x = np.abs(np.random.default_rng(3).normal(size=(3, 10, 10))).astype(np.float32)
    result = run_graph(graph, weights, Tensor.from_array(x), keep_outputs=True)
    skip = LayerSpec("conv2d", in_channels=3, out_channels=6, kernel_size=1, stride=2)
    direct, _ = counted_forward(skip, x, weights["skip"])
    np.testing.assert_array_equal(result.node_outputs["skip"], direct.as_array())


def skip_edge_graph():
    """A non-residual node ("mix") reads a skip edge, and one source ("stem")
    feeds two later nodes."""
    nodes = [
        ("stem", LayerSpec("relu")),
        ("dw", LayerSpec("ds_conv2d", in_channels=3, out_channels=3, kernel_size=3)),
        ("mix", LayerSpec("conv2d", in_channels=3, out_channels=3, kernel_size=1)),
        ("add1", LayerSpec("residual_add")),
        ("act", LayerSpec("relu")),
        ("add2", LayerSpec("residual_add")),
    ]
    edges = [("stem", "mix"), ("dw", "add1"), ("stem", "add2")]
    return LayerGraph(nodes=nodes, residual_edges=edges), (3, 6, 6)


@pytest.mark.parametrize("case", ["alpha1", "alpha2", "skip_edge"])
def test_freeing_outputs_changes_no_value_or_count(case):
    if case == "skip_edge":
        graph, shape = skip_edge_graph()
    else:
        graph, shape = build_mobivsr(int(case[-1])), CLIP_INPUT_SHAPE
    weights = init_weights(graph, seed=4)
    x = Tensor.from_array(np.random.default_rng(5).random(shape, dtype=np.float32))
    kept = run_graph(graph, weights, x, counted=True, keep_outputs=True)
    freed = run_graph(graph, weights, x, counted=True)
    np.testing.assert_array_equal(freed.output.as_array(), kept.output.as_array())
    assert freed.ledger == kept.ledger
    assert freed.node_outputs is None
    assert list(kept.node_outputs) == [node_id for node_id, _ in graph.nodes]
    assert run_graph(graph, weights, x).node_outputs is None


def test_peak_memory_is_flat_in_depth():
    x = np.ones((16, 32, 32), dtype=np.float32)

    def peak(depth):
        graph = LayerGraph(nodes=[(f"r{i}", LayerSpec("relu")) for i in range(depth)])
        tracemalloc.start()
        try:
            run_graph(graph, {}, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) - peak(4) <= x.nbytes


def test_parameter_increment_constant_in_alpha():
    params = [aggregate(build_mobivsr(a)).totals.params for a in (1, 2, 3, 4, 5)]
    increments = [b - a for a, b in zip(params, params[1:])]
    assert len(set(increments)) == 1


def test_no_recurrent_kinds_anywhere():
    kinds = {spec.kind for _, spec in build_mobivsr(3).nodes}
    assert not kinds & {"lstm", "gru", "rnn"}
    assert kinds <= {
        "ds_conv3d", "batchnorm", "relu", "ds_conv2d", "conv2d", "residual_add",
        "spatial_avg", "temporal_conv1d", "maxpool", "temporal_avg", "fc", "softmax",
    }


def test_alpha_must_be_positive_int():
    with pytest.raises(ValueError):
        build_mobivsr(0)
    with pytest.raises(ValueError):
        build_mobivsr(-2)
    with pytest.raises(ValueError):  # bool is an int subclass, but True is no count
        build_mobivsr(True)
    with pytest.raises(ValueError, match=f"from 1 to {MAX_ALPHA}"):
        build_mobivsr(MAX_ALPHA + 1)
    assert len(build_mobivsr(MAX_ALPHA).nodes) == 20 * MAX_ALPHA + 20


def test_reference_presets_are_the_two_comparison_rows():
    by_name = {p.name: p for p in published_models()}
    sota = by_name["LSTM + ResNet (SOTA)"]
    assert (sota.size_mb, sota.params_m, sota.flops_b) == (130.0, 25.1, 290.0)
    baseline = by_name["LRW Baseline"]
    assert (baseline.size_mb, baseline.params_m, baseline.flops_b) == (43.2, 8.7, 95.7)


def test_calibration_selects_the_frozen_default_plan():
    assert calibrate_channel_plan() == DEFAULT_CHANNEL_PLAN


def test_calibration_rejects_infeasible_candidates():
    infeasible = [p for p in CHANNEL_PLAN_CANDIDATES if p.name != "base"]
    with pytest.raises(ValueError):
        calibrate_channel_plan(candidates=infeasible)


def test_graph_records_the_channel_plan():
    assert build_mobivsr(2).channel_plan == DEFAULT_CHANNEL_PLAN.name
