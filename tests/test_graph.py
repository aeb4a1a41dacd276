"""Graph IR: validation, shape inference, and file round-trips."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobivsr import (
    DimensionMismatch,
    GraphValidationError,
    LayerGraph,
    LayerSpec,
    PayloadBoundsError,
    SchemaError,
    Tensor,
    build_mobivsr,
    init_weights,
    layer_output_shape,
    node_inputs,
    params_of,
    parse_graph,
    parse_weights,
    plan_activations,
    plan_tiles,
    quantize_weights,
    serialize_graph,
    serialize_weights,
    shape_infer,
    weight_shapes,
)
from mobivsr.costs import COSTED_KINDS
from mobivsr.engine import _RUNNERS, forward_layer
from mobivsr.graph import LAYER_KINDS


def test_unknown_kind_rejected():
    for kind in ("lstm", [1], None):
        with pytest.raises(ValueError, match="unknown layer kind"):
            LayerSpec(kind)


def test_bool_dimensions_rejected():
    with pytest.raises(ValueError):
        LayerSpec("fc", in_features=True, out_features=2)
    text = """
    {"schema_version": 1, "residual_edges": [],
     "nodes": [{"id": "c", "kind": "conv2d", "in_channels": true, "out_channels": 2,
                "kernel_size": 3}]}
    """
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert exc.value.node_id == "c"


@pytest.mark.parametrize("stride", [True, 1.5, 0])
def test_non_int_strides_rejected(stride):
    with pytest.raises(ValueError):
        LayerSpec("conv2d", in_channels=1, out_channels=2, kernel_size=3, stride=stride)
    text = f"""
    {{"schema_version": 1, "residual_edges": [],
     "nodes": [{{"id": "c", "kind": "conv2d", "in_channels": 1, "out_channels": 2,
                "kernel_size": 3, "stride": {json.dumps(stride)}}}]}}
    """
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert exc.value.node_id == "c"


@st.composite
def layer_specs(draw):
    """Any valid LayerSpec of any kind; unrequired fields are None, default or not."""
    kind = draw(st.sampled_from(sorted(LAYER_KINDS)))
    record = LAYER_KINDS[kind]
    values = {}
    for f in fields(LayerSpec)[1:]:
        if f.name in record.required:
            values[f.name] = draw(st.integers(1, 9))
        elif f.name == "stride":
            values[f.name] = draw(st.sampled_from([1, 2, 3]))
        elif f.name == "padding":
            values[f.name] = draw(st.sampled_from(["same", "valid"]))
        elif f.name == "pointwise_mode":
            values[f.name] = draw(st.sampled_from([None, *record.modes]))
        elif f.name == "eps":
            values[f.name] = draw(st.sampled_from([1e-5, 0.0, 1e-3, 2]))
        else:
            values[f.name] = draw(st.none() | st.integers(1, 9))
    return LayerSpec(kind, **values)


@settings(max_examples=200, deadline=None)
@given(spec=layer_specs())
def test_to_dict_round_trips_and_omits_defaults(spec):
    d = spec.to_dict()
    assert LayerSpec(**d) == spec
    assert list(d)[0] == "kind"
    set_fields = {f.name for f in fields(LayerSpec)[1:]
                  if getattr(spec, f.name) is not None and getattr(spec, f.name) != f.default}
    assert set(d) == {"kind"} | set_fields


@pytest.mark.parametrize("kind", [k for k in LAYER_KINDS if k != "residual_add"])
def test_every_kind_runs_with_its_recorded_shapes(kind):
    record = LAYER_KINDS[kind]
    spec = LayerSpec(kind, **{name: 2 for name in record.required})
    weights = {name: np.ones(shape, dtype=np.float32)
               for name, shape in weight_shapes(spec).items()}
    ranks = [r for r in range(1, 5) if r in record.ranks]
    assert ranks
    for rank in ranks:
        x = np.ones((2,) * rank, dtype=np.float32)
        out = forward_layer(spec, x, weights or None)
        assert out.shape == layer_output_shape(spec, x.shape)
    assert (params_of(spec) > 0) == (kind in COSTED_KINDS)
    assert set(_RUNNERS) | {"residual_add"} == set(LAYER_KINDS)


@pytest.mark.parametrize("eps", ["x", -1.0, True, [1], float("nan"), float("inf")])
def test_bad_eps_rejected(eps):
    with pytest.raises(ValueError, match="eps"):
        LayerSpec("batchnorm", in_channels=2, eps=eps)


@pytest.mark.parametrize("eps", [0.0, 1, 1e-3, np.float32(1e-5)])
def test_finite_non_negative_eps_accepted(eps):
    assert LayerSpec("batchnorm", in_channels=2, eps=eps).eps == eps


def test_non_string_channel_plan_rejected():
    with pytest.raises(ValueError, match="channel_plan"):
        LayerGraph(channel_plan=5)


@pytest.mark.parametrize("extent", [1.5, True, "2", 0])
def test_tensor_shape_extents_must_be_positive_ints(extent):
    with pytest.raises(ValueError, match="extents"):
        Tensor(shape=(extent, 2), data=np.zeros(2, dtype=np.float32))


@pytest.mark.parametrize("shape", [[1.5, 2], [True, 2], [0, 3], [-1], ["2"], 5, "12"])
def test_non_int_input_shapes_rejected(shape):
    with pytest.raises(ValueError, match="input_shape"):
        LayerGraph(input_shape=shape)
    with pytest.raises(ValueError, match="input_shape"):
        shape_infer(LayerGraph(nodes=[("r", LayerSpec("relu"))]), shape)


def test_shape_infer_simple_chain():
    graph = LayerGraph(nodes=[
        ("c1", LayerSpec("conv2d", in_channels=1, out_channels=4, kernel_size=3, stride=2)),
        ("r", LayerSpec("relu")),
        ("c2", LayerSpec("conv2d", in_channels=4, out_channels=8, kernel_size=3)),
    ])
    out, shapes = shape_infer(graph, (1, 8, 8))
    assert shapes["c1"] == ((1, 8, 8), (4, 4, 4))
    assert out == (8, 4, 4)


def test_shape_infer_residual_and_tap():
    graph = LayerGraph(
        nodes=[
            ("stem", LayerSpec("relu")),
            ("main", LayerSpec("conv2d", in_channels=2, out_channels=2, kernel_size=3)),
            ("skip", LayerSpec("conv2d", in_channels=2, out_channels=2, kernel_size=1)),
            ("add", LayerSpec("residual_add")),
        ],
        residual_edges=[("stem", "skip"), ("main", "add")],
    )
    out, shapes = shape_infer(graph, (2, 5, 5))
    assert out == (2, 5, 5)
    assert shapes["skip"][0] == (2, 5, 5)


def test_residual_shape_mismatch_names_edge():
    graph = LayerGraph(
        nodes=[
            ("stem", LayerSpec("relu")),
            ("down", LayerSpec("conv2d", in_channels=2, out_channels=2, kernel_size=3,
                               stride=2)),
            ("add", LayerSpec("residual_add")),
        ],
        residual_edges=[("stem", "add")],
    )
    with pytest.raises(GraphValidationError) as exc:
        shape_infer(graph, (2, 6, 6))
    assert exc.value.edge == ("stem", "add")


def test_edges_must_point_forward():
    graph = LayerGraph(
        nodes=[("a", LayerSpec("relu")), ("b", LayerSpec("relu"))],
        residual_edges=[("b", "a")],
    )
    with pytest.raises(GraphValidationError):
        graph.validate()


def test_duplicate_ids_rejected():
    graph = LayerGraph(nodes=[("a", LayerSpec("relu")), ("a", LayerSpec("relu"))])
    with pytest.raises(GraphValidationError):
        graph.validate()


def test_residual_add_needs_an_edge():
    graph = LayerGraph(nodes=[("a", LayerSpec("relu")), ("add", LayerSpec("residual_add"))])
    with pytest.raises(GraphValidationError):
        graph.validate()


def test_graph_json_round_trip():
    graph = build_mobivsr(1)
    assert parse_graph(serialize_graph(graph)) == graph


def test_graph_json_rejects_unknown_schema_version():
    text = serialize_graph(build_mobivsr(1)).replace('"schema_version": 1',
                                                     '"schema_version": 99')
    with pytest.raises(SchemaError):
        parse_graph(text)


def test_graph_json_unknown_kind_names_node():
    text = """
    {"schema_version": 1, "nodes": [{"id": "bad-node", "kind": "gru"}],
     "residual_edges": []}
    """
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert exc.value.node_id == "bad-node"
    assert "bad-node" in str(exc.value)


def test_graph_json_not_json():
    with pytest.raises(SchemaError):
        parse_graph("this is not json {")


def _small_graph_and_weights(seed=0):
    graph = LayerGraph(nodes=[
        ("ds", LayerSpec("ds_conv2d", in_channels=2, out_channels=3, kernel_size=3)),
        ("fc", LayerSpec("fc", in_features=12, out_features=4)),
    ])
    return graph, init_weights(graph, seed=seed)


def test_weights_round_trip_fp32():
    graph, bundle = _small_graph_and_weights()
    blob = serialize_weights(bundle, graph)
    parsed = parse_weights(blob, graph)
    assert parsed == bundle


def test_weights_round_trip_int8():
    _, bundle = _small_graph_and_weights()
    quantized = quantize_weights(bundle)
    parsed = parse_weights(serialize_weights(quantized))
    assert parsed == quantized


def test_weights_payload_size_accounting():
    graph, bundle = _small_graph_and_weights()
    blob = serialize_weights(bundle, graph)
    elements = sum(t.data.size for tensors in bundle.values() for t in tensors.values())
    import json as _json
    import struct

    manifest_len = struct.unpack_from("<I", blob, 6)[0]
    payload_len = len(blob) - 10 - manifest_len
    assert payload_len == 4 * elements

    qblob = serialize_weights(quantize_weights(bundle))
    n_tensors = sum(len(ts) for ts in bundle.values())
    q_manifest_len = struct.unpack_from("<I", qblob, 6)[0]
    assert len(qblob) - 10 - q_manifest_len == elements + 8 * n_tensors


def test_weights_bad_magic():
    with pytest.raises(SchemaError):
        parse_weights(b"NOTMAGIC" + b"\x00" * 32)


def test_weights_truncated_payload_is_bounds_error():
    graph, bundle = _small_graph_and_weights()
    blob = serialize_weights(bundle, graph)
    with pytest.raises(PayloadBoundsError):
        parse_weights(blob[:-8], graph)


def test_weights_manifest_must_match_graph_shapes():
    graph, bundle = _small_graph_and_weights()
    bundle["fc"]["weights"] = Tensor.from_array(np.zeros((5, 12), dtype=np.float32))
    with pytest.raises(SchemaError) as exc:
        serialize_weights(bundle, graph)
    assert exc.value.node_id == "fc"


def test_weights_missing_tensor_detected():
    graph, bundle = _small_graph_and_weights()
    del bundle["ds"]["pointwise"]
    with pytest.raises(SchemaError):
        serialize_weights(bundle, graph)


def test_weight_shapes_cover_all_weighted_kinds():
    spec = LayerSpec("ds_conv3d", in_channels=4, out_channels=6, kernel_size=3,
                     temporal_size=3, pointwise_mode="partial")
    shapes = weight_shapes(spec)
    assert shapes["depthwise"] == (4, 3, 3, 3)
    assert shapes["pointwise"] == (6, 4, 3, 1, 1)
    assert weight_shapes(LayerSpec("relu")) == {}


def test_layer_spec_rejects_an_unknown_padding():
    with pytest.raises(ValueError, match="padding must be 'same' or 'valid', got 'full'"):
        LayerSpec("conv2d", in_channels=1, out_channels=1, kernel_size=3, padding="full")


def test_layer_spec_rejects_an_unknown_pointwise_mode():
    with pytest.raises(ValueError, match="pointwise_mode must be 'partial' or 'full'"):
        LayerSpec("ds_conv3d", in_channels=1, out_channels=1, kernel_size=3,
                  temporal_size=3, pointwise_mode="half")


def test_graph_rejects_a_node_with_two_incoming_edges():
    graph = LayerGraph(nodes=[("a", LayerSpec("relu")), ("b", LayerSpec("relu")),
                              ("c", LayerSpec("relu"))],
                       residual_edges=[("a", "c"), ("b", "c")])
    with pytest.raises(GraphValidationError, match="more than one incoming edge") as exc:
        graph.validate()
    assert exc.value.node_id == "c"


def test_graph_rejects_a_residual_add_as_its_first_node():
    graph = LayerGraph(nodes=[("add", LayerSpec("residual_add")), ("r", LayerSpec("relu"))])
    with pytest.raises(GraphValidationError, match="cannot be the first node") as exc:
        graph.validate()
    assert exc.value.node_id == "add"


def test_spatial_avg_on_a_rank_2_shape_names_the_accepted_ranks():
    with pytest.raises(DimensionMismatch, match="expected >= 3, got 2") as exc:
        layer_output_shape(LayerSpec("spatial_avg"), (4, 5))
    assert exc.value.axis == "rank"


# frontend.ds3d1's (32, 29, 48, 48) fp32 output, the largest activation of
# every MobiVSR-α
DS3D1_BYTES = 32 * 29 * 48 * 48 * 4


def _plans(graph, shape=None):
    """(whole-graph activation plan, tile plan) for ``graph`` on ``shape``."""
    _, shapes = shape_infer(graph, shape or graph.input_shape)
    inputs = node_inputs(graph)
    return plan_activations(graph, shapes, inputs), plan_tiles(graph, shapes, inputs)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_the_mobivsr_arena_is_its_largest_activation(alpha):
    """The front end through s3's first block runs in tiles of 4 frames, and
    its step arena is no larger than the largest activation it holds, relu1's
    window of a tile and the 2 frames before it; past the region nothing is
    planned, as each value there is freed by its last reader. ds1's chain
    writes its tile behind the 2 carried frames, ds3d2 writes over the window
    from its front, and s1's first output lies in the window's consumed
    frames. Whole layers would need an arena of all of ds3d1's output."""
    graph = build_mobivsr(alpha)
    whole, plan = _plans(graph)
    assert whole.arena_bytes == DS3D1_BYTES == 8_552_448
    ids = [node_id for node_id, _ in graph.nodes]
    assert ids[plan.region - 1] == "s3.b1.relu2"
    assert (plan.frames, plan.held) == (4, {"frontend.relu1": 2})
    frame = DS3D1_BYTES // 29
    assert plan.steps.arena_bytes == frame * (4 + 2) == 1_769_472
    slots = plan.steps.slots
    assert slots["frontend.ds3d1"] == slots["frontend.relu1"] == (2 * frame, 4 * frame)
    assert slots["frontend.ds3d2"] == slots["frontend.relu2"] == (0, 2 * frame)
    assert slots["s1.b1.ds1"] == (2 * frame, 2 * frame)
    assert set(slots) <= set(ids[:plan.region - 1])


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_every_mobivsr_slot_starts_a_multiple_of_64_bytes_in(alpha):
    """Every slot offset of the tile plan's step arena, a held node's window
    included, is a multiple of 64 bytes, as is each region value's frame, by
    which a tile's slot moves. That is why one arena base on a cache line
    (``kernels.empty``) puts every slot and tile on one too."""
    graph = build_mobivsr(alpha)
    _, shapes = shape_infer(graph, graph.input_shape)
    plan = plan_tiles(graph, shapes, node_inputs(graph))
    frame = {node_id: 4 * math.prod(shapes[node_id][1]) // graph.input_shape[1]
             for node_id, _ in graph.nodes[:plan.region]}
    assert all(size % 64 == 0 for size in frame.values())
    for node_id, (offset, _) in plan.steps.slots.items():
        assert offset % 64 == 0, node_id
        assert (offset - frame[node_id] * plan.held.get(node_id, 0)) % 64 == 0, node_id
    assert plan.held


def test_ds3d2_writes_over_the_front_half_of_its_input():
    """ds3d2's output takes the offset of relu1's, its dying input, at half the
    size, and s1.b1.ds1, whose input relu2 is held for the block's add, takes
    the back half."""
    graph = build_mobivsr(1)
    slots = _plans(graph)[0].slots
    half = DS3D1_BYTES // 2
    assert slots["frontend.relu1"] == (0, DS3D1_BYTES)
    assert slots["frontend.ds3d2"] == slots["frontend.relu2"] == (0, half)
    assert slots["s1.b1.ds1"] == slots["s1.b1.add"] == (half, half)


def test_an_output_that_grows_gets_a_slot_of_its_own():
    """A separable layer whose output is larger than its dying input cannot
    write over it, and the graph's last node is left to the caller. Greedy by
    size, the larger chain is placed first."""
    graph = LayerGraph(nodes=[
        ("relu", LayerSpec("relu")),
        ("ds", LayerSpec("ds_conv2d", in_channels=2, out_channels=4, kernel_size=3)),
        ("bn", LayerSpec("batchnorm", in_channels=4)),
        ("out", LayerSpec("relu")),
    ])
    plan = _plans(graph, (2, 5, 5))[0]
    small, large = 2 * 25 * 4, 4 * 25 * 4
    assert plan.slots == {"ds": (0, large), "bn": (0, large), "relu": (large, small)}
    assert plan.arena_bytes == small + large


def test_the_tile_plan_reads_shapes_and_edges_not_names():
    """MobiVSR-2 with every node renamed gets the same region, tile and lags:
    ds3d1, bn1 and relu1 lead the rest by ds3d2's reach of 2 frames, and relu1
    holds the 2 frames before a tile that ds3d2's walk reads again."""
    graph = build_mobivsr(2)
    names = {node_id: f"n{i}" for i, (node_id, _) in enumerate(graph.nodes)}
    renamed = LayerGraph(nodes=[(names[n], spec) for n, spec in graph.nodes],
                         residual_edges=[(names[a], names[b]) for a, b in graph.residual_edges])
    plan, plan2 = _plans(graph)[1], _plans(renamed, graph.input_shape)[1]
    assert (plan2.region, plan2.frames) == (plan.region, plan.frames) == (33, 4)
    assert plan2.lags == {names[n]: lag for n, lag in plan.lags.items()}
    assert {n for n, lag in plan.lags.items() if lag} == \
        {"frontend.ds3d1", "frontend.bn1", "frontend.relu1"}
    assert set(plan.lags.values()) == {0, 2}
    assert plan.held == {"frontend.relu1": 2}


def test_a_slim_mobivsr_tiles_up_to_the_first_cut_no_larger_than_its_clip():
    """In the slim plan s2's output is as large as the clip, so the region
    ends with s2's first block: its add's value is no larger, but the relu
    that reads it alone is its tail, and the cut comes after that. Its
    narrower front end takes tiles of 8 frames."""
    from mobivsr.arch import CHANNEL_PLAN_CANDIDATES
    slim = next(p for p in CHANNEL_PLAN_CANDIDATES if p.name == "slim")
    graph = build_mobivsr(3, slim)
    plan = _plans(graph)[1]
    assert graph.nodes[plan.region - 1][0] == "s2.b1.relu2"
    assert plan.frames == 8


def test_no_region_without_frames_to_tile():
    """A rank-3 input has no time axis, and a clip no longer than one tile runs
    whole: the plan then places no value, each freed by its last reader."""
    graph = LayerGraph(nodes=[("ds", LayerSpec("ds_conv2d", in_channels=2, out_channels=4,
                                               kernel_size=3)),
                              ("out", LayerSpec("relu"))])
    for shape in ((2, 5, 5), (2, 5, 5, 5)):
        plan = _plans(graph, shape)[1]
        assert (plan.region, plan.frames) == (0, 0)
        assert (plan.steps.slots, plan.steps.arena_bytes) == ({}, 0)
