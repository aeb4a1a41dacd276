"""run_graph's check pass: the input shape and every node's weights are
checked before the first kernel runs, and a malformed input or bundle ends in
a MobiVSRError naming the node."""

import contextlib
import dataclasses
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mobivsr import (
    DimensionMismatch,
    GraphValidationError,
    LayerGraph,
    LayerSpec,
    MobiVSRError,
    Tensor,
    ValidationError,
    aggregate,
    build_mobivsr,
    counted_forward,
    exact_accesses_of,
    flops_of,
    init_weights,
    layer_output_shape,
    node_inputs,
    params_of,
    plan_activations,
    plan_tiles,
    quantize_weights,
    run_graph,
    shape_infer,
    weight_shapes,
)
from mobivsr import engine, kernels
from mobivsr import graph as graph_module
from mobivsr.costs import COSTED_KINDS
from mobivsr.graph import LAYER_KINDS


def small_graph():
    """Batchnorm, ds_conv2d, a 1x1 conv2d skip into a residual add, and an fc head."""
    nodes = [
        ("bn", LayerSpec("batchnorm", in_channels=2)),
        ("ds", LayerSpec("ds_conv2d", in_channels=2, out_channels=3, kernel_size=3)),
        ("skip", LayerSpec("conv2d", in_channels=2, out_channels=3, kernel_size=1)),
        ("add", LayerSpec("residual_add")),
        ("relu", LayerSpec("relu")),
        ("pool", LayerSpec("spatial_avg")),
        ("fc", LayerSpec("fc", in_features=3, out_features=4)),
        ("softmax", LayerSpec("softmax")),
    ]
    edges = [("bn", "skip"), ("ds", "add")]
    return LayerGraph(nodes=nodes, residual_edges=edges, input_shape=(2, 5, 5))


GRAPHS = {"small": small_graph(), "alpha1": build_mobivsr(1)}
BUNDLES = {name: init_weights(graph, seed=2) for name, graph in GRAPHS.items()}
INPUTS = {name: np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
          for name, graph in GRAPHS.items()}
OUTPUTS = {name: run_graph(graph, BUNDLES[name], INPUTS[name]).output.as_array()
           for name, graph in GRAPHS.items()}


def _with_extent(tensor, axis, extent):
    shape = list(tensor.shape)
    shape[axis] = extent
    codes = np.zeros(int(np.prod(shape)), dtype=tensor.data.dtype)
    return Tensor(shape=tuple(shape), data=codes, quant=tensor.quant)


@st.composite
def mutated_bundle(draw):
    """(graph name, bundle) where the bundle is a copy of a valid one with one
    node or tensor dropped, renamed, resized, swapped for a wrong-rank array,
    or joined by a tensor no kind reads."""
    name = draw(st.sampled_from(sorted(GRAPHS)))
    bundle = {node: dict(tensors) for node, tensors in BUNDLES[name].items()}
    if draw(st.booleans()):
        bundle = quantize_weights(bundle)
    node = draw(st.sampled_from(sorted(bundle)))
    tensors = bundle[node]
    tensor_name = draw(st.sampled_from(sorted(tensors)))
    tensor = tensors[tensor_name]
    mutation = draw(st.sampled_from(["drop node", "drop tensor", "rename", "extent",
                                     "rank", "extra"]))
    if mutation == "drop node":
        del bundle[node]
    elif mutation == "drop tensor":
        del tensors[tensor_name]
    elif mutation == "rename":
        new_name = draw(st.sampled_from(["weights", "depthwise", "pointwise", "mean",
                                         "var", "gamma", "beta", "bias"]))
        tensors[new_name] = tensors.pop(tensor_name)
    elif mutation == "extent":
        axis = draw(st.integers(0, len(tensor.shape) - 1))
        old = tensor.shape[axis]
        new = draw(st.integers(1, old + 3).filter(lambda v: v != old))
        tensors[tensor_name] = _with_extent(tensor, axis, new)
    elif mutation == "rank":
        array = tensor.as_array()
        tensors[tensor_name] = array[..., None] if draw(st.booleans()) else array.ravel()
    else:
        tensors["unused"] = tensor
    return name, bundle


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_bundle())
def test_mutated_bundles_run_identically_or_raise_a_mobivsr_error(case):
    name, bundle = case
    try:
        out = run_graph(GRAPHS[name], bundle, INPUTS[name]).output.as_array()
    except MobiVSRError:
        return
    # only a quantized bundle may change the output, and only an unused tensor
    # leaves a bundle runnable; rerun the unmutated bundle in the same dtype
    quantized = any(t.quant is not None for ts in bundle.values() for t in ts.values()
                    if isinstance(t, Tensor))
    reference = OUTPUTS[name] if not quantized else run_graph(
        GRAPHS[name], quantize_weights(BUNDLES[name]), INPUTS[name]).output.as_array()
    np.testing.assert_array_equal(out, reference)


KERNELS = tuple(name for name in vars(kernels) if name.endswith("_array"))


@contextlib.contextmanager
def counting_kernels(attrs=KERNELS):
    """A list that records each call into the named ``kernels`` functions
    while the context is open."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for attr in attrs:
            original = getattr(kernels, attr)
            mp.setattr(kernels, attr,
                       lambda *a, _f=original, **k: calls.append(_f) or _f(*a, **k))
        yield calls


def test_every_node_is_checked_before_any_kernel():
    graph = small_graph()
    bundle = init_weights(graph, seed=0)
    bundle["fc"]["weights"] = Tensor.from_array(np.zeros((4, 5), dtype=np.float32))
    with counting_kernels(("batchnorm_array", "ds_conv2d_array", "depthwise2d_array",
                           "conv2d_array")) as calls:
        with pytest.raises(MobiVSRError, match="node 'fc'"):
            run_graph(graph, bundle, INPUTS["small"])
        assert calls == []
        bundle["fc"]["weights"] = BUNDLES["small"]["fc"]["weights"]
        run_graph(graph, bundle, INPUTS["small"])
    # bn, ds, the grouped stage inside ds (which runs its pointwise stage), and the skip
    assert len(calls) == 4


@st.composite
def mutated_input_shape(draw):
    """The small graph's (2, 5, 5) input shape with one axis dropped or
    inserted, one extent changed, or one extent set to 0."""
    shape = list(GRAPHS["small"].input_shape)
    axis = draw(st.integers(0, len(shape) - 1))
    mutation = draw(st.sampled_from(["drop axis", "insert axis", "extent", "zero"]))
    if mutation == "drop axis":
        del shape[axis]
    elif mutation == "insert axis":
        shape.insert(axis, draw(st.integers(1, 4)))
    else:
        shape[axis] = 0 if mutation == "zero" else draw(st.integers(1, 8))
    return tuple(shape)


@settings(max_examples=60, deadline=None)
@given(mutated_input_shape())
def test_run_graph_checks_the_input_shape_before_any_kernel(shape):
    graph = GRAPHS["small"]
    with counting_kernels() as calls:
        try:
            out = run_graph(graph, BUNDLES["small"], np.ones(shape, dtype=np.float32)).output
        except MobiVSRError:
            assert calls == []
            with pytest.raises(MobiVSRError):
                shape_infer(graph, shape)
            return
    assert calls
    assert out.shape == shape_infer(graph, shape)[0]


def test_batchnorm_channel_mismatch_fails_before_any_kernel():
    graph = LayerGraph(nodes=[("bn", LayerSpec("batchnorm", in_channels=2))])
    stats = init_weights(graph)["bn"]
    x = np.ones((3, 4, 4), dtype=np.float32)
    with counting_kernels() as calls, pytest.raises(GraphValidationError, match="'bn'") as exc:
        run_graph(graph, {"bn": stats}, x)
    assert exc.value.node_id == "bn"
    assert calls == []
    with pytest.raises(DimensionMismatch) as exc:
        counted_forward(graph.nodes[0][1], x, stats)
    assert exc.value.axis == "channel"


def test_maxpool_shorter_than_window_fails_naming_the_node():
    graph = LayerGraph(nodes=[("pool", LayerSpec("maxpool", window=4, stride=2))])
    with counting_kernels() as calls, pytest.raises(GraphValidationError, match="'pool'") as exc:
        run_graph(graph, {}, np.ones((3, 3), dtype=np.float32))
    assert exc.value.node_id == "pool"
    assert isinstance(exc.value.__cause__, DimensionMismatch)
    assert exc.value.__cause__.axis == "time"
    assert calls == []


def test_zero_extent_input_fails_before_any_kernel():
    with counting_kernels() as calls, pytest.raises(ValidationError, match="positive"):
        run_graph(GRAPHS["small"], BUNDLES["small"], np.ones((0, 4), dtype=np.float32))
    assert calls == []


BAD_INPUTS = {
    "string": ("a clip", "input must hold real numbers"),
    "complex": (np.ones((2, 5, 5), dtype=np.complex64), "input must hold real numbers"),
    "nan": (np.full((2, 5, 5), np.nan, dtype=np.float32), "input holds NaN"),
    "nan tensor": (Tensor.from_array(np.full((2, 5, 5), np.nan, dtype=np.float32)),
                   "input holds NaN"),
    "inf": (np.full((2, 5, 5), np.inf), "input holds NaN"),
    "past fp32": (np.full((2, 5, 5), 1e39), "infinite in fp32"),  # finite in fp64 only
    "ragged": ([[[1.0] * 5] * 5, [[1.0] * 4] * 5], "input is not an array"),
}
# run_graph on the small graph, and counted_forward on its first node
ENTRY_POINTS = {
    "": lambda value: run_graph(GRAPHS["small"], BUNDLES["small"], value),
    "counted_forward ": lambda value: counted_forward(GRAPHS["small"].nodes[0][1], value,
                                                      BUNDLES["small"]["bn"]),
}


@pytest.mark.parametrize("entry,value,match", [
    pytest.param(entry, value, match, id=prefix + name)
    for prefix, entry in ENTRY_POINTS.items() for name, (value, match) in BAD_INPUTS.items()])
def test_run_graph_refuses_an_input_that_is_not_finite_reals_before_any_kernel(entry, value,
                                                                                 match):
    with counting_kernels() as calls, pytest.raises(ValidationError, match=match):
        entry(value)
    assert calls == []


CONV = LayerSpec("conv2d", in_channels=2, out_channels=3, kernel_size=3)
CONV_SHAPE = weight_shapes(CONV)["weights"]
BAD_WEIGHT_ARRAYS = {
    "nan": (np.full(CONV_SHAPE, np.nan, dtype=np.float32), "holds NaN"),
    "inf": (np.where(np.arange(54).reshape(CONV_SHAPE) % 2, np.inf, -np.inf), "holds NaN"),
    "past fp32": (np.full(CONV_SHAPE, 1e300), "infinite in fp32"),  # finite in fp64 only
    "complex": (np.ones(CONV_SHAPE, dtype=np.complex64), "must hold real numbers"),
    "object": (np.ones(CONV_SHAPE).astype(object), "must hold real numbers"),
    "string": (np.full(CONV_SHAPE, "1.5"), "must hold real numbers"),
}
# run_graph on a one-node conv2d graph, and counted_forward on its node: the
# output Tensor given the weight array, and the name a failure starts with
WEIGHT_ENTRY_POINTS = {
    "": (lambda w: run_graph(LayerGraph(nodes=[("c", CONV)]), {"c": {"weights": w}},
                             np.ones((2, 5, 5), dtype=np.float32)).output, "node 'c'"),
    "counted_forward ": (lambda w: counted_forward(CONV, np.ones((2, 5, 5), dtype=np.float32),
                                                   {"weights": w})[0], "conv2d"),
}


@pytest.mark.parametrize("entry,where,value,match", [
    pytest.param(entry, where, value, match, id=prefix + name)
    for prefix, (entry, where) in WEIGHT_ENTRY_POINTS.items()
    for name, (value, match) in BAD_WEIGHT_ARRAYS.items()])
def test_a_weight_array_that_is_not_finite_reals_fails_before_any_kernel(entry, where, value,
                                                                          match):
    """A weight given as an array, not a Tensor, is held to the input's rule:
    real numbers, every one finite in fp32. A failure names the node (or
    kind) and the tensor, and no kernel runs."""
    with counting_kernels() as calls, pytest.raises(ValidationError) as exc:
        entry(value)
    assert calls == []
    assert str(exc.value).startswith(f"{where}: weight tensor 'weights' ")
    assert match in str(exc.value)


@pytest.mark.parametrize("prefix", WEIGHT_ENTRY_POINTS)
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, bool])
def test_int_and_bool_weight_arrays_run_as_their_fp32_values(prefix, dtype):
    entry, _ = WEIGHT_ENTRY_POINTS[prefix]
    codes = (np.arange(54).reshape(CONV_SHAPE) % 3).astype(dtype)
    np.testing.assert_array_equal(entry(codes).as_array(),
                                  entry(codes.astype(np.float32)).as_array())


def test_run_graph_refuses_weights_that_are_not_a_dict_before_any_kernel():
    with counting_kernels() as calls, pytest.raises(ValidationError, match="weights must be"):
        run_graph(GRAPHS["small"], None, INPUTS["small"])
    assert calls == []


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_init_weights_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        init_weights(GRAPHS["small"], seed=seed)
    assert init_weights(GRAPHS["small"], seed=np.int64(2)).keys() == BUNDLES["small"].keys()


# a small layer of every kind but residual_add, which only a graph runs, and
# an input shape it takes
SINGLE_LAYERS = {
    "conv2d": (LayerSpec("conv2d", in_channels=2, out_channels=3, kernel_size=3, stride=2),
               (2, 3, 5, 5)),
    "conv3d": (LayerSpec("conv3d", in_channels=2, out_channels=3, kernel_size=3,
                         temporal_size=2), (2, 4, 5, 5)),
    "ds_conv2d": (LayerSpec("ds_conv2d", in_channels=2, out_channels=3, kernel_size=3),
                  (2, 6, 6)),
    "ds_conv3d": (LayerSpec("ds_conv3d", in_channels=2, out_channels=3, kernel_size=3,
                            temporal_size=2, stride=2), (2, 4, 6, 6)),
    "temporal_conv1d": (LayerSpec("temporal_conv1d", in_channels=3, out_channels=4,
                                  kernel_size=3), (3, 7)),
    "fc": (LayerSpec("fc", in_features=5, out_features=3), (5,)),
    "maxpool": (LayerSpec("maxpool", window=2, stride=2), (3, 8)),
    "relu": (LayerSpec("relu"), (2, 4, 4)),
    "batchnorm": (LayerSpec("batchnorm", in_channels=2), (2, 4, 4)),
    "softmax": (LayerSpec("softmax"), (6,)),
    "spatial_avg": (LayerSpec("spatial_avg"), (2, 3, 4, 4)),
    "temporal_avg": (LayerSpec("temporal_avg"), (3, 6)),
}


@pytest.mark.parametrize("dtype", ["fp32", "int8"])
@pytest.mark.parametrize("kind", sorted(set(LAYER_KINDS) - {"residual_add"}))
def test_counted_forward_equals_a_counted_one_node_graph(kind, dtype):
    spec, in_shape = SINGLE_LAYERS[kind]
    graph = LayerGraph(nodes=[("n", spec)])
    bundle = init_weights(graph, seed=4)
    if dtype == "int8":
        bundle = quantize_weights(bundle)
    x = np.random.default_rng(5).normal(size=in_shape).astype(np.float32)
    out, ledger = counted_forward(spec, x, bundle.get("n"))
    result = run_graph(graph, bundle, x, counted=True)
    assert out.shape == result.output.shape
    assert out.as_array().tobytes() == result.output.as_array().tobytes()
    assert ledger == result.ledger


def test_residual_add_cannot_run_standalone():
    with pytest.raises(ValidationError, match="standalone"):
        counted_forward(LayerSpec("residual_add"), np.ones(3, dtype=np.float32))


def test_wrong_kernel_size_is_a_dimension_mismatch_naming_the_node():
    graph = LayerGraph(nodes=[
        ("c", LayerSpec("conv2d", in_channels=1, out_channels=3, kernel_size=3)),
    ])
    five = Tensor.from_array(np.ones((3, 1, 5, 5), dtype=np.float32))
    with pytest.raises(DimensionMismatch, match="node 'c'") as exc:
        run_graph(graph, {"c": {"weights": five}}, np.ones((1, 6, 6), dtype=np.float32))
    assert exc.value.axis == "weights"
    assert exc.value.expected == (3, 1, 3, 3)


def test_counted_forward_rejects_a_scalar_value():
    with pytest.raises(ValidationError, match="relu cannot take a rank 0 value"):
        counted_forward(LayerSpec("relu"), np.float32(1))


def test_an_alpha_1_pass_peaks_at_two_front_end_activations_and_2_mib():
    """frontend.bn1 holds the (32, 29, 48, 48) activation and its own output,
    the floor of an out-of-place elementwise node. No other node of the pass,
    its kernels' scratch included, may hold more than 2 MiB beyond it."""
    activation = 32 * 29 * 48 * 48 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_graph(GRAPHS["alpha1"], BUNDLES["alpha1"], INPUTS["alpha1"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * activation + 2 * 1024 * 1024


# frontend.ds3d2's (32, 29, 48, 48) input and (64, 29, 24, 24) output, both
# live when the output goes to a buffer of its own; run_graph's plan now
# writes the output over the input, so this bound is no longer tight
DS3D2_FLOOR = (32 * 29 * 48 * 48 + 64 * 29 * 24 * 24) * 4


def _run_graph_peak(graph, bundle, x, **kwargs) -> int:
    """The bytes run_graph allocates at its peak, beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_graph(graph, bundle, x, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_an_alpha_1_pass_peaks_at_the_ds3d2_floor_and_2_mib():
    """With relu and batchnorm run in place on owned values and each separable
    layer's mid built one block at a time, no node of the pass, its kernels'
    scratch included, holds more than 2 MiB beyond ds3d2's input and output."""
    peak = _run_graph_peak(GRAPHS["alpha1"], BUNDLES["alpha1"], INPUTS["alpha1"])
    assert peak <= DS3D2_FLOOR + 2 * 1024 * 1024


def test_an_alpha_4_int8_pass_peaks_at_the_ds3d2_floor_and_2_mib():
    """The same bound holds for a counted α=4 pass on int8 weights, whose
    nodes also hold their dequantized fp32 weights while they run."""
    graph = build_mobivsr(4)
    bundle = quantize_weights(init_weights(graph, seed=2))
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    assert _run_graph_peak(graph, bundle, x, counted=True) <= DS3D2_FLOOR + 2 * 1024 * 1024


def _region_bytes(graph, shape) -> int:
    """The bytes the tiled region of ``graph`` holds through its steps: the step
    arena, the frames each held node carries from step to step and the
    region's whole output."""
    _, shapes = shape_infer(graph, shape)
    plan = plan_tiles(graph, shapes, node_inputs(graph))
    frame = {node_id: 4 * math.prod(shapes[node_id][1]) // shape[1]
             for node_id, _ in graph.nodes[:plan.region]}
    last = graph.nodes[plan.region - 1][0]
    return plan.steps.arena_bytes + frame[last] * shape[1] + sum(
        frame[node_id] * hold for node_id, hold in plan.held.items())


def test_an_alpha_1_pass_peaks_at_its_arena_and_2_mib():
    """The region runs in tiles of frames, through s3's first block, and the
    rest on an arena no larger than the region's output, so no node of the
    pass, its kernels' scratch included, holds more than 2 MiB beyond the
    region's step arena, carried frames and output: 5.31 MB (5.48 MB on a
    first pass, which builds the kernels' geometry) against 10.17 MB for
    whole layers. The pass stays under 5.6 MB."""
    graph = GRAPHS["alpha1"]
    peak = _run_graph_peak(graph, BUNDLES["alpha1"], INPUTS["alpha1"])
    assert peak <= _region_bytes(graph, graph.input_shape) + 2 * 1024 * 1024
    assert peak <= 5.6e6


def test_an_alpha_4_int8_pass_peaks_at_its_arena_2_mib_and_one_weight_block():
    """A counted α=4 pass on int8 weights holds no node's dequantized fp32
    weights past its call, a region node's included: each tile dequantizes
    them again. The backend's temporal convs, whose fp32 weights would take
    3.15 and 6.29 MB, are dequantized one block of at most 1 MiB at a time,
    so beside the region's buffers and 2 MiB of scratch the pass holds about
    one such block of weights. It stays under 5.75 MB: 5.37 MB (5.58 MB on a
    first pass, which builds the kernels' geometry), where holding the
    region's weights and tconv2's whole took 7.16 MB."""
    graph = build_mobivsr(4)
    bundle = quantize_weights(init_weights(graph, seed=2))
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    peak = _run_graph_peak(graph, bundle, x, counted=True)
    assert peak <= _region_bytes(graph, graph.input_shape) + 2 * 1024 * 1024 \
        + kernels._COPY_BYTES
    assert peak <= 5.75e6


def test_a_large_int8_temporal_conv_is_dequantized_in_blocks_of_at_most_1_mib():
    """MobiVSR's tconv2 on int8 weights, whose fp32 form takes 6.29 MB, is
    dequantized and contracted in 7 even blocks of output channels, none
    over kernels._COPY_BYTES, each block's call tallying its own weights: the
    output is within 1e-5 of one call on the whole dequantized weights, and
    the ledger equal to it, every weight read once."""
    spec = LayerSpec("temporal_conv1d", in_channels=512, out_channels=1024, kernel_size=3)
    g = np.random.default_rng(7)
    weights = quantize_weights({"t": {"weights": Tensor.from_array(
        g.normal(0, 0.03, size=weight_shapes(spec)["weights"]))}})["t"]
    x = g.random((512, 14), dtype=np.float32)
    sizes, conv1d = [], kernels.conv1d_array
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "conv1d_array",
                   lambda v, w, *args: sizes.append(w.size) or conv1d(v, w, *args))
        out, ledger = counted_forward(spec, x, weights)
    want, want_ledger = counted_forward(spec, x, {"weights": weights["weights"].as_array()})
    assert len(sizes) == 7 and sum(sizes) == 1024 * 512 * 3
    assert 4 * max(sizes) <= kernels._COPY_BYTES
    assert np.abs(out.as_array() - want.as_array()).max() <= 1e-5 * np.abs(want.as_array()).max()
    assert ledger == want_ledger and ledger.param_reads == 1024 * 512 * 3


@pytest.mark.parametrize("alpha, int8", [(1, False), (4, True)])
def test_the_regions_buffers_are_freed_before_the_rest_needs_their_memory(alpha, int8):
    """When the first node past the tiled region calls forward_layer, the
    step arena and every carried-frame buffer kernels.empty made for the
    region are freed, and the region's output is freed by the first call
    after its last reader: no tile, window or loop variable keeps them. So
    is every value made past the region: no arena or view holds it after
    its last reader."""
    graph = build_mobivsr(alpha)
    bundle = init_weights(graph, seed=2)
    bundle = quantize_weights(bundle) if int8 else bundle
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    total = graph.input_shape[1]
    _, shapes = shape_infer(graph, graph.input_shape)
    inputs = node_inputs(graph)
    plan = plan_tiles(graph, shapes, inputs)
    ids, kinds = list(inputs), dict(graph.nodes)
    frame = {node_id: math.prod(shapes[node_id][1]) // total for node_id in ids[:plan.region]}
    end = ids[plan.region - 1]
    # the nodes past the region that call forward_layer, in the order they run
    fused = {t for tails in _tails_of(graph).values() for t in tails}
    callers = [node_id for node_id in ids[plan.region:]
               if node_id not in fused and kinds[node_id].kind != "residual_add"]
    # so every value past the region is made by a call and its chain's tails
    assert len(callers) == len([n for n in ids[plan.region:] if n not in fused])
    last = graph_module.last_reads(inputs)
    after = next(i for i, node_id in enumerate(callers) if ids.index(node_id) > last[end])
    # {index of a call past the region: element counts of buffers freed by then}
    freed = {0: [plan.steps.arena_bytes // 4, *(frame[node_id] * hold
                                                 for node_id, hold in plan.held.items())],
             after: [frame[end] * total]}
    region_specs = {id(spec) for _, spec in graph.nodes[:plan.region]}
    made, calls = {}, []  # {element count: weakrefs to the buffers made before the first call}
    past_values = []  # (index of its last reader, weakref to its buffer) per value made past it
    tails = _tails_of(graph)
    empty, forward_layer = kernels.empty, engine.forward_layer

    def recording_empty(shape, dtype=np.float32):
        a = empty(shape, dtype)
        if not calls:
            made.setdefault(a.size, []).append(weakref.ref(a.base))
        return a

    def layer(spec, v, weights, ledger=None):
        calls.append(id(spec) not in region_specs)
        if not calls[-1]:
            return forward_layer(spec, v, weights, ledger)
        past = calls.count(True) - 1
        for size in freed.get(past, ()):
            assert made[size] and all(ref() is None for ref in made[size]), (past, size)
        at = ids.index(callers[past])
        alive = [ids[reader] for reader, ref in past_values if reader < at and ref() is not None]
        assert not alive, (callers[past], alive)
        out = forward_layer(spec, v, weights, ledger)
        result = [callers[past], *tails.get(callers[past], ())][-1]
        if result in last:  # the graph's output has no reader
            past_values.append((last[result], weakref.ref(out if out.base is None else out.base)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "empty", recording_empty)
        mp.setattr(engine, "forward_layer", layer)
        run_graph(graph, bundle, x, counted=int8)
    assert calls.count(True) == len(callers) > after
    assert len(past_values) == len(callers) - 1


ELEMENTWISE = ("relu", "batchnorm")
KINDS = ELEMENTWISE + ("ds_conv2d", "ds_conv3d", "residual_add")


def _spec(draw, kind, in_shape):
    """A ``kind`` layer that takes a value of ``in_shape`` (C, L, H, W). A
    third of the convolutions keep their input's shape, so that a
    residual_add after one can add its input and fuse into it."""
    c = in_shape[0]
    if kind == "relu":
        return LayerSpec("relu")
    if kind == "batchnorm":
        return LayerSpec("batchnorm", in_channels=c)
    conv = {"in_channels": c, "out_channels": draw(st.integers(1, 4)),
            "kernel_size": draw(st.sampled_from((1, 3))), "stride": draw(st.integers(1, 2)),
            "padding": draw(st.sampled_from(("same", "valid")))}
    if draw(st.integers(0, 2)) == 0:
        conv.update(out_channels=c, stride=1, padding="same")
    if kind == "ds_conv3d":
        conv.update(temporal_size=draw(st.integers(1, 3)),
                    pointwise_mode=draw(st.sampled_from(("partial", "full"))))
    spec = LayerSpec(kind, **conv)
    try:
        layer_output_shape(spec, in_shape)
    except DimensionMismatch:  # too short for a valid window
        spec = dataclasses.replace(spec, padding="same")
    return spec


@st.composite
def elementwise_graphs(draw):
    """(graph, bundle, input) for a chain of 2 to 7 relu, batchnorm, ds_conv2d,
    ds_conv3d and residual_add nodes on a (C, L, H, W) input, at stride 1 and
    2 and both paddings. A residual_add adds an earlier output of the same
    shape. Right after a separable convolution whose shape an earlier output
    has, half the nodes are such an add, which fuses into the convolution
    unless a later node also reads it. Any other node after the first two
    may take an earlier output as its input instead of the last one. Batchnorm statistics and the input are random,
    so that a write into a value shows."""
    shape = input_shape = tuple(draw(st.integers(1, n)) for n in (3, 4, 6, 6))
    nodes, edges, shapes = [], [], []
    for i in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(KINDS if i else ELEMENTWISE))
        same = [j for j in range(i - 1) if shapes[j] == shapes[-1]]
        if same and nodes[-1][1].kind in ("ds_conv2d", "ds_conv3d") and draw(st.booleans()):
            kind = "residual_add"
        if kind == "residual_add" and not same:
            kind = "relu"
        if kind == "residual_add":
            edges.append((f"n{draw(st.sampled_from(same))}", f"n{i}"))
            spec = LayerSpec("residual_add")
        else:
            if i > 1 and draw(st.booleans()):
                src = draw(st.integers(0, i - 2))
                edges.append((f"n{src}", f"n{i}"))
                shape = shapes[src]
            spec = _spec(draw, kind, shape)
            shape = layer_output_shape(spec, shape)
        nodes.append((f"n{i}", spec))
        shapes.append(shape)
    graph = LayerGraph(nodes=nodes, residual_edges=edges)
    g = np.random.default_rng(draw(st.integers(0, 2**16)))
    bundle = init_weights(graph, seed=1)
    for node_id, spec in nodes:
        if spec.kind == "batchnorm":
            stats = {name: g.normal(size=spec.in_channels).astype(np.float32)
                     for name in ("mean", "var", "gamma", "beta")}
            stats["var"] = np.abs(stats["var"])
            bundle[node_id] = {name: Tensor.from_array(a) for name, a in stats.items()}
    return graph, bundle, g.normal(size=input_shape).astype(np.float32)


@settings(max_examples=200, deadline=None)
@given(case=elementwise_graphs())
def test_planned_slots_live_together_never_overlap(case):
    """plan_activations places every node of these graphs but the last, whose
    output the caller owns, in an arena no smaller than the largest of them.
    Two outputs live at the same node lie in disjoint bytes, unless the later
    one was written over the earlier, its input, which dies there and is no
    smaller."""
    graph, _, x = case
    _, shapes = shape_infer(graph, x.shape)
    plan = plan_activations(graph, shapes, node_inputs(graph))
    ids = [node_id for node_id, _ in graph.nodes]
    assert set(plan.slots) == set(ids[:-1])
    sizes = {node_id: 4 * math.prod(shapes[node_id][1]) for node_id in ids}
    assert plan.arena_bytes >= max((sizes[n] for n in ids[:-1]), default=0)
    incoming = {dst: src for src, dst in graph.residual_edges}
    # the inputs of each node, in order: its main input, then a residual_add's addend
    reads = []
    for i, (node_id, spec) in enumerate(graph.nodes):
        src = incoming.get(node_id)
        main = src if src is not None and spec.kind != "residual_add" else ids[i - 1] if i else None
        reads.append({main, src} - {None})
    life = {n: (i, max([i] + [j for j, r in enumerate(reads) if n in r])) for i, n in enumerate(ids)}
    for node_id, (offset, size) in plan.slots.items():
        assert size == sizes[node_id] and 0 <= offset <= plan.arena_bytes - size
    for a, b in itertools.combinations(plan.slots, 2):
        (oa, na), (ob, nb) = plan.slots[a], plan.slots[b]
        if life[a][1] < life[b][0] or life[b][1] < life[a][0]:
            continue
        over = life[a][1] == life[b][0] and a in reads[life[b][0]] and ob == oa and nb <= na
        assert over or oa + na <= ob or ob + nb <= oa, (a, b)


@settings(max_examples=200, deadline=None)
@given(case=elementwise_graphs(), as_tensor=st.booleans())
def test_in_place_elementwise_nodes_write_only_values_run_graph_owns(case, as_tensor):
    """run_graph follows its plan without writing a value before its last
    reader has read it: every value a node reads, a fused residual_add's
    addend included, is still the one its node made, and the caller's array
    or Tensor is left as it was. With keep_outputs no value is written after
    it is made, and the planned run's output and ledger equal the kept run's
    bit for bit. A fused chain runs right after its producer's call, on that
    call's value, which is then bit for bit the kept run's value of the
    chain's last node."""
    graph, bundle, x = case
    value = Tensor.from_array(x.copy()) if as_tensor else x.copy()
    forward_layer, add_array, run_tail = engine.forward_layer, kernels.add_array, engine._tail

    def run(**kwargs):
        """The result, and [output, its copy] per node run, in node order; a
        forward_layer call's output is copied once the tail that runs on it
        after the call, if any, has run."""
        made = []

        def unchanged(*values):
            for v in values:
                for out, copy in made:
                    if v is out:
                        assert np.array_equal(v, copy)

        def layer(spec, v, weights, ledger=None):
            unchanged(v)
            out = forward_layer(spec, v, weights, ledger)
            made.append([out, None])
            return out

        def tail(out, parts, read):
            # every fused residual_add's addend is still the value its node made
            unchanged(*(read(addend) for _, addend in parts if addend is not None))
            run_tail(out, parts, read)
            made[-1][1] = out.copy()

        def add(v, w, out=None):
            unchanged(v, w)
            out = add_array(v, w, out=out)
            made.append([out, out.copy()])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "forward_layer", layer)
            mp.setattr(engine, "_tail", tail)
            mp.setattr(kernels, "add_array", add)
            return run_graph(graph, bundle, value, counted=True, **kwargs), made

    kept, kept_made = run(keep_outputs=True)
    assert all(np.array_equal(out, copy) for out, copy in kept_made)
    got, made = run()
    assert got.output.as_array().tobytes() == kept.output.as_array().tobytes()
    assert got.ledger == kept.ledger
    assert np.array_equal(value.as_array() if as_tensor else value, x)
    # these graphs run whole: one call per node that is not a fused tail, in order
    tails = _tails_of(graph)
    ran = [node_id for node_id, _ in graph.nodes
           if node_id not in {t for chain in tails.values() for t in chain}]
    assert len(made) == len(ran)
    for node_id, (_, copy) in zip(ran, made):
        last = tails.get(node_id, [node_id])[-1]
        assert _bits(copy) == _bits(np.ascontiguousarray(kept.node_outputs[last]))


PER_FRAME = ("relu", "batchnorm", "ds_conv2d", "conv2d", "residual_add")


@st.composite
def tiled_graphs(draw):
    """(graph, bundle, input, tile frames) for 1 or 2 ds_conv3d or conv3d
    layers (T 1 or 3, partial or full pointwise, stride 1 or 2) on a (1, L,
    H, W) clip of 1 to 12 frames, then up to 5 per-frame layers, a residual
    add joining an earlier output of the same shape and any layer after the
    second maybe reading an earlier output instead of the last; half of the
    graphs end in a spatial_avg, which leaves the rank-4 region. Every
    convolution has same or valid padding; a graph whose valid padding meets
    an extent shorter than its kernel is not drawn. The first layer widens
    the clip, so most graphs have a region. Half the per-frame convolutions
    take as many output channels as make their value exactly the clip's
    size, where one count does: the boundary of ``plan_tiles``' rule, whose
    region ends at the first cut no larger than the clip."""
    shape = input_shape = (1, draw(st.integers(1, 12)), *(draw(st.integers(3, 7)),) * 2)
    nodes, edges, shapes = [], [], []
    temporal = draw(st.integers(1, 2))
    for i in range(temporal + draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("ds_conv3d", "conv3d") if i < temporal else PER_FRAME))
        same = [j for j in range(i - 1) if shapes[j] == shapes[-1]]
        if kind == "residual_add" and not same:
            kind = "relu"
        if kind == "residual_add":
            edges.append((f"n{draw(st.sampled_from(same))}", f"n{i}"))
            spec = LayerSpec("residual_add")
        else:
            if i > 1 and draw(st.booleans()):
                src = draw(st.integers(0, i - 2))
                edges.append((f"n{src}", f"n{i}"))
                shape = shapes[src]
            if kind in ("relu", "batchnorm"):
                spec = LayerSpec(kind, in_channels=shape[0]) if kind == "batchnorm" \
                    else LayerSpec("relu")
            else:
                conv = {"in_channels": shape[0], "out_channels": draw(st.integers(2, 4)),
                        "kernel_size": draw(st.sampled_from((1, 3))),
                        "stride": 1 if i == 0 else draw(st.integers(1, 2)),
                        "padding": draw(st.sampled_from(("same", "valid")))}
                if kind in ("ds_conv3d", "conv3d"):
                    conv["temporal_size"] = draw(st.sampled_from((1, 3, 3)))
                if kind == "ds_conv3d":
                    conv["pointwise_mode"] = draw(st.sampled_from(("partial", "full")))
                spec = LayerSpec(kind, **conv)
            try:
                shape = layer_output_shape(spec, shape)
            except DimensionMismatch:  # out_extent: valid padding past the extent
                assume(False)
            fit, frame = divmod(math.prod(input_shape), math.prod(shape[1:]))
            if kind in ("conv2d", "ds_conv2d") and not frame and draw(st.booleans()):
                spec = dataclasses.replace(spec, out_channels=fit)
                shape = (fit, *shape[1:])
        nodes.append((f"n{i}", spec))
        shapes.append(shape)
    if draw(st.booleans()):
        nodes.append(("avg", LayerSpec("spatial_avg")))
    graph = LayerGraph(nodes=nodes, residual_edges=edges)
    x = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=input_shape)
    return graph, init_weights(graph, seed=1), x.astype(np.float32), draw(st.integers(1, 4))


@contextlib.contextmanager
def _tiles_of(frames, shapes):
    """The tile budget shrunk to ``frames`` frames of the widest rank-4 value
    among ``shapes`` ({node id: (in, out)}) while the context is open."""
    widest = max(4 * math.prod(out) // out[1] for _, out in shapes.values() if len(out) == 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_TILE_BYTES", frames * widest)
        yield


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tiled_graphs())
def test_a_tiled_pass_equals_whole_layers(case):
    """With the tile budget shrunk to a few frames of the widest value, a
    graph whose region spans more than one tile runs in tiles: its output is
    within 1e-5 of whole layers', and its counted ledger equal. keep_outputs
    still runs whole layers and returns every node's whole output."""
    graph, bundle, x, frames = case
    _, shapes = shape_infer(graph, x.shape)
    with _tiles_of(frames, shapes):
        plan = plan_tiles(graph, shapes, node_inputs(graph))
        assert not plan.region or frames <= plan.frames < x.shape[1]
        tiled = run_graph(graph, bundle, x, counted=True)
        kept = run_graph(graph, bundle, x, counted=True, keep_outputs=True)
    whole = kept.output.as_array()
    assert np.abs(tiled.output.as_array() - whole).max() <= 1e-5 * max(1.0, np.abs(whole).max())
    assert tiled.ledger == kept.ledger
    assert list(kept.node_outputs) == [node_id for node_id, _ in graph.nodes]
    for node_id, value in kept.node_outputs.items():
        assert value.shape == shapes[node_id][1]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tiled_graphs())
def test_every_costed_node_counts_its_exact_closed_forms(case):
    """On every costed node, at every stride and padding, counted_forward on
    the node's keep_outputs input gives shape_infer's output shape, and a
    ledger whose accesses are exact_accesses_of and whose FLOPs are
    flops_of; a tiled counted pass's ledger equals their sums."""
    graph, bundle, x, frames = case
    _, shapes = shape_infer(graph, x.shape)
    inputs = node_inputs(graph)
    values = {None: x, **run_graph(graph, bundle, x, keep_outputs=True).node_outputs}
    accesses = flops = 0
    for node_id, spec in graph.nodes:
        if spec.kind not in COSTED_KINDS:
            continue
        in_shape, out_shape = shapes[node_id]
        out, ledger = counted_forward(spec, values[inputs[node_id][0]], bundle[node_id])
        assert out.shape == out_shape
        assert ledger.memory_accesses() == exact_accesses_of(spec, in_shape)
        assert ledger.flops() == flops_of(spec, in_shape)
        accesses, flops = accesses + ledger.memory_accesses(), flops + ledger.flops()
    with _tiles_of(frames, shapes):
        tiled = run_graph(graph, bundle, x, counted=True)
    assert (tiled.ledger.memory_accesses(), tiled.ledger.flops()) == (accesses, flops)


def _tails_of(graph) -> dict:
    """{head id: [tail ids]}: the nodes run_graph runs in place on a node's
    output, right after its call."""
    return graph_module.fused_tails(graph, node_inputs(graph))


@contextlib.contextmanager
def _unfused():
    """run_graph with no node fused while the context is open."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "fused_tails", lambda graph, inputs: {})
        yield


def _layer_calls(graph, bundle, x, **kwargs):
    """The result of run_graph and how many forward_layer calls it made."""
    calls, forward_layer = [], engine.forward_layer
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "forward_layer",
                   lambda *args: calls.append(args[0]) or forward_layer(*args))
        return run_graph(graph, bundle, x, **kwargs), len(calls)


def _chain_graph(edges):
    """A 1x1 conv2d between a relu and two elementwise nodes, the last a
    residual_add with ``edges`` or else a relu, on a (2, 4, 4) frame."""
    add = any(dst == "n3" for _, dst in edges)
    nodes = [("n0", LayerSpec("relu")),
             ("n1", LayerSpec("conv2d", in_channels=2, out_channels=2, kernel_size=1)),
             ("n2", LayerSpec("batchnorm", in_channels=2)),
             ("n3", LayerSpec("residual_add" if add else "relu"))]
    graph = LayerGraph(nodes=nodes, residual_edges=edges, input_shape=(2, 4, 4))
    x = np.random.default_rng(5).normal(size=(2, 4, 4)).astype(np.float32)
    return graph, init_weights(graph, seed=4), x


@pytest.mark.parametrize("edges,tails", [
    ([], {"n1": ["n2", "n3"]}),
    ([("n1", "n3")], {"n2": ["n3"]}),  # n1's value has a second reader: n3
    ([("n0", "n2")], {"n2": ["n3"]}),  # n2 reads n0, not the value before it
])
def test_a_producer_whose_value_has_a_second_reader_is_not_fused(edges, tails):
    """A tail node reads the value just before it, which nothing else reads:
    a batchnorm after a correlation whose value another node also reads, or
    that reads another value, runs on its own, and heads a chain of its own
    with the node after it; the pass equals an unfused one bit for bit,
    ledger included."""
    graph, bundle, x = _chain_graph(edges)
    assert _tails_of(graph) == tails
    got, calls = _layer_calls(graph, bundle, x, counted=True)
    with _unfused():
        plain, plain_calls = _layer_calls(graph, bundle, x, counted=True)
    assert _bits(got.output.as_array()) == _bits(plain.output.as_array())
    assert got.ledger == plain.ledger
    # a residual_add makes no forward_layer call, fused or not
    kinds = dict(graph.nodes)
    assert calls == plain_calls - sum(kinds[t].kind != "residual_add"
                                      for chain in tails.values() for t in chain)


@pytest.mark.parametrize("source,tails", [
    ("n0", {"n1": ["n2", "n3"]}),  # made before the producer n1
    ("n2", {"n1": ["n2"]}),  # n2 is made after n1
])
def test_an_add_fuses_only_when_its_addend_is_made_before_the_producer(source, tails):
    """A residual_add joins its producer's chain only when its addend exists
    before the producer runs; either way the output and ledger equal an
    unfused pass's, bit for bit."""
    graph, bundle, x = _chain_graph([(source, "n3")])
    assert _tails_of(graph) == tails
    got = run_graph(graph, bundle, x, counted=True)
    with _unfused():
        plain = run_graph(graph, bundle, x, counted=True)
    assert _bits(got.output.as_array()) == _bits(plain.output.as_array())
    assert got.ledger == plain.ledger


def test_renaming_every_node_leaves_the_fused_set_and_the_output_unchanged():
    """The fusion rule reads the graph's dataflow, never its node ids: MobiVSR-1
    with every node renamed fuses the same nodes, 18 of its 40, and gives the
    same output bytes."""
    graph = GRAPHS["alpha1"]
    names = {node_id: f"v{len(graph.nodes) - i}" for i, (node_id, _) in enumerate(graph.nodes)}
    renamed = LayerGraph(nodes=[(names[node_id], spec) for node_id, spec in graph.nodes],
                         residual_edges=[(names[a], names[b]) for a, b in graph.residual_edges],
                         input_shape=graph.input_shape)
    bundle = {names[node_id]: tensors for node_id, tensors in BUNDLES["alpha1"].items()}
    tails = _tails_of(graph)
    assert sum(map(len, tails.values())) == 19
    assert _tails_of(renamed) == {names[p]: [names[t] for t in chain] for p, chain in tails.items()}
    assert _bits(run_graph(renamed, bundle, INPUTS["alpha1"]).output.as_array()) \
        == _bits(OUTPUTS["alpha1"])


def test_keep_outputs_runs_and_returns_every_node_fused_ones_included():
    """keep_outputs fuses nothing: every node of MobiVSR-1, each tail node
    included, runs on its own, a residual_add through add_array and every
    other node through a forward_layer call of its own, and is returned;
    its output equals a fused pass's bit for bit."""
    graph = GRAPHS["alpha1"]
    calls, forward_layer, add_array = [], engine.forward_layer, kernels.add_array
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "forward_layer", lambda spec, *args: calls.append(spec.kind)
                   or forward_layer(spec, *args))
        mp.setattr(kernels, "add_array", lambda *args, **kwargs: calls.append("residual_add")
                   or add_array(*args, **kwargs))
        kept = run_graph(graph, BUNDLES["alpha1"], INPUTS["alpha1"], keep_outputs=True)
    assert list(kept.node_outputs) == [node_id for node_id, _ in graph.nodes]
    assert calls == [spec.kind for _, spec in graph.nodes]
    assert _bits(kept.output.as_array()) == _bits(OUTPUTS["alpha1"])


_CONV3 = {"in_channels": 3, "out_channels": 3, "kernel_size": 3}
_RELU = LayerSpec("relu")
_WIDEN = LayerSpec("conv3d", in_channels=2, out_channels=3, kernel_size=1, temporal_size=1)
# per head: the node before it, whose value the tail's add adds (None: the
# head reads the graph input, and its tail has no add); the head, a stride-1
# same correlation of 3 channels or a kind that is none; the input's shape;
# the frames of a tile (0: whole layers); and maybe a side node, which reads
# the node before the head and makes the add's addend in the head's shape,
# the head then reading that node through an edge. A residual_add head adds
# the node before it to itself, so that value has a second reader and the
# head is no tail of it. The tiled cases' first node widens the clip, so
# that their graphs have a region.
TAIL_PRODUCERS = {
    "conv2d": (_RELU, LayerSpec("conv2d", **_CONV3), (3, 6, 6), 0),
    "conv2d per frame": (_RELU, LayerSpec("conv2d", **_CONV3), (3, 5, 6, 6), 0),
    "ds_conv2d": (_RELU, LayerSpec("ds_conv2d", **_CONV3), (3, 5, 6, 6), 0),
    "conv3d": (_RELU, LayerSpec("conv3d", **_CONV3, temporal_size=3), (3, 5, 6, 6), 0),
    "ds_conv3d partial": (_RELU, LayerSpec("ds_conv3d", **_CONV3, temporal_size=3),
                          (3, 5, 6, 6), 0),
    "ds_conv3d full": (_RELU, LayerSpec("ds_conv3d", **_CONV3, temporal_size=3,
                                        pointwise_mode="full"), (3, 5, 6, 6), 0),
    "temporal_conv1d": (_RELU, LayerSpec("temporal_conv1d", **_CONV3), (3, 7), 0),
    "ds_conv3d tiled": (_WIDEN, LayerSpec("ds_conv3d", **_CONV3, temporal_size=3),
                        (2, 9, 6, 6), 2),
    "fc": (_RELU, LayerSpec("fc", in_features=3, out_features=3), (3,), 0),
    "maxpool": (_RELU, LayerSpec("maxpool", window=2), (3, 8), 0, LayerSpec("maxpool", window=2)),
    "spatial_avg": (_RELU, LayerSpec("spatial_avg"), (3, 5, 6, 6), 0, LayerSpec("spatial_avg")),
    "relu on the graph input": (None, _RELU, (3, 6, 6), 0),
    "residual_add": (_RELU, LayerSpec("residual_add"), (3, 5, 6, 6), 0),
    "residual_add tiled": (_WIDEN, LayerSpec("residual_add"), (2, 9, 6, 6), 2),
}


def _tail_graph(name):
    """The graph of TAIL_PRODUCERS[name], whose head is node "conv", and the
    chain its head leads: a batchnorm, a relu and, after a stem, an add."""
    stem, spec, shape, _, *side = TAIL_PRODUCERS[name]
    chain = ["bn", "act", "add"] if stem else ["bn", "act"]
    nodes = [("stem", stem)] if stem else []
    nodes += [("side", node) for node in side]
    nodes += [("conv", spec), ("bn", LayerSpec("batchnorm", in_channels=3)), ("act", _RELU)]
    edges = [("stem", "conv")] if side or spec.kind == "residual_add" else []
    if stem:
        nodes.append(("add", LayerSpec("residual_add")))
        edges.append(("side" if side else "stem", "add"))
    return LayerGraph(nodes=nodes, residual_edges=edges, input_shape=shape), chain


@pytest.mark.parametrize("name", TAIL_PRODUCERS)
def test_a_batchnorm_relu_add_tail_equals_the_unfused_pass_after_each_producer(name):
    """A batchnorm, a relu and a residual_add after each kind of head, a
    correlation or not, run as its tail, in place on its output after its
    call, and the counted pass equals the unfused one bit for bit, ledger
    included; the tiled cases run the chain in tiles of 2 frames."""
    _, _, shape, frames, *_ = TAIL_PRODUCERS[name]
    graph, chain = _tail_graph(name)
    g = np.random.default_rng(6)
    bundle = init_weights(graph, seed=5)
    stats = g.uniform(0.5, 1.5, size=(4, 3)).astype(np.float32)
    bundle["bn"] = {key: Tensor.from_array(a)
                    for key, a in zip(("mean", "var", "gamma", "beta"), stats)}
    x = g.normal(size=shape).astype(np.float32)
    bn = run_graph(graph, bundle, x, keep_outputs=True).node_outputs["bn"]
    assert (bn > 0).any() and (bn < 0).any()  # the relu leaves the batchnorm's mark
    _, shapes = shape_infer(graph, shape)
    with _tiles_of(frames, shapes) if frames else contextlib.nullcontext():
        plan = plan_tiles(graph, shapes, node_inputs(graph))
        assert (plan.region > 0, plan.frames) == (bool(frames), frames)
        assert _tails_of(graph) == {"conv": chain}
        fused = run_graph(graph, bundle, x, counted=True)
        with _unfused():
            plain = run_graph(graph, bundle, x, counted=True)
    assert _bits(fused.output.as_array()) == _bits(plain.output.as_array())
    assert fused.ledger == plain.ledger


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_mobivsr_fuses_the_head_relu_into_the_fc_before_it(alpha):
    """head.relu runs as head.fc1's tail: an fc may head a chain."""
    assert _tails_of(build_mobivsr(alpha))["head.fc1"] == ["head.relu"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(elementwise_graphs().map(lambda case: (*case, None)), tiled_graphs()))
def test_no_region_ends_inside_a_chain(case):
    """plan_tiles cuts by fused_tails' chains: a chain's head and its last
    tail lie both inside the region or both past it, at any tile size."""
    graph, _, x, frames = case
    _, shapes = shape_infer(graph, x.shape)
    ids = [node_id for node_id, _ in graph.nodes]
    with _tiles_of(frames, shapes) if frames else contextlib.nullcontext():
        region = plan_tiles(graph, shapes, node_inputs(graph)).region
    for head, chain in _tails_of(graph).items():
        assert (ids.index(head) < region) == (ids.index(chain[-1]) < region), (head, chain)


@pytest.mark.parametrize("alpha,calls", [(1, 91), (4, 199)])
def test_a_mobivsr_pass_calls_forward_layer_once_per_unfused_node_and_tile(alpha, calls):
    """A pass makes one forward_layer call per node that is neither a fused
    tail nor a residual_add, per step it runs in: each tile its frames,
    shifted by its lag, meet in the clip for a region node, and one whole
    call past the region. With the region through s3's first block that is
    92 calls for MobiVSR-1 and 200 for MobiVSR-4."""
    graph = build_mobivsr(alpha)
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    bundle = BUNDLES["alpha1"] if alpha == 1 else init_weights(graph, seed=2)
    _, shapes = shape_infer(graph, graph.input_shape)
    plan = plan_tiles(graph, shapes, node_inputs(graph))
    total, frames = graph.input_shape[1], plan.frames
    fused = {t for chain in _tails_of(graph).values() for t in chain}
    # tiles [(k - 1) * frames + lag, k * frames + lag) that meet [0, total)
    steps = [-(-(total - plan.lags[node_id]) // frames) + -(-plan.lags[node_id] // frames)
             if i < plan.region else 1
             for i, (node_id, spec) in enumerate(graph.nodes)
             if node_id not in fused and spec.kind != "residual_add"]
    assert _layer_calls(graph, bundle, x)[1] == sum(steps) == calls


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(elementwise_graphs().map(lambda case: (*case, None)), tiled_graphs()))
def test_a_fused_pass_equals_the_unfused_pass(case):
    """A counted pass with every tail fused equals the same pass unfused, bit
    for bit, tiled or not, with an equal ledger, and within 1e-5 of whole
    layers. Where a chain's producer has a slot of its own, its last node's
    slot is the same bytes, which the chain writes into."""
    graph, bundle, x, frames = case
    _, shapes = shape_infer(graph, x.shape)
    with _tiles_of(frames, shapes) if frames else contextlib.nullcontext():
        plan = plan_tiles(graph, shapes, node_inputs(graph))
        tails = _tails_of(graph)
        ids = [node_id for node_id, _ in graph.nodes]
        # the region never ends at a tail's input, so no chain crosses its end
        assert all((ids.index(producer) < plan.region) == (ids.index(chain[-1]) < plan.region)
                   for producer, chain in tails.items())
        fused = run_graph(graph, bundle, x, counted=True)
        with _unfused():
            plain = run_graph(graph, bundle, x, counted=True)
    assert _bits(fused.output.as_array()) == _bits(plain.output.as_array())
    assert fused.ledger == plain.ledger
    whole = run_graph(graph, bundle, x, keep_outputs=True).output.as_array()
    assert np.abs(fused.output.as_array() - whole).max() <= 1e-5 * max(1.0, np.abs(whole).max())
    slots = plan.steps.slots
    for producer, chain in tails.items():
        if producer in slots and chain[-1] in slots:
            assert slots[producer][0] == slots[chain[-1]][0]


@pytest.mark.parametrize("dtype", ["fp32", "int8"])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_a_tiled_mobivsr_ledger_reads_each_weight_once(alpha, dtype):
    """A counted MobiVSR-α pass runs its front end and s1-s2 in tiles, yet its
    ledger equals a whole-layer pass's, and its FLOPs the analytical total:
    every weight is read once per pass, not once per tile."""
    graph = build_mobivsr(alpha)
    bundle = init_weights(graph, seed=2)
    if dtype == "int8":
        bundle = quantize_weights(bundle)
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    tiled = run_graph(graph, bundle, x, counted=True)
    whole = run_graph(graph, bundle, x, counted=True, keep_outputs=True)
    assert tiled.ledger == whole.ledger
    assert tiled.ledger.flops() == aggregate(graph).totals.flops
    assert tiled.ledger.param_reads == sum(params_of(spec) for _, spec in graph.nodes)
    np.testing.assert_array_equal(tiled.output.as_array(), whole.output.as_array())


@pytest.mark.parametrize("frames", [1, 2, 3])
@pytest.mark.parametrize("length", [2, 5, 9])
def test_tiles_shorter_than_the_front_ends_lag_still_cover_every_frame(frames, length):
    """ds3d1 leads the rest of the region by 2 frames, more than a tile of 1:
    the steps then start early enough that it still computes every frame. A
    small MobiVSR-1 clip gives the same ledger as whole layers, and an output
    within 1e-5 of theirs: on a 32x32 clip s3's per-frame GEMMs contract a
    tile's 1 to 3 rows, which BLAS may round otherwise than all of them."""
    graph = build_mobivsr(1)
    x = np.random.default_rng(length).random((1, length, 32, 32), dtype=np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_TILE_BYTES", frames * 32 * 16 * 16 * 4)
        _, shapes = shape_infer(graph, x.shape)
        plan = plan_tiles(graph, shapes, node_inputs(graph))
        assert (plan.frames, plan.held) == ((frames, {"frontend.relu1": 2}) if frames < length
                                            else (0, {}))
        tiled = run_graph(graph, BUNDLES["alpha1"], x, counted=True)
    whole = run_graph(graph, BUNDLES["alpha1"], x, counted=True, keep_outputs=True)
    got, want = tiled.output.as_array(), whole.output.as_array()
    assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())
    assert tiled.ledger == whole.ledger


def test_a_held_tail_of_a_producer_without_a_slot_runs_in_its_window():
    """conv2d reads conv3d's output, which no arena plans, so it has no slot
    of its own; the relu after it is its tail and is held for ds_conv3d.
    The chain writes into the relu's window, and the tiled pass equals the
    unfused one bit for bit and whole layers within 1e-5, ledgers equal."""
    conv = {"kernel_size": 3, "temporal_size": 3}
    nodes = [("c3", LayerSpec("conv3d", in_channels=2, out_channels=3, **conv)),
             ("c2", LayerSpec("conv2d", in_channels=3, out_channels=4, kernel_size=3)),
             ("r", LayerSpec("relu")),
             ("d3", LayerSpec("ds_conv3d", in_channels=4, out_channels=5, **conv)),
             ("r2", LayerSpec("relu"))]
    graph = LayerGraph(nodes=nodes, residual_edges=[], input_shape=(2, 12, 6, 6))
    bundle = init_weights(graph, seed=1)
    x = np.random.default_rng(2).normal(size=graph.input_shape).astype(np.float32)
    _, shapes = shape_infer(graph, graph.input_shape)
    with _tiles_of(3, shapes):
        plan = plan_tiles(graph, shapes, node_inputs(graph))
        assert (plan.region, plan.held) == (5, {"r": 2})
        assert "c2" not in plan.steps.slots and _tails_of(graph)["c2"] == ["r"]
        tiled = run_graph(graph, bundle, x, counted=True)
        with _unfused():
            unfused = run_graph(graph, bundle, x, counted=True)
    whole = run_graph(graph, bundle, x, counted=True, keep_outputs=True)
    np.testing.assert_array_equal(tiled.output.as_array(), unfused.output.as_array())
    np.testing.assert_allclose(tiled.output.as_array(), whole.output.as_array(), atol=1e-5)
    assert tiled.ledger == unfused.ledger == whole.ledger


def test_a_second_mobivsr_pass_builds_no_correlation_geometry():
    """Each distinct correlation call's geometry is built once and kept, so a
    second α=1 pass, every tile included, finds all of it in the memo."""
    graph = GRAPHS["alpha1"]
    run_graph(graph, BUNDLES["alpha1"], INPUTS["alpha1"])
    misses = kernels._geometry.cache_info().misses
    run_graph(graph, BUNDLES["alpha1"], INPUTS["alpha1"])
    assert kernels._geometry.cache_info().misses == misses


@pytest.mark.parametrize("alpha,dtype,counted", [(1, "fp32", False), (1, "fp32", True),
                                                 (2, "int8", True)])
def test_a_warm_geometry_memo_changes_no_output_or_ledger(alpha, dtype, counted):
    """A pass with every geometry taken from the memo equals, bit for bit and
    with the same ledger, a pass that builds each one afresh."""
    graph = build_mobivsr(alpha)
    bundle = init_weights(graph, seed=2)
    if dtype == "int8":
        bundle = quantize_weights(bundle)
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    run_graph(graph, bundle, x, counted=counted)
    warm = run_graph(graph, bundle, x, counted=counted)
    kernels._geometry.cache_clear()
    cold = run_graph(graph, bundle, x, counted=counted)
    np.testing.assert_array_equal(warm.output.as_array(), cold.output.as_array())
    assert warm.ledger == cold.ledger


def _bits(a):
    """An array's shape, dtype and bytes: equal only when every bit is."""
    return a.shape, a.dtype, a.tobytes()


def _empty_past_a_line(offset, calls):
    """kernels.empty, but each buffer starts ``offset`` bytes past a 64-byte
    boundary; counts its calls in ``calls``."""
    aligned = kernels.empty

    def empty(shape, dtype=np.float32):
        calls.append(shape)
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(np.atleast_1d(shape).tolist())
        return np.ndarray(shape, dtype, aligned(nbytes + offset, np.uint8), offset)

    return empty


@pytest.mark.parametrize("alpha,dtype,counted,keep", [(1, "fp32", False, False),
                                                      (1, "int8", True, False),
                                                      (2, "int8", True, False),
                                                      (1, "fp32", True, True)])
def test_buffers_off_a_cache_line_change_no_output_or_ledger(alpha, dtype, counted, keep):
    """Every kernel buffer and arena handed out 4, 16 or 32 bytes past a
    cache line gives the output, node outputs and ledger of aligned ones, bit
    for bit: alignment moves speed only."""
    graph = build_mobivsr(alpha)
    bundle = init_weights(graph, seed=2)
    if dtype == "int8":
        bundle = quantize_weights(bundle)
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    aligned = run_graph(graph, bundle, x, counted=counted, keep_outputs=keep)
    for offset in (4, 16, 32):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "empty", _empty_past_a_line(offset, calls))
            shifted = run_graph(graph, bundle, x, counted=counted, keep_outputs=keep)
        assert calls
        assert _bits(shifted.output.as_array()) == _bits(aligned.output.as_array())
        assert shifted.ledger == aligned.ledger
        if keep:
            assert ({node_id: _bits(value) for node_id, value in shifted.node_outputs.items()}
                    == {node_id: _bits(value) for node_id, value in aligned.node_outputs.items()})

