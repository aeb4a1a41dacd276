"""run_graph's check pass: the input shape and every node's weights are
checked before the first kernel runs, and a malformed input or bundle ends in
a MobiVSRError naming the node."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mobivsr import (
    DimensionMismatch,
    GraphValidationError,
    LayerGraph,
    LayerSpec,
    MobiVSRError,
    Tensor,
    ValidationError,
    build_mobivsr,
    counted_forward,
    init_weights,
    quantize_weights,
    run_graph,
    shape_infer,
)
from mobivsr import engine, kernels
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


def test_run_graph_refuses_weights_that_are_not_a_dict_before_any_kernel():
    with counting_kernels() as calls, pytest.raises(ValidationError, match="weights must be"):
        run_graph(GRAPHS["small"], None, INPUTS["small"])
    assert calls == []


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


# frontend.ds3d2's (32, 29, 48, 48) input and (64, 29, 24, 24) output: the
# least any schedule holds there, since the input is read until its last block
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


ELEMENTWISE = ("relu", "batchnorm")


@st.composite
def elementwise_graphs(draw):
    """(graph, bundle, source index, input) for a chain of relu, batchnorm and ds_conv2d
    nodes that opens with an elementwise node and holds one node's output for
    a later reader, a residual_add or an elementwise node that takes it as
    its input, with an elementwise node right after that source. Batchnorm
    statistics and the input are random, so that a write into a value shows."""
    c, h, w = (draw(st.integers(1, 3)) for _ in range(3))
    specs = {"relu": LayerSpec("relu"), "batchnorm": LayerSpec("batchnorm", in_channels=c),
             "ds_conv2d": LayerSpec("ds_conv2d", in_channels=c, out_channels=c, kernel_size=3),
             "residual_add": LayerSpec("residual_add")}
    kinds = [draw(st.sampled_from(ELEMENTWISE))]
    kinds += draw(st.lists(st.sampled_from(ELEMENTWISE + ("ds_conv2d",)), max_size=3))
    src = draw(st.integers(0, len(kinds) - 1))
    kinds.insert(src + 1, draw(st.sampled_from(ELEMENTWISE)))
    reader = draw(st.integers(src + 2, len(kinds)))
    kinds.insert(reader, draw(st.sampled_from(("residual_add",) + ELEMENTWISE)))
    kinds += draw(st.lists(st.sampled_from(ELEMENTWISE), max_size=1))
    graph = LayerGraph(nodes=[(f"n{i}", specs[kind]) for i, kind in enumerate(kinds)],
                       residual_edges=[(f"n{src}", f"n{reader}")])
    g = np.random.default_rng(draw(st.integers(0, 2**16)))
    bundle = init_weights(graph, seed=1)
    for node, kind in enumerate(kinds):
        if kind == "batchnorm":
            stats = {name: g.normal(size=c).astype(np.float32)
                     for name in ("mean", "var", "gamma", "beta")}
            stats["var"] = np.abs(stats["var"])
            bundle[f"n{node}"] = {name: Tensor.from_array(a) for name, a in stats.items()}
    x = g.normal(size=(c, h, w)).astype(np.float32)
    return graph, bundle, src, x


@settings(max_examples=200, deadline=None)
@given(case=elementwise_graphs(), as_tensor=st.booleans())
def test_in_place_elementwise_nodes_write_only_values_run_graph_owns(case, as_tensor):
    """run_graph leaves the caller's array or Tensor as it was and never
    writes into a held residual source. With keep_outputs no value is owned,
    so no node's output is written after it is made, and the plain run's
    output equals the kept run's bit for bit."""
    graph, bundle, src, x = case
    value = Tensor.from_array(x.copy()) if as_tensor else x.copy()
    forward_layer = engine.forward_layer

    def run(**kwargs):
        """The output, and (output, its copy when made) per node run, in node order."""
        made = []

        def recording(spec, v, weights, ledger=None):
            out = forward_layer(spec, v, weights, ledger)
            made.append((out, out.copy()))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "forward_layer", recording)
            return run_graph(graph, bundle, value, **kwargs).output.as_array(), made

    kept, kept_made = run(keep_outputs=True)
    assert all(np.array_equal(out, copy) for out, copy in kept_made)
    got, made = run()
    assert np.array_equal(got, kept)
    assert np.array_equal(value.as_array() if as_tensor else value, x)
    held, copy = made[src]  # no node before the source is a residual_add
    assert np.array_equal(held, copy)
