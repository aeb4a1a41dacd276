"""run_graph's check pass: the input shape and every node's weights are
checked before the first kernel runs, and a malformed input or bundle ends in
a MobiVSRError naming the node."""

import contextlib

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
from mobivsr import kernels


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
    with counting_kernels(("batchnorm_array", "ds_conv2d_array", "conv2d_array")) as calls:
        with pytest.raises(MobiVSRError, match="node 'fc'"):
            run_graph(graph, bundle, INPUTS["small"])
        assert calls == []
        bundle["fc"]["weights"] = BUNDLES["small"]["fc"]["weights"]
        run_graph(graph, bundle, INPUTS["small"])
    # bn, ds, the pointwise conv2d_array inside ds, and the skip
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


def test_zero_extent_input_fails_before_any_kernel():
    with counting_kernels() as calls, pytest.raises(ValidationError, match="positive"):
        run_graph(GRAPHS["small"], BUNDLES["small"], np.ones((0, 4), dtype=np.float32))
    assert calls == []


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
