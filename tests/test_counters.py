"""Instrumented counting: ledgers versus hand counts, scalar-loop counts,
and the analytical formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobivsr import (
    CounterLedger,
    LayerSpec,
    Tensor,
    counted_forward,
    flops_of,
    mem_access_of,
    params_of,
    weight_shapes,
)
from mobivsr.costs import COSTED_KINDS
from mobivsr.engine import forward_layer
from mobivsr.graph import LAYER_KINDS

import _reference as ref


def t(array):
    return Tensor.from_array(np.asarray(array, dtype=np.float32))


def test_counted_conv2d_golden_layer():
    g = np.random.default_rng(0)
    x = t(g.normal(size=(3, 100, 100)))
    w = {"weights": t(g.normal(size=(64, 3, 3, 3)))}
    spec = LayerSpec("conv2d", in_channels=3, out_channels=64, kernel_size=3)
    _, ledger = counted_forward(spec, x, w)
    assert ledger.flops() == 34_560_000
    assert ledger.memory_accesses() == 17_921_728


def test_fully_connected_hand_count():
    spec = LayerSpec("fc", in_features=3, out_features=2)
    w = {"weights": t(np.ones((2, 3)))}
    _, ledger = counted_forward(spec, t([1.0, 2.0, 3.0]), w)
    assert ledger.multiplies == 6
    assert ledger.adds == 6
    assert ledger.param_reads == 6
    assert ledger.activation_reads == 3
    assert ledger.output_writes == 2


@pytest.mark.parametrize("kind", ["relu", "softmax", "spatial_avg"])
def test_cost_free_kinds_have_zero_ledger(kind):
    shape = (2, 3, 4, 4) if kind == "spatial_avg" else (6,)
    x = t(np.random.default_rng(1).normal(size=shape))
    _, ledger = counted_forward(LayerSpec(kind), x)
    assert ledger == CounterLedger()


def test_maxpool_and_batchnorm_zero_ledger():
    _, ledger = counted_forward(LayerSpec("maxpool", window=2, stride=2), t(np.ones((2, 6))))
    assert ledger == CounterLedger()
    stats = {name: t(v) for name, v in
             [("mean", np.zeros(2)), ("var", np.ones(2)), ("gamma", np.ones(2)),
              ("beta", np.zeros(2))]}
    _, ledger = counted_forward(LayerSpec("batchnorm", in_channels=2), t(np.ones((2, 3, 3))),
                                stats)
    assert ledger == CounterLedger()


@pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid")])
def test_conv2d_counts_match_scalar_loop_counting(stride, padding):
    g = np.random.default_rng(2)
    x = g.normal(size=(2, 6, 6))
    w = g.normal(size=(3, 2, 3, 3))
    spec = LayerSpec("conv2d", in_channels=2, out_channels=3, kernel_size=3, stride=stride,
                     padding=padding)
    _, ledger = counted_forward(spec, t(x), {"weights": t(w)})
    _, counts = ref.conv2d_loops(x, w, stride, padding)
    assert ledger.multiplies == counts["multiplies"]
    assert ledger.adds == counts["adds"]
    assert ledger.param_reads == counts["param_reads"]
    assert ledger.activation_reads == counts["activation_reads"]
    assert ledger.output_writes == counts["output_writes"]


def test_ds_conv2d_counts_match_scalar_loop_counting():
    g = np.random.default_rng(3)
    x = g.normal(size=(3, 5, 5))
    dw = g.normal(size=(3, 3, 3))
    pw = g.normal(size=(4, 3, 1, 1))
    spec = LayerSpec("ds_conv2d", in_channels=3, out_channels=4, kernel_size=3)
    _, ledger = counted_forward(spec, t(x), {"depthwise": t(dw), "pointwise": t(pw)})
    counts = ref.ds_conv2d_loop_counts(x, dw, pw)
    assert ledger.multiplies == counts["multiplies"]
    assert ledger.param_reads == counts["param_reads"]
    assert ledger.activation_reads == counts["activation_reads"]
    assert ledger.output_writes == counts["output_writes"]


def test_counting_does_not_change_numerics():
    g = np.random.default_rng(4)
    x = g.normal(size=(3, 8, 8)).astype(np.float32)
    w = {"weights": g.normal(size=(4, 3, 3, 3)).astype(np.float32)}
    spec = LayerSpec("conv2d", in_channels=3, out_channels=4, kernel_size=3)
    plain = forward_layer(spec, x, w)
    counted, _ = counted_forward(spec, x, w)
    assert plain.tobytes() == counted.as_array().tobytes()


def _random_layer_configs(count, seed):
    """Random stride-1 same-padding layer configs across the costed kinds."""
    g = np.random.default_rng(seed)
    kinds = ["conv2d", "conv3d", "ds_conv2d", "ds_conv3d", "fc", "temporal_conv1d"]
    for i in range(count):
        kind = kinds[i % len(kinds)]
        ci, co = int(g.integers(1, 7)), int(g.integers(1, 7))
        if kind == "fc":
            spec = LayerSpec("fc", in_features=int(g.integers(1, 33)),
                             out_features=int(g.integers(1, 33)))
            yield spec, (spec.in_features,)
            continue
        k = int(g.integers(1, 4))
        side = int(g.integers(max(k, 2), 9))
        if kind == "conv2d":
            yield (LayerSpec(kind, in_channels=ci, out_channels=co, kernel_size=k),
                   (ci, side, side))
        elif kind == "temporal_conv1d":
            yield (LayerSpec(kind, in_channels=ci, out_channels=co, kernel_size=k),
                   (ci, int(g.integers(max(k, 1), 12))))
        else:
            tk = int(g.integers(1, 4))
            frames = int(g.integers(tk, 5))
            mode = "partial" if kind == "ds_conv3d" else None
            yield (LayerSpec(kind, in_channels=ci, out_channels=co, kernel_size=k,
                             temporal_size=tk, pointwise_mode=mode),
                   (ci, frames, side, side))


def test_ledger_parity_with_cost_model_on_random_configs():
    g = np.random.default_rng(5)
    from mobivsr import init_weights, LayerGraph

    for spec, in_shape in _random_layer_configs(60, seed=6):
        weights = init_weights(LayerGraph(nodes=[("l", spec)]), seed=7).get("l")
        x = t(g.normal(size=in_shape))
        _, ledger = counted_forward(spec, x, weights)
        assert ledger.flops() == flops_of(spec, in_shape), spec
        assert ledger.memory_accesses() == mem_access_of(spec, in_shape), spec


@st.composite
def _costed_layer(draw):
    """A costed layer at stride 1 and same padding, in either pointwise mode,
    with an input of one of its accepted ranks."""
    kind = draw(st.sampled_from(COSTED_KINDS))
    if kind == "fc":
        spec = LayerSpec("fc", in_features=draw(st.integers(1, 12)),
                         out_features=draw(st.integers(1, 12)))
        return spec, (spec.in_features,)
    ranks = [r for r in (2, 3, 4) if r in LAYER_KINDS[kind].ranks]
    rank = draw(st.sampled_from(ranks))
    spec = LayerSpec(
        kind,
        in_channels=draw(st.integers(1, 5)),
        out_channels=draw(st.integers(1, 5)),
        kernel_size=draw(st.integers(1, 3)),
        temporal_size=draw(st.integers(1, 3)) if "temporal_size" in LAYER_KINDS[kind].required
        else None,
        pointwise_mode=draw(st.sampled_from(["partial", "full"])),
    )
    extents = draw(st.lists(st.integers(1, 6), min_size=rank - 1, max_size=rank - 1))
    return spec, (spec.in_channels, *extents)


@settings(max_examples=80, deadline=None)
@given(_costed_layer())
def test_ledger_formulas_and_weight_shapes_agree(layer):
    spec, in_shape = layer
    weights = {name: np.ones(shape, dtype=np.float32)
               for name, shape in weight_shapes(spec).items()}
    _, ledger = counted_forward(spec, np.ones(in_shape, dtype=np.float32), weights)
    assert ledger.flops() == flops_of(spec, in_shape)
    assert ledger.memory_accesses() == mem_access_of(spec, in_shape)
    assert params_of(spec) == sum(math.prod(s) for s in weight_shapes(spec).values())
