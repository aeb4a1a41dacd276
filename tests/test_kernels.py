"""Kernel correctness against hand values and the scalar-loop oracles."""

import contextlib
import dataclasses
import importlib.util
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobivsr import (
    CounterLedger,
    DimensionMismatch,
    LayerGraph,
    LayerSpec,
    build_lipres,
    counted_forward,
    init_weights,
    kernels,
    run_graph,
)
from mobivsr.kernels import (
    add_array,
    batchnorm_array,
    batchnorm_steps,
    conv1d_array,
    conv2d_array,
    conv3d_array,
    depthwise2d_array,
    depthwise3d_array,
    ds_conv2d_array,
    ds_conv3d_array,
    fc_array,
    maxpool1d_array,
    relu_array,
    softmax_array,
)

import _reference as ref


def f32(array):
    return np.asarray(array, dtype=np.float32)


def rng(seed=0):
    return np.random.default_rng(seed)


def conv2d_frame(x, w, stride=1, padding="same"):
    """conv2d_array on one (Ci,H,W) frame."""
    return conv2d_array(f32(x)[None], f32(w), stride, padding)[0]


def ds_conv2d_frame(x, dw, pw):
    """ds_conv2d_array on one (Ci,H,W) frame."""
    return ds_conv2d_array(f32(x)[None], f32(dw), f32(pw))[0]


class TestConv2d:
    def test_1x1_kernel_is_scalar_multiply(self):
        out = conv2d_frame([[[5.0]]], [[[[2.0]]]])
        assert out.shape == (1, 1, 1)
        assert out.item() == 10.0

    def test_zero_input_gives_zero_output(self):
        w = rng().normal(size=(3, 2, 3, 3))
        assert np.all(conv2d_frame(np.zeros((2, 5, 5)), w) == 0)

    def test_ones_4x4_same_padding_receptive_fields(self):
        out = conv2d_frame(np.ones((1, 4, 4)), np.ones((1, 1, 3, 3)))[0]
        for corner in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert out[corner] == 4.0
        assert np.all(out[1:3, 1:3] == 9.0)
        assert out[0, 1] == 6.0

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    @pytest.mark.parametrize("ci,co,k,h", [(1, 1, 3, 5), (3, 2, 3, 6), (2, 4, 2, 5), (4, 3, 1, 4)])
    def test_matches_scalar_loops(self, stride, padding, ci, co, k, h):
        if padding == "valid" and h < k:
            pytest.skip("degenerate")
        g = rng(ci * 100 + co * 10 + k + h + stride)
        x = g.normal(size=(ci, h, h))
        w = g.normal(size=(co, ci, k, k))
        expected, _ = ref.conv2d_loops(x, w, stride, padding)
        np.testing.assert_allclose(conv2d_frame(x, w, stride, padding), expected, atol=1e-4)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(DimensionMismatch) as exc:
            conv2d_frame(np.ones((2, 4, 4)), np.ones((1, 3, 3, 3)))
        assert exc.value.axis == "channel"


class TestConv3d:
    def test_t1_reduces_to_per_frame_conv2d(self):
        g = rng(1)
        x = g.normal(size=(2, 4, 5, 5))
        w = g.normal(size=(3, 2, 1, 3, 3))
        out = conv3d_array(f32(x), f32(w))
        for frame in range(4):
            per_frame = conv2d_frame(x[:, frame], w[:, :, 0])
            np.testing.assert_allclose(out[:, frame], per_frame, atol=1e-5)

    def test_all_ones_valid_single_27(self):
        out = conv3d_array(f32(np.ones((1, 3, 3, 3))), f32(np.ones((1, 1, 3, 3, 3))),
                           padding="valid")
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 27.0

    def test_zero_weights(self):
        x = f32(rng(2).normal(size=(2, 3, 4, 4)))
        assert np.all(conv3d_array(x, f32(np.zeros((2, 2, 3, 3, 3)))) == 0)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid")])
    def test_matches_scalar_loops(self, stride, padding):
        g = rng(7)
        x = g.normal(size=(2, 4, 5, 5))
        w = g.normal(size=(3, 2, 2, 3, 3))
        expected, _ = ref.conv3d_loops(x, w, stride, padding)
        got = conv3d_array(f32(x), f32(w), stride, padding)
        np.testing.assert_allclose(got, expected, atol=1e-4)


class TestDsConv2d:
    def test_single_channel_collapses_to_conv2d(self):
        g = rng(3)
        x = g.normal(size=(1, 6, 6))
        dw = g.normal(size=(1, 3, 3))
        scale = 1.7
        pw = np.full((1, 1, 1, 1), scale)
        expected = conv2d_frame(x, dw[None] * scale)
        np.testing.assert_allclose(ds_conv2d_frame(x, dw, pw), expected, atol=1e-5)

    def test_matches_explicit_composition(self):
        g = rng(4)
        x = g.normal(size=(4, 8, 8))
        dw = g.normal(size=(4, 3, 3))
        pw = g.normal(size=(6, 4, 1, 1))
        expected = ref.ds_conv2d_composition(x, dw, pw)
        np.testing.assert_allclose(ds_conv2d_frame(x, dw, pw), expected, atol=1e-5)

    def test_identity_pointwise_is_depthwise_alone(self):
        g = rng(5)
        x = g.normal(size=(3, 5, 5))
        dw = g.normal(size=(3, 3, 3))
        pw = np.eye(3).reshape(3, 3, 1, 1)
        expected = ref.grouped_conv2d_loops(x, dw)
        np.testing.assert_allclose(ds_conv2d_frame(x, dw, pw), expected, atol=1e-5)

    def test_stage_channel_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ds_conv2d_frame(np.ones((3, 4, 4)), np.ones((3, 3, 3)), np.ones((2, 4, 1, 1)))


class TestDsConv3d:
    def test_full_mode_t1_equals_per_frame_ds_conv2d(self):
        g = rng(6)
        x = g.normal(size=(2, 3, 5, 5))
        dw = g.normal(size=(2, 1, 3, 3))
        pw = g.normal(size=(4, 2, 1, 1, 1))
        out = ds_conv3d_array(f32(x), f32(dw), f32(pw))
        for frame in range(3):
            per_frame = ds_conv2d_frame(x[:, frame], dw[:, 0], pw[:, :, 0])
            np.testing.assert_allclose(out[:, frame], per_frame, atol=1e-5)

    def test_partial_mode_matches_composition(self):
        g = rng(8)
        x = g.normal(size=(3, 4, 6, 6))
        dw = g.normal(size=(3, 3, 3, 3))
        pw = g.normal(size=(5, 3, 3, 1, 1))
        got = ds_conv3d_array(f32(x), f32(dw), f32(pw))
        expected = ref.ds_conv3d_composition(x, dw, pw)
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_zero_pointwise_zeroes_output(self):
        g = rng(9)
        x = g.normal(size=(2, 4, 4, 4))
        dw = g.normal(size=(2, 3, 3, 3))
        pw = np.zeros((3, 2, 3, 1, 1))
        assert np.all(ds_conv3d_array(f32(x), f32(dw), f32(pw)) == 0)

    def test_pointwise_temporal_size_must_match_mode(self):
        g = rng(10)
        x = g.normal(size=(2, 4, 4, 4))
        dw = g.normal(size=(2, 3, 3, 3))
        pw_partial = g.normal(size=(3, 2, 3, 1, 1))
        pw_full = g.normal(size=(3, 2, 1, 1, 1))
        for mode, pw in (("full", pw_partial), ("partial", pw_full)):
            spec = LayerSpec("ds_conv3d", in_channels=2, out_channels=3, kernel_size=3,
                             temporal_size=3, pointwise_mode=mode)
            with pytest.raises(DimensionMismatch):
                counted_forward(spec, x, {"depthwise": dw, "pointwise": pw})


class TestTemporalConv1d:
    def test_k1_is_per_step_channel_mixing(self):
        g = rng(11)
        x = g.normal(size=(3, 6))
        w = g.normal(size=(4, 3, 1))
        got = conv1d_array(f32(x), f32(w))
        np.testing.assert_allclose(got, w[:, :, 0] @ x, atol=1e-5)

    def test_ones_hand_summed(self):
        out = conv1d_array(f32(np.ones((1, 5))), f32(np.ones((1, 1, 3))))[0]
        np.testing.assert_allclose(out, [2.0, 3.0, 3.0, 3.0, 2.0])

    def test_zero_weights(self):
        x = f32(rng(12).normal(size=(2, 7)))
        assert np.all(conv1d_array(x, f32(np.zeros((3, 2, 3)))) == 0)


class TestFullyConnected:
    def test_identity_weights(self):
        x = rng(13).normal(size=4)
        np.testing.assert_allclose(fc_array(f32(x), f32(np.eye(4))), x, atol=1e-6)

    def test_hand_arithmetic(self):
        out = fc_array(f32([1.0, 2.0]), f32([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_allclose(out, [11.0, 17.0])

    def test_zero_input(self):
        assert np.all(fc_array(f32(np.zeros(3)), f32(np.ones((2, 3)))) == 0)


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(relu_array(f32([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_softmax_constant_is_uniform(self):
        out = softmax_array(f32(np.full(8, 3.5)))
        np.testing.assert_allclose(out, np.full(8, 1 / 8), atol=1e-7)

    def test_softmax_normalized_nonnegative(self):
        out = softmax_array(f32(rng(14).normal(size=64) * 10))
        assert out.min() >= 0
        assert abs(out.sum() - 1.0) < 1e-6

    def test_maxpool_window2_stride2(self):
        np.testing.assert_array_equal(maxpool1d_array(f32([1.0, 3.0, 2.0, 0.0]), 2, 2),
                                      [3.0, 2.0])

    def test_maxpool_shorter_than_window_is_a_time_mismatch(self):
        spec = LayerSpec("maxpool", window=3, stride=1)
        for pool in (lambda: counted_forward(spec, [1.0, 3.0]),
                     lambda: maxpool1d_array(np.ones((2, 2), dtype=np.float32), 3, 1)):
            with pytest.raises(DimensionMismatch) as exc:
                pool()
            assert exc.value.axis == "time"
            assert exc.value.got == 2

    def test_batchnorm_identity_stats(self):
        x = rng(15).normal(size=(3, 4, 4)).astype(np.float32)
        out = batchnorm_array(x, f32(np.zeros(3)), f32(np.ones(3)), f32(np.ones(3)),
                              f32(np.zeros(3)), eps=0.0)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_batchnorm_shifts_and_scales(self):
        x = np.ones((2, 3), dtype=np.float32)
        out = batchnorm_array(x, f32([1.0, 0.0]), f32([4.0, 1.0]), f32([2.0, 1.0]),
                              f32([5.0, 0.0]), eps=0.0)
        np.testing.assert_allclose(out[0], np.full(3, 5.0), atol=1e-6)
        np.testing.assert_allclose(out[1], np.ones(3), atol=1e-6)


def _linear_ops():
    g = rng(16)
    yield "conv2d", lambda v, w=g.normal(size=(3, 2, 3, 3)): conv2d_frame(v, w), (2, 6, 6)
    yield "conv3d", lambda v, w=g.normal(size=(2, 2, 3, 3, 3)): conv3d_array(f32(v), f32(w)), (
        2, 4, 5, 5)
    yield "ds_conv2d", lambda v, dw=g.normal(size=(2, 3, 3)), pw=g.normal(size=(3, 2, 1, 1)): (
        ds_conv2d_frame(v, dw, pw)), (2, 6, 6)
    yield "ds_conv3d", lambda v, dw=g.normal(size=(2, 3, 3, 3)), pw=g.normal(size=(3, 2, 3, 1, 1)): (
        ds_conv3d_array(f32(v), f32(dw), f32(pw))), (2, 4, 5, 5)
    yield "temporal_conv1d", lambda v, w=g.normal(size=(3, 2, 3)): conv1d_array(f32(v), f32(w)), (
        2, 7)
    yield "fc", lambda v, w=g.normal(size=(3, 5)): fc_array(f32(v), f32(w)), (5,)


@pytest.mark.parametrize("name,op,shape", list(_linear_ops()), ids=lambda v: v if isinstance(v, str) else "")
def test_linearity(name, op, shape):
    g = rng(17)
    x, y = g.normal(size=shape), g.normal(size=shape)
    a, b = 0.7, -1.3
    lhs = op(a * x + b * y)
    rhs = a * op(x) + b * op(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)


# memory layouts a (B,C,H,W) kernel input arrives in
LAYOUTS = ("contiguous", "swapaxes", "channels last")


def _laid_out(g, shape, layout):
    """A seeded (B,C,H,W) float32 value in the given memory layout."""
    b, c, h, w = shape
    if layout == "contiguous":
        return g.normal(size=shape).astype(np.float32)
    if layout == "swapaxes":  # per-frame execution hands the kernels such a view
        return g.normal(size=(c, b, h, w)).astype(np.float32).swapaxes(0, 1)
    # a ds_conv2d_array output: a (B,C,H,W) view of a channels-last buffer
    dw = g.normal(size=(2, 3, 3)).astype(np.float32)
    pw = g.normal(size=(c, 2, 1, 1)).astype(np.float32)
    out = ds_conv2d_array(g.normal(size=(b, 2, h, w)).astype(np.float32), dw, pw)
    assert out.shape == shape and out.strides[1] == out.itemsize
    return out


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), ci=st.integers(1, 5), co=st.integers(1, 5),
       h=st.integers(3, 7), w=st.integers(3, 7), stride=st.sampled_from([1, 2]),
       padding=st.sampled_from(["same", "valid"]), layout=st.sampled_from(LAYOUTS),
       seed=st.integers(0, 2**16))
def test_ds_conv2d_pointwise_matmul_matches_1x1_conv(b, ci, co, h, w, stride, padding,
                                                     layout, seed):
    """The separable 1x1 stage equals a 1x1 conv2d, in values and in counts, on
    every input layout, ds_conv2d_array's own output included."""
    g = rng(seed)
    x = _laid_out(g, (b, ci, h, w), layout)
    dw = g.normal(size=(ci, 3, 3)).astype(np.float32)
    pw = g.normal(size=(co, ci, 1, 1)).astype(np.float32)
    got_ledger, old_ledger = CounterLedger(), CounterLedger()
    got = ds_conv2d_array(x, dw, pw, stride, padding, got_ledger)
    assert np.array_equal(got, ds_conv2d_array(np.ascontiguousarray(x), dw, pw, stride, padding))
    mid = depthwise2d_array(x, dw, stride, padding, old_ledger)
    expected = conv2d_array(mid, pw, 1, "valid", old_ledger)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, atol=1e-5, rtol=0)
    for field in dataclasses.fields(CounterLedger):
        assert getattr(got_ledger, field.name) == getattr(old_ledger, field.name), field.name


# The four counts a kernel tallies; the output write is tallied by forward_layer.
KERNEL_COUNTS = ("multiplies", "adds", "param_reads", "activation_reads")


def _unrolled(parts, w):
    """Stack per-sample or per-channel oracle outputs and sum their counts."""
    counts = {f: sum(c[f] for _, c in parts) for f in KERNEL_COUNTS}
    counts["param_reads"] = w.size  # each weight is read once per call
    return np.stack([out for out, _ in parts]), counts


def _grouped(loops, x, w, stride, padding):
    parts = [loops(x[c : c + 1], w[c][None, None], stride, padding) for c in range(len(w))]
    out, counts = _unrolled(parts, w)
    return out[:, 0], counts


def _conv1d_loops(x, w, stride, padding):
    # a (Ci,L) sequence is a (Ci,1,L) image under a (Co,Ci,1,k) kernel
    out, counts = ref.conv2d_loops(x[:, None], w[:, :, None], stride, padding)
    return out[:, 0], counts


# name: (kernel, input axes, weight axes, scalar-loop oracle). Axes are spelled
# b(atch), c(hannels), o(ut channels), t(ime kernel), k(ernel), l, h, w(idth).
KERNEL_CASES = {
    "conv2d": (conv2d_array, "bchw", "ockk", lambda x, w, s, p: _unrolled(
        [ref.conv2d_loops(v, w, s, p) for v in x], w)),
    "depthwise2d": (depthwise2d_array, "bchw", "ckk", lambda x, w, s, p: _unrolled(
        [_grouped(ref.conv2d_loops, v, w, s, p) for v in x], w)),
    "conv3d": (conv3d_array, "clhw", "octkk", ref.conv3d_loops),
    "depthwise3d": (depthwise3d_array, "clhw", "ctkk", lambda x, w, s, p: _grouped(
        ref.conv3d_loops, x, w, s, p)),
    "conv1d": (conv1d_array, "cl", "ock", _conv1d_loops),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
@settings(max_examples=25, deadline=None)
@given(dims=st.fixed_dictionaries({
           "b": st.integers(1, 2), "c": st.integers(1, 3), "o": st.integers(1, 3),
           "t": st.integers(1, 3), "k": st.integers(1, 3),
           "l": st.integers(3, 6), "h": st.integers(3, 6), "w": st.integers(3, 6)}),
       stride=st.sampled_from([1, 2]), padding=st.sampled_from(["same", "valid"]),
       seed=st.integers(0, 2**16))
def test_kernel_matches_scalar_loops(name, dims, stride, padding, seed):
    """Each public kernel equals its scalar-loop oracle, in values and in counts."""
    kernel, x_axes, w_axes, oracle = KERNEL_CASES[name]
    g = rng(seed)
    x = g.normal(size=[dims[a] for a in x_axes]).astype(np.float32)
    w = g.normal(size=[dims[a] for a in w_axes]).astype(np.float32)
    ledger = CounterLedger()
    got = kernel(x, w, stride, padding, ledger)
    expected, counts = oracle(x.astype(np.float64), w.astype(np.float64), stride, padding)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, atol=1e-4, rtol=0)
    for field in KERNEL_COUNTS:
        assert getattr(ledger, field) == counts[field], field
    # the same values laid out channels last in memory give the same output
    ch = x_axes.index("c")
    x_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, ch, -1)), -1, ch)
    assert np.array_equal(kernel(x_last, w, stride, padding), got)


@pytest.mark.parametrize("name,fault", [
    (name, fault) for name in KERNEL_CASES
    for fault in ("rank", "channel", "kernel", "extent", "stride 0", "stride True")
    if not (name == "conv1d" and fault == "kernel")  # a 1-D kernel has one extent
])
def test_kernel_error_paths(name, fault):
    kernel, x_axes, w_axes, _ = KERNEL_CASES[name]
    dims = {"b": 2, "c": 3, "o": 4, "t": 3, "k": 3, "l": 4, "h": 5, "w": 6}
    x_shape, w_shape = [dims[a] for a in x_axes], [dims[a] for a in w_axes]
    channel = x_axes.index("c")
    stride, padding, axis = 1, "same", fault
    if fault == "rank":
        w_shape = w_shape[1:]
    elif fault == "channel":
        x_shape[channel] += 1
    elif fault == "kernel":
        w_shape[-1] -= 1
    elif fault == "extent":  # every correlated extent below the kernel size of 3
        x_shape[channel + 1 :] = [2] * (len(x_shape) - channel - 1)
        padding, axis = "valid", {"l": "time", "h": "height"}[x_axes[channel + 1]]
    else:
        stride = 0 if fault == "stride 0" else True
    x, w = np.zeros(x_shape, dtype=np.float32), np.zeros(w_shape, dtype=np.float32)
    if fault.startswith("stride"):
        with pytest.raises(ValueError, match="stride"):
            kernel(x, w, stride, padding)
    else:
        with pytest.raises(DimensionMismatch) as exc:
            kernel(x, w, stride, padding)
        assert exc.value.axis == axis


def test_bench_tracer_names_live_kernels():
    """The bench tracer patches kernels by name; a rename must fail here, not only there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for attr in [*tracer.COUNTED_KERNELS.values(), *tracer.POINTWISE_OPS.values()]:
        assert inspect.isfunction(getattr(kernels, attr, None)), attr
    for attr in tracer.COUNTED_KERNELS.values():
        assert "ledger" in inspect.signature(getattr(kernels, attr)).parameters, attr


def _channels_first_grouped(x, w, strides, padding):
    """The channels-first grouped offset sum the channels-last stage replaced.

    A (C,1,..,1) tap is broadcast over each (B,C,*So) window and accumulated in
    fp32 in np.ndindex offset order. Returns the output and its ledger.
    """
    n = len(strides)
    outs, pads = [], []
    for m, k, s in zip(x.shape[2:], w.shape[1:], strides):
        o = -(-m // s) if padding == "same" else (m - k) // s + 1
        total = max((o - 1) * s + k - m, 0) if padding == "same" else 0
        outs.append(o)
        pads.append((total // 2, total - total // 2))
    xp = np.pad(x, [(0, 0), (0, 0)] + pads)
    out = np.zeros((x.shape[0], x.shape[1], *outs), dtype=np.float32)
    for offset in np.ndindex(*w.shape[1:]):
        patch = xp[(...,) + tuple(slice(o, o + (m - 1) * s + 1, s)
                                  for o, m, s in zip(offset, outs, strides))]
        out += patch * w[(...,) + offset].reshape((-1,) + (1,) * n)
    taps = out.size * int(np.prod(w.shape[1:]))
    return out, CounterLedger(multiplies=taps, adds=taps, param_reads=w.size,
                              activation_reads=taps)


# stride 2 over odd and even extents, so the stride phases differ in length;
# rank 3 at stride 2 is the front end's (1, 2, 2)
@example(rank=3, b=1, c=3, t=3, k=3, h=8, w=7, stride=2, padding="same",
         layout="channels last", seed=0)
@example(rank=3, b=2, c=2, t=3, k=3, h=7, w=8, stride=2, padding="valid",
         layout="contiguous", seed=1)
@example(rank=3, b=3, c=4, t=1, k=5, h=6, w=6, stride=2, padding="same",
         layout="swapaxes", seed=2)
@example(rank=2, b=2, c=3, t=1, k=3, h=5, w=6, stride=2, padding="same",
         layout="swapaxes", seed=3)
@example(rank=2, b=1, c=2, t=1, k=1, h=7, w=7, stride=2, padding="valid",
         layout="channels last", seed=4)
@settings(max_examples=40, deadline=None)
@given(rank=st.sampled_from([2, 3]), b=st.integers(1, 3), c=st.integers(1, 5),
       t=st.sampled_from([1, 3]), k=st.sampled_from([1, 3, 5]), h=st.integers(3, 8),
       w=st.integers(3, 8), stride=st.sampled_from([1, 2]),
       padding=st.sampled_from(["same", "valid"]),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**16))
def test_grouped_stage_bit_identical_to_channels_first_sum(rank, b, c, t, k, h, w, stride,
                                                           padding, layout, seed):
    """The channels-last depthwise stages give the channels-first offset sum bit for bit,
    with the same counts, whatever the input's memory layout."""
    g = rng(seed)
    # rank 3 swaps the (L,C,H,W) value into the (C,L,H,W) the 3-D stage takes
    lead = b if rank == 2 else max(b, t)  # valid padding needs extents >= the kernel
    x = _laid_out(g, (lead, c, max(h, k), max(w, k)), layout)
    ledger = CounterLedger()
    if rank == 2:
        wt = g.normal(size=(c, k, k)).astype(np.float32)
        got = depthwise2d_array(x, wt, stride, padding, ledger)
        expected, counts = _channels_first_grouped(x, wt, (stride, stride), padding)
    else:
        x = x.swapaxes(0, 1)
        wt = g.normal(size=(c, t, k, k)).astype(np.float32)
        got = depthwise3d_array(x, wt, stride, padding, ledger)
        expected, counts = _channels_first_grouped(x[None], wt, (1, stride, stride), padding)
        expected = expected[0]
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert ledger == counts


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rank", [2, 3])
def test_grouped_stage_blocks_are_bit_identical(rank, stride, padding, rows):
    """With the copy budget cut to one or two output rows, the grouped stages
    still give the channels-first sum bit for bit, with the same counts. Five
    batch items, or five or three output times, leave a ragged last block."""
    g = rng(20)
    x = g.normal(size=(5, 3, 7, 8)).astype(np.float32)  # 2-D: a batch of 5 (C,H,W) frames
    wt = g.normal(size=(3,) + (3,) * rank).astype(np.float32)
    if rank == 3:  # a batch of one (C,L,H,W) clip, blocked over its output times
        x = x.swapaxes(0, 1)
    strides = (1, stride, stride)[-rank:]
    expected, counts = _channels_first_grouped(x if rank == 2 else x[None], wt, strides, padding)
    # the phase bytes one output row copies, from the call's own geometry
    geometry = kernels._geometry(x.shape if rank == 2 else (1, *x.shape), wt.shape, None,
                                 strides, padding, True, "depthwise", None, 4, 1)
    row = sum(span.row_bytes for _, span in geometry.phases)
    ledger = CounterLedger()
    with _budgets(rows * row) as loaded:
        if rank == 2:
            got = depthwise2d_array(x, wt, stride, padding, ledger)
        else:
            got, expected = depthwise3d_array(x, wt, stride, padding, ledger), expected[0]
    assert max(loaded) == rows
    assert np.array_equal(got, expected)
    assert ledger == counts


def test_one_row_blocks_leave_a_lipres_pass_bit_identical(monkeypatch):
    """A counted pass of a downsample LipRes block on 5 frames, with every
    correlation's phases copied and its grouped stage summed one row at a
    time, equals the plain pass at the default budget bit for bit, with the
    same ledger."""
    block = build_lipres("downsample", 3, 6)
    nodes = [("stem", LayerSpec("relu"))] + list(block.layers)
    edges = [("stem" if src == "@in" else src, dst) for src, dst in block.edges]
    graph = LayerGraph(nodes=nodes, residual_edges=edges)
    weights = init_weights(graph, seed=6)
    x = rng(21).normal(size=(3, 5, 9, 9)).astype(np.float32)
    plain = run_graph(graph, weights, x)
    counted = run_graph(graph, weights, x, counted=True)
    monkeypatch.setattr(kernels, "_COPY_BYTES", 1)
    blocked = run_graph(graph, weights, x, counted=True)
    assert np.array_equal(blocked.output.as_array(), plain.output.as_array())
    assert blocked.ledger == counted.ledger


@contextlib.contextmanager
def _budgets(copy_bytes):
    """The rows of every block a correlation builds its phases for, recorded
    while the copy budget is cut to the given bytes."""
    rows = []
    load = kernels._Phase.load
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_COPY_BYTES", copy_bytes)
        mp.setattr(kernels._Phase, "load",
                   lambda self, r0, r1: rows.append(r1 - r0) or load(self, r0, r1))
        yield rows


# batch 1 and 5 for the 2-D kernels, so that they block over output rows or
# frames; the 3-D kernels' temporal kernel of 3 at same padding makes their
# first and last blocks read temporal zero padding
BLOCK_EDGE_CASES = [(name, b, stride, padding)
                    for name in KERNEL_CASES
                    for b in ((1, 5) if KERNEL_CASES[name][1][0] == "b" else (1,))
                    for stride in (1, 2) for padding in ("same", "valid")]


@pytest.mark.parametrize("name,b,stride,padding", BLOCK_EDGE_CASES)
def test_blocked_kernels_match_scalar_loops_at_the_block_edges(name, b, stride, padding):
    """Every public correlation kernel equals its scalar-loop oracle, with equal
    counts, at a one-row budget and at the first budget of a sweep whose last
    block is ragged."""
    kernel, x_axes, w_axes, oracle = KERNEL_CASES[name]
    dims = {"b": b, "c": 2, "o": 3, "t": 3, "k": 3, "l": 7, "h": 7, "w": 6}
    g = rng(22)
    x = g.normal(size=[dims[a] for a in x_axes]).astype(np.float32)
    w = g.normal(size=[dims[a] for a in w_axes]).astype(np.float32)
    expected, counts = oracle(x.astype(np.float64), w.astype(np.float64), stride, padding)

    def check(copy_bytes):
        ledger = CounterLedger()
        with _budgets(copy_bytes) as rows:
            got = kernel(x, w, stride, padding, ledger)
        np.testing.assert_allclose(got, expected, atol=1e-4, rtol=0)
        for field in KERNEL_COUNTS:
            assert getattr(ledger, field) == counts[field], field
        return rows

    assert set(check(1)) == {1}
    # budgets 25 % apart give every block size of 2, 3 and 4 rows in turn;
    # one of those leaves a ragged last block on these extents
    copy_bytes = 8
    while len(set(check(copy_bytes))) == 1:  # every phase of a call is blocked alike
        assert copy_bytes < 2**20, "no budget gave a ragged last block"
        copy_bytes += copy_bytes // 4


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rank,b", [(2, 1), (2, 4), (3, 1)])
def test_grouped_stage_one_row_copies_are_bit_identical(rank, b, stride, padding):
    """With its phases built and its sum taken one output row at a time, a
    grouped stage still gives the channels-first sum bit for bit: over a
    batch, over the rows of one frame, and over the times of one clip."""
    g = rng(23)
    x = g.normal(size=(b, 3, 7, 8) if rank == 2 else (3, 5, 7, 8)).astype(np.float32)
    wt = g.normal(size=(3,) + (3,) * rank).astype(np.float32)
    expected, counts = _channels_first_grouped(
        x if rank == 2 else x[None], wt, (1, stride, stride)[-rank:], padding)
    ledger = CounterLedger()
    with _budgets(1) as rows:
        if rank == 2:
            got = depthwise2d_array(x, wt, stride, padding, ledger)
        else:
            got, expected = depthwise3d_array(x, wt, stride, padding, ledger), expected[0]
    assert set(rows) == {1}
    assert np.array_equal(got, expected)
    assert ledger == counts


def test_one_row_blocks_leave_a_front_end_and_lipres_pass_equal():
    """A counted pass of a strided 3-D front end and a downsample LipRes block,
    with every copied phase, im2col and sum built one output row at a time,
    equals the plain pass at the default budgets, with the same ledger. Its
    grouped stages are bit-identical at any budget; its dense stages sum in
    BLAS order, which may round differently over fewer rows."""
    block = build_lipres("downsample", 4, 6)
    nodes = [("ds3d", LayerSpec("ds_conv3d", in_channels=1, out_channels=4, kernel_size=3,
                                temporal_size=3, stride=2, pointwise_mode="partial")),
             ("bn", LayerSpec("batchnorm", in_channels=4)),
             ("act", LayerSpec("relu")),
             *block.layers]
    edges = [("act" if src == "@in" else src, dst) for src, dst in block.edges]
    graph = LayerGraph(nodes=nodes, residual_edges=edges)
    weights = init_weights(graph, seed=7)
    x = rng(24).normal(size=(1, 5, 11, 11)).astype(np.float32)
    plain = run_graph(graph, weights, x)
    counted = run_graph(graph, weights, x, counted=True)
    with _budgets(1):
        blocked = run_graph(graph, weights, x, counted=True)
    np.testing.assert_allclose(blocked.output.as_array(), plain.output.as_array(),
                               rtol=0, atol=1e-6)
    assert blocked.ledger == counted.ledger
    assert np.array_equal(counted.output.as_array(), plain.output.as_array())


def _two_stages(x, dw, pw, stride, padding):
    """The separable layer as its two stages, each a whole kernel call: the
    grouped stage's mid, the output, and the ledger of both."""
    ledger = CounterLedger()
    if dw.ndim == 3:
        mid = depthwise2d_array(x, dw, stride, padding, ledger)
        return mid, conv2d_array(mid, pw, 1, "same", ledger), ledger
    mid = depthwise3d_array(x, dw, stride, padding, ledger)
    return mid, conv3d_array(mid, pw, 1, "same", ledger), ledger


def _separable_cases():
    """(name, x, dw, pw, stride, padding): ds_conv2d over a batch of 1 and 5,
    ds_conv3d with Tp of 1, 3 and 5 over 5, 4 and 2 times (fewer than Tp),
    at stride 1 and 2 and both paddings."""
    g = rng(26)
    for stride in (1, 2):
        for padding in ("same", "valid"):
            for b in (1, 5):
                yield (f"2d-b{b}-s{stride}-{padding}", g.normal(size=(b, 3, 7, 8)),
                       g.normal(size=(3, 3, 3)), g.normal(size=(4, 3, 1, 1)), stride, padding)
            for tp in (1, 3, 5):
                for frames in (5, 4, 2):
                    if padding == "valid" and frames < 3:
                        continue  # a valid temporal kernel of 3 needs 3 frames
                    yield (f"3d-tp{tp}-l{frames}-s{stride}-{padding}",
                           g.normal(size=(3, frames, 7, 8)), g.normal(size=(3, 3, 3, 3)),
                           g.normal(size=(4, 3, tp, 1, 1)), stride, padding)


SEPARABLE_CASES = [tuple(f32(a) if isinstance(a, np.ndarray) else a for a in case)
                   for case in _separable_cases()]


@pytest.mark.parametrize("name,x,dw,pw,stride,padding", SEPARABLE_CASES,
                         ids=[case[0] for case in SEPARABLE_CASES])
def test_fused_separable_walks_equal_their_two_stages(name, x, dw, pw, stride, padding):
    """ds_conv2d_array and ds_conv3d_array sum each block's mid straight into
    its pointwise stage. At a one-row budget and at a budget whose last block
    is ragged, each equals its two stages run whole at the default budget bit
    for bit, with the same ledger; with an identity pointwise stage it is the
    grouped stage alone, bit for bit."""
    fused = ds_conv2d_array if dw.ndim == 3 else ds_conv3d_array
    mid, expected, counts = _two_stages(x, dw, pw, stride, padding)
    # a pointwise stage that passes each mid channel through at its middle tap
    identity = np.zeros((len(dw),) + pw.shape[1:], dtype=np.float32)
    identity[(np.arange(len(dw)), np.arange(len(dw))) + tuple(
        (k - 1) // 2 for k in pw.shape[2:])] = 1

    def check(copy_bytes):
        ledger = CounterLedger()
        with _budgets(copy_bytes) as rows:
            got = fused(x, dw, pw, stride, padding, ledger)
            grouped = fused(x, dw, identity, stride, padding)
        assert np.array_equal(got, expected)
        assert ledger == counts
        assert np.array_equal(grouped, mid)
        return rows

    assert set(check(1)) == {1}
    # the blocked axis: output times, or a batch, or a single frame's output rows
    extent = expected.shape[1] if dw.ndim == 4 else len(x) if len(x) > 1 else expected.shape[2]
    if extent < 3:
        return  # two rows are two blocks of one, or one block of two
    copy_bytes = 8
    while len(set(check(copy_bytes))) == 1:
        assert copy_bytes < 2**20, "no budget gave a ragged last block"
        copy_bytes += copy_bytes // 4


def test_fused_separable_walks_check_their_pointwise_weights():
    """The pointwise weights are checked before any block runs, as the dense
    stage's kernel checked them: their rank, their channels against the
    grouped stage's, and a 1x1 spatial extent."""
    x, dw = np.ones((1, 3, 5, 5), dtype=np.float32), np.ones((3, 3, 3), dtype=np.float32)
    for pw, axis in ((np.ones((4, 3, 1), dtype=np.float32), "rank"),
                     (np.ones((4, 2, 1, 1), dtype=np.float32), "channel"),
                     (np.ones((4, 3, 3, 3), dtype=np.float32), "kernel")):
        with pytest.raises(DimensionMismatch) as exc:
            ds_conv2d_array(x, dw, pw)
        assert exc.value.axis == axis


def _in_place_cases():
    """(name, x, dw, pw, stride, padding) with as many output channels as input
    ones, so the output is no larger than the input: ds_conv2d over a batch of
    1 and 5, ds_conv3d with Tp of 1, 3 and 5 over 5, 4 and 2 times, at
    stride 1 and 2 and both paddings."""
    g = rng(27)
    for stride in (1, 2):
        for padding in ("same", "valid"):
            for b in (1, 5):
                yield (f"2d-b{b}-s{stride}-{padding}", g.normal(size=(b, 4, 7, 8)),
                       g.normal(size=(4, 3, 3)), g.normal(size=(4, 4, 1, 1)), stride, padding)
            for tp in (1, 3, 5):
                for frames in (5, 4, 2):
                    if padding == "valid" and frames < 3:
                        continue  # a valid temporal kernel of 3 needs 3 frames
                    yield (f"3d-tp{tp}-l{frames}-s{stride}-{padding}",
                           g.normal(size=(4, frames, 7, 8)), g.normal(size=(4, 3, 3, 3)),
                           g.normal(size=(4, 4, tp, 1, 1)), stride, padding)


IN_PLACE_CASES = [tuple(f32(a) if isinstance(a, np.ndarray) else a for a in case)
                  for case in _in_place_cases()]


def _channels_last(x, channel=1, size=None):
    """(flat buffer, x's values as a view of it laid out channels last, as a
    kernel leaves its output): every axis but ``channel`` in order, then
    ``channel``. ``size`` elements, x's own by default."""
    buf = np.zeros(size or x.size, dtype=np.float32)
    order = [a for a in range(x.ndim) if a != channel] + [channel]
    view = buf[:x.size].reshape([x.shape[a] for a in order]).transpose(np.argsort(order))
    view[...] = x
    return buf, view


@pytest.mark.parametrize("name,x,dw,pw,stride,padding", IN_PLACE_CASES,
                         ids=[case[0] for case in IN_PLACE_CASES])
def test_separable_walks_write_over_their_own_input(name, x, dw, pw, stride, padding):
    """Given ``out`` over the front of its own channels-last input, a separable
    walk at a one-row budget and at one whose last block is ragged equals a
    call into a fresh buffer bit for bit, with the same ledger, and writes
    into out: every phase is copied before any output row lands."""
    fused = ds_conv2d_array if dw.ndim == 3 else ds_conv3d_array
    counts = CounterLedger()
    expected = fused(x, dw, pw, stride, padding, counts)

    def check(copy_bytes):
        buf, held = _channels_last(x if dw.ndim == 3 else x[None])
        held = held if dw.ndim == 3 else held[0]
        ledger = CounterLedger()
        with _budgets(copy_bytes) as rows:
            got = fused(held, dw, pw, stride, padding, ledger, out=buf[:expected.size])
        assert np.array_equal(got, expected)
        assert ledger == counts
        assert np.shares_memory(got, buf)
        return rows

    assert set(check(1)) == {1}
    extent = expected.shape[1] if dw.ndim == 4 else len(x) if len(x) > 1 else expected.shape[2]
    if extent < 3:
        return  # two rows are two blocks of one, or one block of two
    copy_bytes = 8
    while len(set(check(copy_bytes))) == 1:
        assert copy_bytes < 2**20, "no budget gave a ragged last block"
        copy_bytes += copy_bytes // 4


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("b", [1, 5])
def test_a_walk_whose_output_outgrows_its_input_writes_a_fresh_buffer(b, stride):
    """Output rows larger than the input rows they would land on would
    overwrite rows a later block still loads, so the walk leaves ``out``
    and its input alone and writes a fresh buffer."""
    g = rng(28)
    x, dw = f32(g.normal(size=(b, 2, 7, 8))), f32(g.normal(size=(2, 3, 3)))
    pw = f32(g.normal(size=(8 * stride * stride, 2, 1, 1)))
    expected = ds_conv2d_array(x, dw, pw, stride)
    buf, held = _channels_last(x, size=expected.size)
    with _budgets(1):
        got = ds_conv2d_array(held, dw, pw, stride, out=buf)
    assert np.array_equal(got, expected)
    assert not np.shares_memory(got, buf)
    assert np.array_equal(held, x)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_writes_a_1x1_skip_into_out(stride):
    """A 1x1 conv2d writes into a separate ``out``, and over its own input
    too, since its one phase is copied before any output row lands."""
    g = rng(29)
    x, w = f32(g.normal(size=(5, 4, 6, 6))), f32(g.normal(size=(4, 4, 1, 1)))
    expected = conv2d_array(x, w, stride)
    out = np.empty(expected.size, dtype=np.float32)
    assert np.array_equal(conv2d_array(x, w, stride, out=out), expected)
    assert np.array_equal(out, np.moveaxis(expected, 1, -1).ravel())
    buf, held = _channels_last(x)
    with _budgets(1):
        got = conv2d_array(held, w, stride, out=buf[:expected.size])
    assert np.array_equal(got, expected)
    assert np.shares_memory(got, buf)


@pytest.mark.parametrize("layout", ["channels last", "channels first"])
def test_elementwise_kernels_write_into_out_in_the_inputs_layout(layout):
    """relu, batchnorm and add give the same bytes into ``out``, over their own
    input or into a separate buffer, as into a fresh array; relu and add keep
    the input's memory order."""
    g = rng(30)
    x = f32(g.normal(size=(3, 4, 5, 6)))
    y = f32(g.normal(size=x.shape))
    stats = [f32(g.normal(size=3)) for _ in range(4)]
    stats[1] = np.abs(stats[1])
    ops = {"relu": lambda v, **k: relu_array(v, **k),
           "batchnorm": lambda v, **k: batchnorm_array(v, *stats, **k),
           "add": lambda v, **k: kernels.add_array(v, y, **k)}
    for name, op in ops.items():
        expected = op(x)
        for over_input in (False, True):
            buf, held = _channels_last(x, channel=0) if layout == "channels last" else (
                np.ascontiguousarray(x).ravel(), None)
            held = held if held is not None else buf.reshape(x.shape)
            out = buf if over_input else np.empty(x.size, dtype=np.float32)
            got = op(held, out=out)
            assert np.array_equal(got, expected), (name, over_input)
            assert np.shares_memory(got, out), (name, over_input)
            if name != "batchnorm":
                assert np.argsort(got.strides).tolist() == np.argsort(held.strides).tolist()


def test_out_must_be_a_contiguous_fp32_buffer_of_the_outputs_size():
    x = np.ones((1, 2, 4, 4), dtype=np.float32)
    dw, pw = np.ones((2, 3, 3), dtype=np.float32), np.ones((2, 2, 1, 1), dtype=np.float32)
    for out in (np.empty(31, dtype=np.float32), np.empty(32, dtype=np.float64),
                np.empty(64, dtype=np.float32)[::2], np.empty((4, 8), dtype=np.float32)):
        for call in (lambda: ds_conv2d_array(x, dw, pw, out=out),
                     lambda: relu_array(x, out=out),
                     lambda: batchnorm_array(x[0], *np.ones((4, 2), dtype=np.float32), out=out)):
            with pytest.raises(ValueError, match="out must be"):
                call()


def _channels_first_batchnorm(x, mean, var, gamma, beta, eps):
    """The broadcast form over a (C,1,..,1) scale and shift."""
    span = (-1,) + (1,) * (x.ndim - 1)
    scale = gamma / np.sqrt(var + eps)
    return x * scale.reshape(span) + (beta - mean * scale).reshape(span)


def _channels_leading(g, shape, layout):
    """A seeded (C,*S) float32 value in the given memory layout; a rank-1
    value has only the one."""
    if layout == "contiguous" or len(shape) == 1:
        return g.normal(size=shape).astype(np.float32)
    if layout == "swapaxes":  # (S0,C,...) memory, as per-frame execution leaves it
        return g.normal(size=(shape[1], shape[0], *shape[2:])).astype(np.float32).swapaxes(0, 1)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(
        g.normal(size=shape).astype(np.float32), 0, -1)), -1, 0)


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**16))
@example(shape=[5], layout="contiguous", seed=0)
def test_batchnorm_bit_identical_to_broadcast_form(shape, layout, seed):
    """batchnorm_array equals x * scale + shift bit for bit on every input
    layout and on every rank the kind accepts."""
    g = rng(seed)
    x = _channels_leading(g, shape, layout)
    c = shape[0]
    stats = [g.normal(size=c).astype(np.float32) for _ in range(4)]
    stats[1] = np.abs(stats[1])  # a variance
    got = batchnorm_array(x, *stats, eps=1e-5)
    assert got.shape == x.shape
    assert np.array_equal(got, _channels_first_batchnorm(x, *stats, 1e-5))


# the front end's bn1 and ds3d2 input: (C, L, H, W), channels-last memory
FRONT_END_SHAPE = (32, 29, 48, 48)


def _traced_peak(fn):
    """The bytes fn allocates at its peak, beyond what was live before it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_batchnorm_channels_last_holds_one_activation():
    g = rng(18)
    x = _channels_leading(g, FRONT_END_SHAPE, "channels last")
    stats = [np.ones(FRONT_END_SHAPE[0], dtype=np.float32)] * 4
    peak = _traced_peak(lambda: batchnorm_array(x, *stats))
    assert peak < 1.2 * x.nbytes  # the output, and no second temporary


def test_strided_depthwise3d_holds_the_padded_input_and_two_outputs():
    """The stride phases together are no larger than one padded copy of the input."""
    g = rng(19)
    x = _channels_leading(g, FRONT_END_SHAPE, "channels last")
    w = g.normal(size=(32, 3, 3, 3)).astype(np.float32)
    c, frames, h, wd = FRONT_END_SHAPE
    padded = c * (frames + 2) * (h + 1) * (wd + 1) * x.itemsize  # same padding (1,1), (0,1)
    out = c * frames * (h // 2) * (wd // 2) * x.itemsize
    # the sum and one term, plus 256 KiB for the (27, Wo, C) tap tiles and
    # numpy's iteration buffers over a non-contiguous window (about 63 KB)
    peak = _traced_peak(lambda: depthwise3d_array(x, w, 2))
    assert peak <= padded + 2 * out + 256 * 1024


def test_separable_3d_front_end_holds_its_mid_and_output_and_2_mib():
    """ds3d2 builds its stride phases and its Tp x 1 x 1 im2col one block of
    output times at a time, so beyond its two results it holds at most 2 MiB."""
    g = rng(25)
    x = _channels_leading(g, FRONT_END_SHAPE, "channels last")
    dw = g.normal(size=(32, 3, 3, 3)).astype(np.float32)
    pw = g.normal(size=(64, 32, 3, 1, 1)).astype(np.float32)
    c, frames, h, wd = FRONT_END_SHAPE
    mid = c * frames * (h // 2) * (wd // 2) * x.itemsize
    out = len(pw) * frames * (h // 2) * (wd // 2) * x.itemsize
    peak = _traced_peak(lambda: ds_conv3d_array(x, dw, pw, 2))
    assert peak <= mid + out + 2 * 1024 * 1024


def test_separable_3d_front_end_holds_its_output_and_2_mib_and_no_mid():
    """ds3d2 sums its mid one block of output times at a time straight into
    its Tp x 1 x 1 stage, so beside its output it holds at most 2 MiB, less
    than its whole 2.14 MB mid alone."""
    g = rng(25)
    x = _channels_leading(g, FRONT_END_SHAPE, "channels last")
    dw = g.normal(size=(32, 3, 3, 3)).astype(np.float32)
    pw = g.normal(size=(64, 32, 3, 1, 1)).astype(np.float32)
    _, frames, h, wd = FRONT_END_SHAPE
    out = len(pw) * frames * (h // 2) * (wd // 2) * x.itemsize
    peak = _traced_peak(lambda: ds_conv3d_array(x, dw, pw, 2))
    assert peak <= out + 2 * 1024 * 1024


def test_conv2d_array_rejects_an_unknown_padding():
    x = np.zeros((1, 1, 4, 4), dtype=np.float32)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match=r"padding must be one of \('same', 'valid'\)"):
        conv2d_array(x, w, padding="full")


def test_fc_array_rejects_a_mismatched_input_width():
    with pytest.raises(DimensionMismatch) as exc:
        fc_array(np.zeros(3, dtype=np.float32), np.zeros((4, 5), dtype=np.float32))
    assert exc.value.axis == "features"
    assert exc.value.expected == 5


def _walk(kernel, x, weights, frames, stride, reach, ledger):
    """``kernel`` run through a Frames walk in tiles of ``frames`` output
    frames, each call handed only the input frames within ``reach`` of its
    own; the tiles' outputs stacked along time."""
    walk, tiles = kernels.Frames(x.shape[1]), []
    for f0 in range(0, x.shape[1], frames):
        f1 = min(f0 + frames, x.shape[1])
        walk.start, walk.stop = max(f0 - reach, 0), f1
        tiles.append(kernel(x[:, walk.start:f1 + reach], *weights, stride, "same", ledger,
                            frames=walk))
        assert walk.done == f1
    return np.concatenate(tiles, axis=1)


@settings(max_examples=150, deadline=None)
@given(c=st.integers(1, 3), co=st.integers(1, 3), length=st.integers(1, 9),
       side=st.integers(1, 6), t=st.sampled_from((1, 2, 3, 5)), stride=st.integers(1, 2),
       partial=st.booleans(), frames=st.integers(1, 4), seed=st.integers(0, 99))
def test_a_separable_3d_walk_in_tiles_equals_the_whole_layer(c, co, length, side, t, stride,
                                                             partial, frames, seed):
    """A ds_conv3d walk, in tiles of any size, computes each output frame and
    each mid row once: its output equals the whole layer's to fp32 rounding
    (a GEMM over fewer rows may sum in another order), and its tallies but
    the weight reads equal a whole call's, each call reading the weights once."""
    g = rng(seed)
    x = f32(g.normal(size=(c, length, side, side)))
    dw = f32(g.normal(size=(c, t, 3, 3)))
    pw = f32(g.normal(size=(co, c, t if partial else 1, 1, 1)))
    whole, tiled = CounterLedger(), CounterLedger()
    expected = ds_conv3d_array(x, dw, pw, stride, "same", whole)
    got = _walk(ds_conv3d_array, x, (dw, pw), frames, stride, t // 2 * (1 + partial), tiled)
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)
    calls = -(-length // frames)
    assert (tiled.multiplies, tiled.adds, tiled.activation_reads) == \
        (whole.multiplies, whole.adds, whole.activation_reads)
    assert tiled.param_reads == calls * whole.param_reads


@pytest.mark.parametrize("frames", [1, 2, 4])
def test_a_dense_3d_walk_in_tiles_equals_the_whole_layer(frames):
    """A conv3d walk in tiles matches the whole layer to fp32 rounding (its GEMMs
    sum over fewer rows) with the same multiply count."""
    g = rng(4)
    x, w = f32(g.normal(size=(2, 7, 5, 5))), f32(g.normal(size=(3, 2, 3, 3, 3)))
    whole, tiled = CounterLedger(), CounterLedger()
    expected = conv3d_array(x, w, 2, "same", whole)
    np.testing.assert_allclose(_walk(conv3d_array, x, (w,), frames, 2, 1, tiled), expected,
                               rtol=1e-5, atol=1e-5)
    assert tiled.multiplies == whole.multiplies


def test_a_walk_refuses_a_window_without_its_halo():
    """A call whose window lacks an input frame its output frames read, or
    that asks for frames past the output's end, is a ValueError."""
    g = rng(5)
    x = f32(g.normal(size=(2, 6, 4, 4)))
    dw, pw = f32(g.normal(size=(2, 3, 3, 3))), f32(g.normal(size=(3, 2, 3, 1, 1)))
    walk = kernels.Frames(6)
    walk.start, walk.stop = 0, 2
    with pytest.raises(ValueError, match=r"do not hold frames \[0, 4\)"):
        ds_conv3d_array(x[:, :3], dw, pw, frames=walk)
    walk.stop = 7
    with pytest.raises(ValueError, match=r"output frames \[0, 7\) are not within \[0, 6\)"):
        ds_conv3d_array(x, dw, pw, frames=walk)


def _leaves(value):
    """Every non-container leaf of nested tuples (named tuples included) and
    slices."""
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, slice):
        yield from (value.start, value.stop, value.step)
    else:
        yield value


def test_a_correlations_geometry_holds_only_shapes_ints_and_slices(monkeypatch):
    """Every key and value the geometry memo keeps over a LipRes pass, with
    strided, separable, dense and walked calls, is made of ints, tuples,
    slices and the padding and context strings: no array is kept across
    calls."""
    seen = []
    geometry = kernels._geometry

    def record(*args):
        seen.append((args, geometry(*args)))
        return seen[-1][1]

    monkeypatch.setattr(kernels, "_geometry", record)
    block = build_lipres("downsample", 3, 6)
    nodes = [("stem", LayerSpec("relu"))] + list(block.layers)
    edges = [("stem" if src == "@in" else src, dst) for src, dst in block.edges]
    graph = LayerGraph(nodes=nodes, residual_edges=edges)
    run_graph(graph, init_weights(graph, seed=6), f32(rng(21).normal(size=(3, 5, 9, 9))))
    g = rng(4)
    x, w = f32(g.normal(size=(2, 7, 5, 5))), f32(g.normal(size=(3, 2, 3, 3, 3)))
    _walk(conv3d_array, x, (w,), 2, 2, 1, CounterLedger())
    dw, pw = f32(g.normal(size=(2, 3, 3, 3))), f32(g.normal(size=(3, 2, 3, 1, 1)))
    _walk(ds_conv3d_array, x, (dw, pw), 3, 1, 2, CounterLedger())
    assert seen
    for args, value in seen:
        assert not any(isinstance(leaf, np.ndarray) for leaf in _leaves(value))
        for leaf in _leaves((args, value)):
            assert leaf is None or type(leaf) in (int, bool, str), type(leaf)


def test_a_channel_mismatch_raises_on_every_call():
    """A failed check is not memoized, so the same mismatched call raises
    DimensionMismatch each time, and a good call of those shapes still runs."""
    x, w = f32(rng(7).normal(size=(1, 3, 5, 5))), f32(rng(8).normal(size=(4, 2, 3, 3)))
    for _ in range(2):
        with pytest.raises(DimensionMismatch) as exc:
            conv2d_array(x, w)
        assert exc.value.axis == "channel"
    assert conv2d_array(x[:, :2], w).shape == (1, 4, 5, 5)


@pytest.mark.parametrize("shape", [0, (0, 3), (), 1, 7, (3, 5, 7), (1 << 20,)])
@pytest.mark.parametrize("dtype", [np.float32, np.int32])
def test_empty_starts_a_writeable_c_contiguous_array_on_a_cache_line(shape, dtype):
    """kernels.empty gives np.empty's shape and dtype for empty, one-element,
    odd and large counts, C-contiguous and writeable, with its first element
    on a 64-byte boundary."""
    for _ in range(4):  # numpy's own offset may differ from one buffer to the next
        a = kernels.empty(shape, dtype)
        assert a.shape == np.empty(shape, dtype).shape
        assert a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
        assert kernels._address(a) % 64 == 0
        a[...] = 1
        assert (a == 1).all()


def test_a_correlations_scratch_starts_on_cache_lines(monkeypatch):
    """Every stride phase, tap tile set, product buffer, mid and im2col buffer
    that a LipRes ds_conv2d call and a partial ds_conv3d walk make starts on a
    64-byte boundary, where numpy's allocator leaves a fresh buffer 16 to 48
    bytes past one."""
    made = []
    phase_init, pointwise_init = kernels._Phase.__init__, kernels._Pointwise.__init__
    grouped_sum, dense_block = kernels._grouped_sum, kernels._dense_block

    def phase(self, *args):
        phase_init(self, *args)
        made.append(("phase", self.array))

    def pointwise(self, *args):
        pointwise_init(self, *args)
        made.append(("mid", self.mid))

    def grouped(windows, tiles, out, product):
        made.extend([("tiles", tiles), ("product", product)])
        grouped_sum(windows, tiles, out, product)

    def dense(windows, cols, wt, out):
        if cols is not None:
            made.append(("cols", cols))
        dense_block(windows, cols, wt, out)

    monkeypatch.setattr(kernels._Phase, "__init__", phase)
    monkeypatch.setattr(kernels._Pointwise, "__init__", pointwise)
    monkeypatch.setattr(kernels, "_grouped_sum", grouped)
    monkeypatch.setattr(kernels, "_dense_block", dense)
    spec = dict(build_lipres("downsample", 3, 6).layers)["ds1"]
    weights = init_weights(LayerGraph(nodes=[("ds1", spec)]), seed=6)["ds1"]
    counted_forward(spec, f32(rng(21).normal(size=(3, 5, 9, 9))), weights)
    g = rng(4)
    x = f32(g.normal(size=(2, 7, 5, 5)))
    dw, pw = f32(g.normal(size=(2, 3, 3, 3))), f32(g.normal(size=(3, 2, 3, 1, 1)))
    _walk(ds_conv3d_array, x, (dw, pw), 3, 1, 2, CounterLedger())
    assert {kind for kind, _ in made} == {"phase", "mid", "tiles", "product", "cols"}
    for kind, array in made:
        assert kernels._address(array) % 64 == 0, kind


# every correlation kernel: (kernel, input axes, weight axes per tensor); a
# separable kernel's pointwise stage is Tp x 1 x 1 (partial) or 1x1
CORRELATIONS = {
    **{name: (kernel, x_axes, (w_axes,)) for name, (kernel, x_axes, w_axes, _)
       in KERNEL_CASES.items()},
    "ds_conv2d": (ds_conv2d_array, "bchw", ("ckk", "oc11")),
    "ds_conv3d": (ds_conv3d_array, "clhw", ("ctkk", "oct11")),
    "ds_conv3d full": (ds_conv3d_array, "clhw", ("ctkk", "oc111")),
}
CORRELATION_DIMS = st.fixed_dictionaries({
    "b": st.integers(1, 3), "c": st.integers(1, 3), "o": st.integers(1, 3),
    "t": st.integers(1, 3), "k": st.integers(1, 3),
    "l": st.integers(3, 7), "h": st.integers(3, 6), "w": st.integers(3, 6)})


def _correlation(name, dims, seed, stride, padding):
    """call(**kwargs): the kernel on seeded data; whether its channel axis is
    1, behind a batch axis; and the extent of the input's axis 1."""
    kernel, x_axes, w_axes = CORRELATIONS[name]
    g = rng(seed)
    sizes = {**dims, "1": 1}
    x = f32(g.normal(size=[sizes[a] for a in x_axes]))
    weights = [f32(g.normal(size=[sizes[a] for a in axes])) for axes in w_axes]
    return (lambda **kwargs: kernel(x, *weights, stride, padding, None, **kwargs)), \
        x_axes[0] == "b", x.shape[1]


def _walked(call, total, length, frames, **kwargs):
    """A 3-D correlation's ``length`` output frames, of an input of ``total``,
    computed [0, frames), [frames, 2 * frames), ... through one Frames walk,
    each call given the whole input and its frames of any epilogue operand."""
    walk, tiles = kernels.Frames(total), []
    epilogue = kwargs.pop("epilogue", ())
    for f0 in range(0, length, frames):
        walk.stop = min(f0 + frames, length)
        steps = [(ufunc, a[:, f0:walk.stop] if np.ndim(a) > 1 else a) for ufunc, a in epilogue]
        tiles.append(call(frames=walk, epilogue=steps, **kwargs))
    return np.concatenate(tiles, axis=1)


@pytest.mark.parametrize("name", CORRELATIONS)
@settings(max_examples=25, deadline=None)
@given(dims=CORRELATION_DIMS, stride=st.sampled_from([1, 2]),
       padding=st.sampled_from(["same", "valid"]), seed=st.integers(0, 2**16),
       copy_bytes=st.sampled_from([1, kernels._COPY_BYTES]))
def test_an_epilogue_equals_the_elementwise_kernels_after_the_correlation(
        name, dims, stride, padding, seed, copy_bytes):
    """A correlation given batchnorm, relu and a residual add as its epilogue,
    run on each block of output rows (one row per block under a copy budget
    of 1 byte), equals batchnorm_array, relu_array and add_array run on its
    output, computed with the same blocks, in turn, bit for bit; so does a
    3-D layer's Frames walk."""
    call, batched, total = _correlation(name, dims, seed, stride, padding)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_COPY_BYTES", copy_bytes)
        try:
            plain = call()
        except DimensionMismatch:  # valid padding past an extent
            return
    g = rng(seed + 1)
    co = plain.shape[1 if batched else 0]
    mean, gamma, beta = (f32(g.normal(size=co)) for _ in range(3))
    var = f32(np.abs(g.normal(size=co)))
    y = f32(g.normal(size=plain.shape))
    fold = (lambda a: a.swapaxes(0, 1)) if batched else (lambda a: a)
    expected = add_array(relu_array(fold(batchnorm_array(fold(plain), mean, var, gamma, beta))),
                         y)
    epilogue = [*batchnorm_steps(mean, var, gamma, beta), kernels.RELU, (np.add, y)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_COPY_BYTES", copy_bytes)
        got = call(epilogue=epilogue)
        if "3d" in name:
            walked = _walked(call, total, plain.shape[1], 2, epilogue=epilogue)
            unfused = _walked(call, total, plain.shape[1], 2)
    assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
    if "3d" in name:
        assert walked.tobytes() == np.ascontiguousarray(add_array(relu_array(batchnorm_array(
            unfused, mean, var, gamma, beta)), y)).tobytes()


def test_an_epilogue_operand_of_another_shape_is_refused():
    x, w = f32(rng(1).normal(size=(2, 3, 5, 5))), f32(rng(2).normal(size=(4, 3, 1, 1)))
    with pytest.raises(ValueError, match="epilogue operand"):
        conv2d_array(x, w, epilogue=[(np.add, np.zeros((2, 4, 5, 4), np.float32))])
