"""Reference layer kernels with instrumented operation counting.

Every convolution (2-D, 3-D, 1-D temporal, and both stages of the separable
layers) runs through one correlation core, ``_correlate``, with dense
filters that mix channels or per-channel filters. Each separable kernel is
its grouped stage followed by one dense core call for its pointwise stage.

The core works channels last. It moves the input to (B,*S,C) and splits the
zero-padded input by stride phase, building only the phases some kernel
offset reads (a stride-2 1x1 skip needs one). At stride 1 that is a single
buffer, the padded copy, or no copy at all when nothing is padded and the
input is already contiguous. Every offset then reads a stride-1 (B,*So,C)
window of one phase, so its (Wo,C) rows are contiguous at any stride. The
result is a (B,Co,*So) view of a channels-last buffer.

* A per-channel stage is summed block-outer, tap-inner (loop tiling for
  locality, Wolf & Lam, 1991). The fp32 output is split along its leading
  axis (the batch, or the output time axis when the batch is 1) into blocks
  of about _BLOCK_BYTES = 256 KiB. Each block takes all 9 (2-D) or 27 (3-D)
  taps in np.ndindex order before the next block starts: the first tap's
  product is written straight into the block, and each later one into a
  single product buffer, reused across taps and blocks, then added in place.
  The block, the buffer and the window rows they read stay in a core's L2
  (2 MiB on the measured host) across all taps; a tap streaming the whole
  activation runs at L3 speed instead, and 2 MiB blocks lost most of the
  gain. Each tap multiplies a window by its (C,) tap tiled to (Wo,C), so
  numpy's inner loop spans Wo*C elements rather than the Wo (3 in the
  deepest stage) a channels-first broadcast gives. Each output element gets
  the same fp32 multiply-adds in the same order as a channels-first sum, so
  per-channel outputs are bit-identical to it.
* A dense filter has at most 3 offsets in this family (the 1x1 skips and
  pointwise stages, the k=3 temporal conv, the Tp x 1 x 1 temporal pointwise
  stage). Its windows are stacked channel-major into one (B*So, Ci*K)
  matrix, a bounded im2col (Chellapilla et al., 2006), whose column order is
  that of the weights' own (Co, Ci*K) reshape, so they are contracted in one
  GEMM with no copy of the weights; a 1x1 stage's one window is its whole
  phase, so it is not copied again. The GEMM sums in BLAS order, so dense
  outputs match a plain offset sum only to within fp32 rounding (the
  tolerance of tests/_reference.py).

``batchnorm_array`` lays any input out channels last (which copies nothing
for a kernel's channels-last output) and works on (rows, W*C) against
scale and shift tiled to W*C, with the shift added in place: the same fp32
operations as the broadcast form, so bit-identical to it, with one
activation-sized temporary fewer. Relu and residual adds keep the channels-
last memory order, so each layer's move to channels last is a contiguous
copy, or no copy when nothing is padded.

Kernels check only what their own arithmetic needs: the input's channel
count against the weights (axis "channel"), ranks, stride and padding. The
layer shape rules (input ranks, leading extents, output shapes, the depth of
a separable pointwise stage) live once in ``graph.LAYER_KINDS``; run_graph
applies them to the whole graph through ``graph.shape_infer`` before any
kernel runs. Output extents come from ``graph.out_extent`` alone: the core
derives its zero padding from them, and max pooling its length.

Counting conventions, applied whenever a CounterLedger is passed in:

* a dot product of n terms costs n multiplies and n accumulator adds, so
  flops are exactly 2x the multiply count;
* each weight element is read once per forward pass (weight stationary);
* convolutions read one activation per multiply, zero padding included;
* matrix-vector layers read each input element exactly once;
* only a layer's final output is written; stage intermediates are not;
* relu, pooling, normalization, softmax and residual adds are free.

Counting never touches the numeric path: a counted call produces output
bit-identical to the uncounted one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch
from .graph import PADDINGS, out_extent

# names of the correlated axes, by their count, for error messages
_AXES = {1: ("time",), 2: ("height", "width"), 3: ("time", "height", "width")}
# fp32 output bytes per block of a grouped stage's sum: with its product
# buffer and the window rows it reads, a block stays in a core's L2
_BLOCK_BYTES = 256 * 1024


def _check_padding(padding):
    if padding not in PADDINGS:
        raise ValueError(f"padding must be one of {PADDINGS}, got {padding!r}")


def _check_stride(stride):
    # bool is an int subclass, but True is no stride
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive int, got {stride!r}")


# ---------------------------------------------------------------------------
# array-level cores; batched where per-frame execution needs it
# ---------------------------------------------------------------------------


def _windows(xl, outs, kernel, strides, leads):
    """Each kernel offset's (B,*So,C) window of the channels-last input xl
    (B,*S,C), zero-padded by ``leads`` before each axis, in np.ndindex order.

    Phase p of an axis holds the padded positions p, p+s, p+2s, ..., so the
    window of offset o is the stride-1 slice [o//s, o//s + So) of phase o % s.
    A phase is built zero-filled with the input copied in, or, when it reads
    no padding, as the input slice made contiguous.
    """
    phases, windows = {}, []
    for offset in np.ndindex(*kernel):
        phase = tuple(o % s for o, s in zip(offset, strides))
        if phase not in phases:
            extents, dst, src = [len(xl)], [slice(None)], [slice(None)]
            for p, m, k, s, so, lo in zip(phase, xl.shape[1:-1], kernel, strides, outs, leads):
                extent = so + (k - 1 - p) // s  # as far as this phase's last offset reads
                first = max(-((p - lo) // s), 0)  # the first phase index inside the input
                count = max(min(extent, -((p - lo - m) // s)) - first, 0)
                start = p + first * s - lo
                extents.append(extent)
                dst.append(slice(first, first + count))
                src.append(slice(start, start + count * s, s))
            inside = xl[tuple(src)]
            if inside.shape[:-1] == tuple(extents):
                phases[phase] = np.ascontiguousarray(inside)
            else:
                phases[phase] = np.zeros((*extents, xl.shape[-1]), dtype=xl.dtype)
                phases[phase][tuple(dst)] = inside
        windows.append(phases[phase][(slice(None),) + tuple(
            slice(o // s, o // s + m) for o, s, m in zip(offset, strides, outs))])
    return windows


def _grouped_sum(windows, w):
    """The fp32 sum of each (B,*So,C) window times its offset's (C,) tap of the
    grouped weights w (C,*K), one output block at a time.

    The blocks split the leading axis (the batch, or the first output axis
    when the batch is 1) into about _BLOCK_BYTES of output each. Every tap,
    tiled to (Wo,C), is summed into a block before the next block starts.
    The product buffer has the operands' result dtype, as a fresh temporary
    would, so each element's fp32 sum is that of a whole-array tap loop.
    """
    *_, wo, c = windows[0].shape
    tiles = np.broadcast_to(np.moveaxis(w, 0, -1).reshape(-1, 1, c),
                            (len(windows), wo, c)).copy()
    out = np.empty(windows[0].shape, dtype=np.float32)
    blocked, views = (out, windows) if len(out) > 1 else (out[0], [v[0] for v in windows])
    rows = max(_BLOCK_BYTES // blocked[0].nbytes, 1)
    product = np.empty((min(rows, len(blocked)), *blocked.shape[1:]),
                       dtype=np.result_type(windows[0], tiles))
    for start in range(0, len(blocked), rows):
        block = blocked[start:start + rows]
        np.multiply(views[0][start:start + rows], tiles[0], out=block)
        term = product[:len(block)]
        for view, tile in zip(views[1:], tiles[1:]):
            np.multiply(view[start:start + rows], tile, out=term)
            block += term
    return out


def _correlate(x, w, strides, padding, ledger, grouped, context):
    """Correlate a (B,C,*S) batch over its trailing len(strides) axes.

    Dense weights (Co,Ci,*K) mix channels and give (B,Co,*So); grouped
    weights (C,*K) hold one filter per channel and give (B,C,*So). Either
    result is a view of a channels-last buffer.
    """
    for stride in strides:
        _check_stride(stride)
    _check_padding(padding)
    n = len(strides)
    w_rank = n + 1 if grouped else n + 2
    if x.ndim != n + 2 or w.ndim != w_rank:
        raise DimensionMismatch("rank", (n + 2, w_rank), (x.ndim, w.ndim),
                                f"{context} input and weights")
    _, c, *size = x.shape
    kernel = w.shape[-n:]
    cw = w.shape[0] if grouped else w.shape[1]
    if cw != c:
        raise DimensionMismatch("channel", cw, c, f"{context} input vs weights")
    if n > 1 and kernel[-2] != kernel[-1]:
        kh, kw = kernel[-2:]
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", f"{context} weights")
    outs = [out_extent(m, k, s, padding, axis)
            for m, k, s, axis in zip(size, kernel, strides, _AXES[n])]
    # the leading zero padding that gives those extents: half the total, rounded down
    leads = [max((o - 1) * s + k - m, 0) // 2 for o, s, k, m in zip(outs, strides, kernel, size)]
    windows = _windows(np.moveaxis(x, 1, -1), outs, kernel, strides, leads)
    if grouped:
        out = _grouped_sum(windows, w)
    else:
        # one (B*So, Ci*K) x (Ci*K, Co) GEMM over the windows stacked channel-
        # major, against the weights' own (Co, Ci*K) rows, a view with no copy;
        # a 1x1 stage's one window is its whole phase, used as is
        cols = windows[0] if len(windows) == 1 else np.stack(windows, axis=-1)
        cols = cols.reshape(-1, c * len(windows))
        out = (cols @ w.reshape(len(w), -1).T).astype(np.float32, copy=False)
        out = out.reshape(*windows[0].shape[:-1], -1)
    if ledger is not None:
        n = (out.size if grouped else out.size * c) * math.prod(kernel)
        ledger.multiplies += n
        ledger.adds += n
        ledger.param_reads += w.size
        ledger.activation_reads += n  # one activation per multiply
    return np.moveaxis(out, -1, 1)


def conv2d_array(x, w, stride=1, padding="same", ledger=None):
    """Batched 2-D cross-correlation: (B,Ci,H,W) x (Co,Ci,K,K) -> (B,Co,Ho,Wo)."""
    return _correlate(x, w, (stride, stride), padding, ledger, False, "conv2d")


def depthwise2d_array(x, w, stride=1, padding="same", ledger=None):
    """Grouped 2-D stage, groups == channels: (B,C,H,W) x (C,K,K) -> (B,C,Ho,Wo)."""
    return _correlate(x, w, (stride, stride), padding, ledger, True, "depthwise")


def conv3d_array(x, w, stride=1, padding="same", ledger=None):
    """3-D cross-correlation, temporal stride 1: (Ci,L,H,W) x (Co,Ci,T,K,K) -> (Co,Lo,Ho,Wo)."""
    return _correlate(x[None], w, (1, stride, stride), padding, ledger, False, "conv3d")[0]


def depthwise3d_array(x, w, stride=1, padding="same", ledger=None):
    """Grouped 3-D stage, temporal stride 1: (C,L,H,W) x (C,T,K,K) -> (C,Lo,Ho,Wo)."""
    return _correlate(x[None], w, (1, stride, stride), padding, ledger, True, "depthwise")[0]


def conv1d_array(x, w, stride=1, padding="same", ledger=None):
    """1-D cross-correlation over time: (Ci,L) x (Co,Ci,k) -> (Co,Lo)."""
    return _correlate(x[None], w, (stride,), padding, ledger, False, "temporal conv")[0]


def ds_conv2d_array(x, dw, pw, stride=1, padding="same", ledger=None):
    """Depthwise-separable 2-D conv on a batch: the grouped stage, then a dense
    1x1 pointwise stage; only the final output is written.

    Returns a (B,Co,Ho,Wo) view of a channels-last buffer.
    """
    mid = depthwise2d_array(x, dw, stride, padding, ledger)
    return conv2d_array(mid, pw, 1, "same", ledger)


def ds_conv3d_array(x, dw, pw, stride=1, padding="same", ledger=None):
    """Depthwise-separable 3-D conv: the grouped stage, then a dense Tp x 1 x 1
    pointwise stage at stride 1 with same padding, so the frame count is kept.

    Tp is read off the pointwise weights (Co,Ci,Tp,1,1); the layer spec fixes it.
    """
    mid = depthwise3d_array(x, dw, stride, padding, ledger)
    return conv3d_array(mid, pw, 1, "same", ledger)


def fc_array(x, w, ledger=None):
    """Matrix-vector product, no bias: (I,) x (Q,I) -> (Q,)."""
    q, i = w.shape
    if x.shape != (i,):
        raise DimensionMismatch("features", i, x.shape, "fully connected input vs weights")
    out = w @ x
    if ledger is not None:
        ledger.multiplies += i * q
        ledger.adds += i * q
        ledger.param_reads += i * q
        ledger.activation_reads += i  # the input vector is read once
    return out


def maxpool1d_array(x, window, stride):
    """Max pooling over the last axis, valid extent arithmetic."""
    _check_stride(stride)
    lo = out_extent(x.shape[-1], window, stride, "valid", "time")
    out = x[..., 0 : (lo - 1) * stride + 1 : stride].copy()
    for j in range(1, window):
        np.maximum(out, x[..., j : j + (lo - 1) * stride + 1 : stride], out=out)
    return out


def relu_array(x):
    return np.maximum(x, 0)


def batchnorm_array(x, mean, var, gamma, beta, eps=1e-5):
    """Inference-time normalization over the leading channel axis."""
    if x.shape[0] != mean.shape[0]:
        raise DimensionMismatch("channel", mean.shape[0], x.shape[0],
                                "batchnorm input vs statistics")
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    # channels last, copied only when not already; numpy's inner loop then
    # spans a whole (W*C) row, not the C channels. A rank-1 input is one row.
    last = np.ascontiguousarray(np.moveaxis(x, 0, -1))
    width = x.shape[-1] if x.ndim > 1 else 1
    out = last.reshape(-1, width * len(scale)) * np.tile(scale, width)
    out += np.tile(shift, width)
    return np.moveaxis(out.reshape(last.shape), -1, 0)


def softmax_array(x):
    """Numerically stabilized softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)
