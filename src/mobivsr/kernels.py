"""Reference layer kernels with instrumented operation counting.

Every convolution (2-D, 3-D, 1-D temporal, and the depthwise stages of the
separable layers) runs through one correlation core, ``_correlate``, with
dense filters that mix channels or per-channel filters: an explicit sum over
kernel offsets, vectorized across positions and channels but never
rearranged (no im2col, no FFT).

The core works channels last. It moves the input to (B,*S,C), pads it once
and accumulates into a (B,*So,Co) buffer; it returns a (B,Co,*So) view of
that buffer. A dense offset is one (B*So,Ci) x (Ci,Co) contraction. A
per-channel offset multiplies its (C,) tap, tiled along the last output
axis, into (Wo,C) rows that are contiguous at stride 1, so numpy's inner
loop spans Wo*C elements rather than the Wo (3 in the deepest stage) a
channels-first broadcast gives. Each output element gets the same fp32
multiply-adds in the same offset order as a channels-first sum, so the
per-channel outputs are bit-identical to it.

The 1x1 stage of the separable 2-D convolution reads the depthwise buffer
directly as one (B*Ho*Wo,Ci) x (Ci,Co) GEMM, counted exactly as a 1x1
convolution would be, and also returns a (B,Co,Ho,Wo) view of channels-last
memory. Relu and residual adds keep that memory order, so each layer's move
to channels last is a contiguous copy.

Kernels check only what their own arithmetic needs: the input's channel
count against the weights (axis "channel"), ranks, stride and padding. The
layer shape rules (input ranks, leading extents, output shapes, the depth of
a separable pointwise stage) live once in ``graph.LAYER_KINDS``; run_graph
applies them to the whole graph through ``graph.shape_infer`` before any
kernel runs.

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

import numpy as np

from .errors import DimensionMismatch

_PADDINGS = ("same", "valid")
# names of the correlated axes, by their count, for error messages
_AXES = {1: ("time",), 2: ("height", "width"), 3: ("time", "height", "width")}


def _check_padding(padding):
    if padding not in _PADDINGS:
        raise ValueError(f"padding must be one of {_PADDINGS}, got {padding!r}")


def _check_stride(stride):
    # bool is an int subclass, but True is no stride
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive int, got {stride!r}")


def out_extent(n, kernel, stride, padding, axis="spatial"):
    """Output extent of a correlation along one axis."""
    if padding == "same":
        return -(-n // stride)
    if n < kernel:
        raise DimensionMismatch(axis, f"extent >= kernel size {kernel}", n, "valid padding")
    return (n - kernel) // stride + 1


def _pad_amounts(n, kernel, stride, padding):
    if padding == "valid":
        return (0, 0)
    out = -(-n // stride)
    total = max((out - 1) * stride + kernel - n, 0)
    lo = total // 2
    return (lo, total - lo)


def _tally(ledger, n):
    if ledger is not None:
        n = int(n)
        ledger.multiplies += n
        ledger.adds += n
        ledger.activation_reads += n


def _tally_params(ledger, weights):
    if ledger is not None:
        ledger.param_reads += int(weights.size)


# ---------------------------------------------------------------------------
# array-level cores; batched where per-frame execution needs it
# ---------------------------------------------------------------------------


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
    b, c, *size = x.shape
    kernel = w.shape[-n:]
    cw = w.shape[0] if grouped else w.shape[1]
    if cw != c:
        raise DimensionMismatch("channel", cw, c, f"{context} input vs weights")
    if n > 1 and kernel[-2] != kernel[-1]:
        kh, kw = kernel[-2:]
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", f"{context} weights")
    outs = [out_extent(m, k, s, padding, axis)
            for m, k, s, axis in zip(size, kernel, strides, _AXES[n])]
    pads = [_pad_amounts(m, k, s, padding) for m, k, s in zip(size, kernel, strides)]
    # np.pad keeps an F-ordered input F-ordered (a (1,L,C) move of a (C,L)
    # sequence is one); the contractions below must see one layout
    xp = np.ascontiguousarray(np.pad(np.moveaxis(x, 1, -1), [(0, 0), *pads, (0, 0)]))
    out = np.zeros((b, *outs, w.shape[0]), dtype=np.float32)
    per_offset = out.size if grouped else out.size * c
    # kernel axes first: taps[offset] is a contiguous (C,) tap or (Co,Ci) matrix
    taps = np.ascontiguousarray(np.moveaxis(w, range(w_rank - n), range(n, w_rank)))
    for offset in np.ndindex(*kernel):
        patch = xp[(slice(None),) + tuple(slice(o, o + (m - 1) * s + 1, s)
                                          for o, m, s in zip(offset, outs, strides))]
        if grouped:
            # the tap tiled along the last output axis, so the multiply-add
            # runs over (Wo, C) rows, contiguous at stride 1
            out += patch * np.broadcast_to(taps[offset], (outs[-1], c)).copy()
        else:
            # (B,*So,Ci) . (Co,Ci) contracted over Ci -> (B,*So,Co)
            out += np.tensordot(patch, taps[offset], axes=(-1, 1))
        _tally(ledger, per_offset)
    _tally_params(ledger, w)
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
    """Depthwise-separable 2-D conv on a batch; only the final output is written.

    Returns a (B,Co,Ho,Wo) view of a channels-last buffer.
    """
    c = x.shape[1]
    co, ciw = pw.shape[:2]
    if ciw != c:
        raise DimensionMismatch("channel", ciw, c, "pointwise weights vs depthwise stage")
    # the depthwise stage's buffer, channels last: (B,Ho,Wo,Ci), contiguous
    mid = np.moveaxis(depthwise2d_array(x, dw, stride, padding, ledger), 1, -1)
    # the 1x1 stage as one (B*Ho*Wo,Ci) x (Ci,Co) GEMM, tallied as a 1x1 conv2d
    out = (mid.reshape(-1, ciw) @ pw.reshape(co, ciw).T).reshape(*mid.shape[:-1], co)
    _tally(ledger, out.size * ciw)
    _tally_params(ledger, pw)
    return np.moveaxis(out, -1, 1)


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
    n = x.shape[-1]
    if n < window:
        raise DimensionMismatch("time", f"extent >= window {window}", n, "maxpool")
    lo = (n - window) // stride + 1
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
    span = (-1,) + (1,) * (x.ndim - 1)
    scale = gamma / np.sqrt(var + eps)
    return x * scale.reshape(span) + (beta - mean * scale).reshape(span)


def softmax_array(x):
    """Numerically stabilized softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)
