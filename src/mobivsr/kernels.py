"""Reference layer kernels with instrumented operation counting.

Every convolution (2-D, 3-D, 1-D temporal, and the depthwise stages of the
separable layers) runs through one correlation core, ``_correlate``, with
dense filters that mix channels or per-channel filters: an explicit sum over
kernel offsets, vectorized across positions and channels but never
rearranged (no im2col, no FFT). The 1x1 stage of the separable 2-D
convolution has a single offset, so it runs as one batched matmul over the
positions, counted exactly as a 1x1 convolution would be. These kernels are
the correctness and counting oracle for the analytical cost formulas, not a
performance target.

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
    weights (C,*K) hold one filter per channel and give (B,C,*So).
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
    xp = np.pad(x, [(0, 0), (0, 0)] + [_pad_amounts(m, k, s, padding)
                                       for m, k, s in zip(size, kernel, strides)])
    out = np.zeros((b, w.shape[0], *outs), dtype=np.float32)
    per_offset = out.size if grouped else out.size * c
    for offset in np.ndindex(*kernel):
        patch = xp[(...,) + tuple(slice(o, o + (m - 1) * s + 1, s)
                                  for o, m, s in zip(offset, outs, strides))]
        tap = w[(...,) + offset]
        if grouped:
            out += patch * tap.reshape((c,) + (1,) * n)
        else:
            # (Co,Ci) . (B,Ci,*So) contracted over Ci -> (Co,B,*So)
            out += np.tensordot(tap, patch, axes=(1, 1)).swapaxes(0, 1)
        _tally(ledger, per_offset)
    _tally_params(ledger, w)
    return out


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
    """Depthwise-separable 2-D conv on a batch; only the final output is written."""
    b, c = x.shape[:2]
    co, ciw = pw.shape[:2]
    if ciw != c:
        raise DimensionMismatch("channel", ciw, c, "pointwise weights vs depthwise stage")
    mid = depthwise2d_array(x, dw, stride, padding, ledger)
    ho, wo = mid.shape[2:]
    # the 1x1 stage as one (Co,Ci) x (B,Ci,Ho*Wo) matmul, tallied as a 1x1 conv2d
    out = np.matmul(pw.reshape(co, ciw), mid.reshape(b, ciw, ho * wo)).reshape(b, co, ho, wo)
    _tally(ledger, b * ciw * co * ho * wo)
    _tally_params(ledger, pw)
    return out


def ds_conv3d_array(x, dw, pw, stride=1, pointwise_mode="partial", padding="same", ledger=None):
    """Depthwise-separable 3-D conv.

    The pointwise stage mixes channels with a Tp x 1 x 1 kernel; Tp equals the
    depthwise temporal size in partial mode (time axis preserved and mixed) and
    1 in full mode. The pointwise stage is always stride 1 and keeps the frame
    count (same padding along time).
    """
    cw, t = dw.shape[0], dw.shape[1]
    co, ciw, tp = pw.shape[0], pw.shape[1], pw.shape[2]
    if ciw != cw:
        raise DimensionMismatch("channel", cw, ciw, "pointwise weights vs depthwise stage")
    if pointwise_mode == "partial":
        if tp != t:
            raise DimensionMismatch("pointwise time", t, tp, "partial pointwise kernel")
    elif pointwise_mode == "full":
        if tp != 1:
            raise DimensionMismatch("pointwise time", 1, tp, "full pointwise kernel")
    else:
        raise ValueError(f"pointwise_mode must be 'partial' or 'full', got {pointwise_mode!r}")
    mid = depthwise3d_array(x, dw, stride=stride, padding=padding, ledger=ledger)
    return conv3d_array(mid, pw.reshape(co, ciw, tp, 1, 1), stride=1, padding="same",
                        ledger=ledger)


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


def maxpool1d_array(x, window, stride=None):
    """Max pooling over the last axis, valid extent arithmetic."""
    stride = window if stride is None else stride
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
    span = (-1,) + (1,) * (x.ndim - 1)
    scale = gamma / np.sqrt(var + eps)
    return x * scale.reshape(span) + (beta - mean * scale).reshape(span)


def softmax_array(x):
    """Numerically stabilized softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)
