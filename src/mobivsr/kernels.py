"""Reference layer kernels with instrumented operation counting.

Every convolution is computed as a direct cross-correlation: an explicit sum
over kernel offsets, vectorized across positions and channels but never
rearranged (no im2col, no FFT). The 1x1 stage of the separable 2-D
convolution has a single offset, so it runs as one batched matmul over the
positions; it is still that direct correlation, and it is counted exactly
as a 1x1 convolution would be. These kernels are the correctness and
counting oracle for the analytical cost formulas, not a performance target.

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


def _check_padding(padding):
    if padding not in _PADDINGS:
        raise ValueError(f"padding must be one of {_PADDINGS}, got {padding!r}")


def _check_stride(stride):
    if not isinstance(stride, (int, np.integer)) or stride < 1:
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


def conv2d_array(x, w, stride=1, padding="same", ledger=None):
    """Batched 2-D cross-correlation: (B,Ci,H,W) x (Co,Ci,K,K) -> (B,Co,Ho,Wo)."""
    _check_stride(stride)
    _check_padding(padding)
    b, ci, h, wd = x.shape
    co, ciw, kh, kw = w.shape
    if ciw != ci:
        raise DimensionMismatch("channel", ciw, ci, "conv2d input vs weights")
    if kh != kw:
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", "conv2d weights")
    ho = out_extent(h, kh, stride, padding, "height")
    wo = out_extent(wd, kw, stride, padding, "width")
    xp = np.pad(x, ((0, 0), (0, 0), _pad_amounts(h, kh, stride, padding),
                    _pad_amounts(wd, kw, stride, padding)))
    out = np.zeros((b, co, ho, wo), dtype=np.float32)
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[:, :, ky : ky + (ho - 1) * stride + 1 : stride,
                       kx : kx + (wo - 1) * stride + 1 : stride]
            # (Co,Ci) . (B,Ci,Ho,Wo) contracted over Ci -> (Co,B,Ho,Wo)
            out += np.tensordot(w[:, :, ky, kx], patch, axes=(1, 1)).swapaxes(0, 1)
            _tally(ledger, b * ci * co * ho * wo)
    _tally_params(ledger, w)
    return out


def depthwise2d_array(x, w, stride=1, padding="same", ledger=None):
    """Grouped 2-D stage, groups == channels: (B,C,H,W) x (C,K,K) -> (B,C,Ho,Wo)."""
    _check_stride(stride)
    _check_padding(padding)
    b, c, h, wd = x.shape
    cw, kh, kw = w.shape
    if cw != c:
        raise DimensionMismatch("channel", cw, c, "depthwise input vs weights")
    if kh != kw:
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", "depthwise weights")
    ho = out_extent(h, kh, stride, padding, "height")
    wo = out_extent(wd, kw, stride, padding, "width")
    xp = np.pad(x, ((0, 0), (0, 0), _pad_amounts(h, kh, stride, padding),
                    _pad_amounts(wd, kw, stride, padding)))
    out = np.zeros((b, c, ho, wo), dtype=np.float32)
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[:, :, ky : ky + (ho - 1) * stride + 1 : stride,
                       kx : kx + (wo - 1) * stride + 1 : stride]
            out += patch * w[:, ky, kx][None, :, None, None]
            _tally(ledger, b * c * ho * wo)
    _tally_params(ledger, w)
    return out


def conv3d_array(x, w, stride=1, temporal_stride=1, padding="same", ledger=None):
    """3-D cross-correlation: (Ci,L,H,W) x (Co,Ci,T,K,K) -> (Co,Lo,Ho,Wo)."""
    _check_stride(stride)
    _check_stride(temporal_stride)
    _check_padding(padding)
    ci, ln, h, wd = x.shape
    co, ciw, t, kh, kw = w.shape
    if ciw != ci:
        raise DimensionMismatch("channel", ciw, ci, "conv3d input vs weights")
    if kh != kw:
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", "conv3d weights")
    lo = out_extent(ln, t, temporal_stride, padding, "time")
    ho = out_extent(h, kh, stride, padding, "height")
    wo = out_extent(wd, kw, stride, padding, "width")
    xp = np.pad(x, ((0, 0), _pad_amounts(ln, t, temporal_stride, padding),
                    _pad_amounts(h, kh, stride, padding),
                    _pad_amounts(wd, kw, stride, padding)))
    out = np.zeros((co, lo, ho, wo), dtype=np.float32)
    for kt in range(t):
        for ky in range(kh):
            for kx in range(kw):
                patch = xp[:, kt : kt + (lo - 1) * temporal_stride + 1 : temporal_stride,
                           ky : ky + (ho - 1) * stride + 1 : stride,
                           kx : kx + (wo - 1) * stride + 1 : stride]
                out += np.tensordot(w[:, :, kt, ky, kx], patch, axes=(1, 0))
                _tally(ledger, ci * co * lo * ho * wo)
    _tally_params(ledger, w)
    return out


def depthwise3d_array(x, w, stride=1, temporal_stride=1, padding="same", ledger=None):
    """Grouped 3-D stage: (C,L,H,W) x (C,T,K,K) -> (C,Lo,Ho,Wo)."""
    _check_stride(stride)
    _check_stride(temporal_stride)
    _check_padding(padding)
    c, ln, h, wd = x.shape
    cw, t, kh, kw = w.shape
    if cw != c:
        raise DimensionMismatch("channel", cw, c, "depthwise input vs weights")
    if kh != kw:
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", "depthwise weights")
    lo = out_extent(ln, t, temporal_stride, padding, "time")
    ho = out_extent(h, kh, stride, padding, "height")
    wo = out_extent(wd, kw, stride, padding, "width")
    xp = np.pad(x, ((0, 0), _pad_amounts(ln, t, temporal_stride, padding),
                    _pad_amounts(h, kh, stride, padding),
                    _pad_amounts(wd, kw, stride, padding)))
    out = np.zeros((c, lo, ho, wo), dtype=np.float32)
    for kt in range(t):
        for ky in range(kh):
            for kx in range(kw):
                patch = xp[:, kt : kt + (lo - 1) * temporal_stride + 1 : temporal_stride,
                           ky : ky + (ho - 1) * stride + 1 : stride,
                           kx : kx + (wo - 1) * stride + 1 : stride]
                out += patch * w[:, kt, ky, kx][:, None, None, None]
                _tally(ledger, c * lo * ho * wo)
    _tally_params(ledger, w)
    return out


def conv1d_array(x, w, stride=1, padding="same", ledger=None):
    """1-D cross-correlation over time: (Ci,L) x (Co,Ci,k) -> (Co,Lo)."""
    _check_stride(stride)
    _check_padding(padding)
    ci, ln = x.shape
    co, ciw, k = w.shape
    if ciw != ci:
        raise DimensionMismatch("channel", ciw, ci, "temporal conv input vs weights")
    lo = out_extent(ln, k, stride, padding, "time")
    xp = np.pad(x, ((0, 0), _pad_amounts(ln, k, stride, padding)))
    out = np.zeros((co, lo), dtype=np.float32)
    for kt in range(k):
        patch = xp[:, kt : kt + (lo - 1) * stride + 1 : stride]
        out += np.tensordot(w[:, :, kt], patch, axes=(1, 0))
        _tally(ledger, ci * co * lo)
    _tally_params(ledger, w)
    return out


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
    mid = depthwise3d_array(x, dw, stride=stride, temporal_stride=1, padding=padding,
                            ledger=ledger)
    out = conv3d_array(mid, pw.reshape(co, ciw, tp, 1, 1), stride=1, temporal_stride=1,
                       padding="same", ledger=ledger)
    return out


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
