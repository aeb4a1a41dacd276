"""Post-training per-tensor affine int8 quantization."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .tensor import QuantParams, Tensor


def quantize_tensor(tensor: Tensor) -> Tensor:
    """Quantize one fp32 tensor to int8 codes with per-tensor scale/zero-point.

    scale = (max - min) / 255 and the zero point is picked so the real range
    maps onto [-128, 127]; rounding error is then bounded by scale / 2.
    A constant tensor c is stored as a single code (+/-1, or 0 for c == 0)
    with scale |c| so dequantization reproduces c exactly.
    """
    if tensor.quant is not None:
        return tensor
    values = tensor.data.astype(np.float64)
    lo, hi = float(values.min()), float(values.max())
    # min and max carry any NaN through, so this sees every non-finite value
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"cannot quantize a tensor holding NaN or infinite values "
                              f"(range [{lo}, {hi}])")
    scale32 = np.float32((hi - lo) / 255.0)
    if hi == lo or scale32 <= 0:
        constant = np.float32(lo)
        if constant == 0:
            scale, codes = 1.0, np.zeros(values.size, dtype=np.int8)
        else:
            scale = float(abs(constant))
            codes = np.full(values.size, 1 if constant > 0 else -1, dtype=np.int8)
        return Tensor(shape=tensor.shape, data=codes, quant=QuantParams(scale, 0))
    scale = float(scale32)
    zero_point = int(-128 - round(lo / scale))
    if not -(2**31) <= zero_point < 2**31:
        raise ValidationError(
            f"zero point {zero_point} exceeds int32; tensor range is too far from zero"
        )
    codes = np.rint(values / scale) + zero_point
    codes = np.clip(codes, -128, 127).astype(np.int8)
    return Tensor(shape=tensor.shape, data=codes, quant=QuantParams(scale, zero_point))


def quantize_weights(bundle: dict) -> dict:
    """Quantize every tensor of a {node id: {name: Tensor}} bundle."""
    return {
        node_id: {name: quantize_tensor(t) for name, t in tensors.items()}
        for node_id, tensors in bundle.items()
    }
