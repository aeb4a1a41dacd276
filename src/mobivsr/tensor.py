"""Dense tensors and operation counters used by the reference kernels.

Shapes are ordered channels x time x height x width; lower-rank layouts are
prefixes or suffixes of that order (e.g. (C, H, W) for a single frame,
(C, L) for a temporal feature map, (I,) for a vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import is_int, is_real


def _real_array(value, what: str) -> np.ndarray:
    """``value`` as an fp32 array; ValidationError naming ``what`` unless it
    is an array of real numbers (dtype kind b, i, u or f). A value past
    fp32's range becomes infinite, without a warning."""
    try:
        a = np.asarray(value)
    except ValueError as exc:  # a ragged nest of sequences
        raise ValidationError(f"{what} is not an array: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must hold real numbers, got dtype {a.dtype}")
    with np.errstate(over="ignore"):
        return a.astype(np.float32, copy=False)


@dataclass(frozen=True)
class QuantParams:
    """Affine int8 metadata: real value = (code - zero_point) * scale."""

    scale: float
    zero_point: int

    def __post_init__(self):
        # NaN fails the bounds; bool is an int subclass, but True is no zero point
        if not is_real(self.scale) or not 0 < self.scale < math.inf:
            raise ValueError(f"quantization scale must be positive and finite, got {self.scale!r}")
        if isinstance(self.zero_point, bool) or not isinstance(self.zero_point, (int, np.integer)):
            raise ValueError(f"zero_point must be an int, got {self.zero_point!r}")
        if not -(2**31) <= self.zero_point < 2**31:
            raise ValueError(f"zero_point {self.zero_point} does not fit in int32")


@dataclass(frozen=True, eq=False)
class Tensor:
    """A dense array: shape, flat row-major buffer, fp32 or quantized int8."""

    shape: tuple
    data: np.ndarray
    quant: QuantParams | None = None

    def __post_init__(self):
        if not isinstance(self.shape, (tuple, list)) \
                or not all(is_int(s) and s > 0 for s in self.shape):
            raise ValueError(f"extents must be positive ints, got {self.shape!r}")
        object.__setattr__(self, "shape", tuple(self.shape))
        data = np.asarray(self.data)
        if data.ndim != 1:
            data = np.ascontiguousarray(data).ravel()
        if self.quant is None:
            data = data.astype(np.float32, copy=False)
        elif data.dtype != np.int8:
            raise ValueError(f"quantized tensors hold int8 codes, got {data.dtype}")
        object.__setattr__(self, "data", data)
        if math.prod(self.shape) != self.data.size:
            raise ValueError(
                f"shape {self.shape} implies {math.prod(self.shape)} elements, "
                f"buffer holds {self.data.size}"
            )

    @property
    def dtype(self) -> str:
        return "fp32" if self.quant is None else "int8"

    @classmethod
    def from_array(cls, array) -> "Tensor":
        a = np.asarray(array, dtype=np.float32)
        return cls(shape=a.shape, data=np.ascontiguousarray(a).ravel())

    def as_array(self) -> np.ndarray:
        """Dense fp32 view in the tensor's shape; int8 codes are dequantized."""
        if self.quant is None:
            return self.data.reshape(self.shape)
        real = (self.data.astype(np.float32) - np.float32(self.quant.zero_point)) * np.float32(
            self.quant.scale
        )
        return real.reshape(self.shape)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.quant == other.quant
            and self.data.dtype == other.data.dtype
            and np.array_equal(self.data, other.data)
        )


@dataclass
class CounterLedger:
    """Empirical tallies of work done by an instrumented forward pass."""

    multiplies: int = 0
    adds: int = 0
    param_reads: int = 0
    activation_reads: int = 0
    output_writes: int = 0

    def flops(self) -> int:
        return self.multiplies + self.adds

    def memory_accesses(self) -> int:
        return self.param_reads + self.activation_reads + self.output_writes
