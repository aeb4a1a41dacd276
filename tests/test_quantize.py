"""Int8 quantization: exactness, error bounds, and end-to-end drift."""

import numpy as np
import pytest

from mobivsr import (
    Tensor,
    ValidationError,
    build_mobivsr,
    init_weights,
    quantize_tensor,
    quantize_weights,
    run_graph,
)


@pytest.mark.parametrize("c", [0.0, 1.0, -3.7, 2.5, 1e-3, -42.0])
def test_constant_tensor_reconstructs_exactly(c):
    t = Tensor.from_array(np.full((3, 4), c, dtype=np.float32))
    q = quantize_tensor(t)
    assert q.dtype == "int8"
    np.testing.assert_array_equal(q.as_array(), np.full((3, 4), np.float32(c)))


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_error_bounded_by_half_scale(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1, 1, size=2048).astype(np.float32)
    q = quantize_tensor(Tensor.from_array(w))
    err = np.abs(q.as_array() - w).max()
    assert err <= q.quant.scale / 2 + 1e-6


def test_codes_fill_the_int8_range_without_overflow():
    w = np.linspace(-1, 1, 1000, dtype=np.float32)
    q = quantize_tensor(Tensor.from_array(w))
    assert q.data.min() == -128  # the range minimum pins to the bottom code
    assert 126 <= q.data.max() <= 127  # top code may land one short via rounding
    assert q.quant.scale == pytest.approx(2 / 255, rel=1e-6)


def test_asymmetric_ranges_get_a_zero_point():
    w = np.linspace(0.5, 1.5, 100, dtype=np.float32)
    q = quantize_tensor(Tensor.from_array(w))
    assert q.quant.zero_point != 0
    assert np.abs(q.as_array() - w).max() <= q.quant.scale / 2 + 1e-6


def test_quantize_is_idempotent_on_int8():
    q = quantize_tensor(Tensor.from_array(np.arange(8, dtype=np.float32)))
    assert quantize_tensor(q) is q


def test_quantized_forward_drift_is_small():
    graph = build_mobivsr(1)
    weights = init_weights(graph, seed=0)
    rng = np.random.default_rng(1)
    clip = Tensor.from_array(rng.uniform(0, 1, size=(1, 29, 96, 96)).astype(np.float32))
    baseline = run_graph(graph, weights, clip).output.as_array()
    drifted = run_graph(graph, quantize_weights(weights), clip).output.as_array()
    assert np.abs(baseline - drifted).max() <= 0.05


def test_range_far_from_zero_is_validation_error():
    # scale is 1/255, so the zero point -128 - 1e7 * 255 is past int32
    t = Tensor.from_array(np.array([1e7, 1e7 + 1], dtype=np.float32))
    with pytest.raises(ValidationError, match="zero point .* exceeds int32"):
        quantize_tensor(t)
