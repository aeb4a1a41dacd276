"""Tensor and QuantParams: the checks their constructors make."""

import numpy as np
import pytest

from mobivsr import QuantParams, Tensor


def test_quant_params_reject_a_zero_point_past_int32():
    QuantParams(1.0, 2**31 - 1)
    with pytest.raises(ValueError, match="does not fit in int32"):
        QuantParams(1.0, 2**31)


def test_quantized_tensor_rejects_float_data():
    with pytest.raises(ValueError, match="quantized tensors hold int8 codes, got float32"):
        Tensor(shape=(2,), data=np.zeros(2, dtype=np.float32), quant=QuantParams(1.0, 0))


@pytest.mark.parametrize("quant", [None, QuantParams(1.0, 0)])
def test_tensor_rejects_a_shape_that_is_not_its_size(quant):
    with pytest.raises(ValueError, match=r"shape \(3,\) implies 3 elements, buffer holds 2"):
        Tensor(shape=(3,), data=np.zeros(2, dtype=np.int8), quant=quant)


def test_two_dimensional_data_is_flattened_row_major():
    data = np.arange(6, dtype=np.float32).reshape(2, 3)
    tensor = Tensor(shape=(3, 2), data=data)
    assert tensor.data.shape == (6,)
    assert np.array_equal(tensor.data, np.arange(6))
    assert np.array_equal(tensor.as_array(), data.reshape(3, 2))


def test_tensor_equals_no_other_type():
    tensor = Tensor.from_array(np.ones(1, dtype=np.float32))
    assert (tensor == 1) is False
    assert tensor != 1
