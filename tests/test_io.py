"""Clip preprocessing and the file-level round trips."""

import json
import struct

import numpy as np
import pytest

from mobivsr import (
    Clip,
    SchemaError,
    ValidationError,
    build_mobivsr,
    load_clip_dir,
    parse_graph,
    parse_weights,
    preprocess_clip,
    read_clip,
    read_graph,
    write_clip,
    write_graph,
    write_ppm,
)


def frames(fill):
    return np.full((29, 256, 256, 3), fill, dtype=np.uint8)


def test_all_white_maps_to_exact_ones():
    clip = preprocess_clip(frames(255))
    assert np.all(clip.frames == 1.0)


def test_all_black_maps_to_zeros():
    assert np.all(preprocess_clip(frames(0)).frames == 0.0)


def test_crop_offset_arithmetic():
    raw = frames(0)
    raw[:, 80, 80, :] = 255  # lands at clip position (0, 0)
    raw[:, 79, 80, :] = 255  # one row above the crop, discarded
    clip = preprocess_clip(raw)
    assert np.all(clip.frames[:, 0, 0] == 1.0)
    assert np.all(clip.frames[:, 1:, :] == 0.0)
    assert np.all(clip.frames[:, 0, 1:] == 0.0)


def test_luma_weights_match_bt601():
    raw = frames(0)
    raw[..., 0] = 255  # pure red
    clip = preprocess_clip(raw)
    assert clip.frames[0, 0, 0] == pytest.approx(0.299, abs=1e-6)


def test_wrong_frame_count_rejected():
    with pytest.raises(ValidationError):
        preprocess_clip(np.zeros((28, 256, 256, 3), dtype=np.uint8))


def test_wrong_frame_size_rejected():
    with pytest.raises(ValidationError):
        preprocess_clip(np.zeros((29, 96, 96, 3), dtype=np.uint8))


def test_output_always_in_unit_range():
    rng = np.random.default_rng(0)
    clip = preprocess_clip(rng.integers(0, 256, size=(29, 256, 256, 3)).astype(np.uint8))
    assert clip.frames.min() >= 0.0
    assert clip.frames.max() <= 1.0


def test_clip_invariants_enforced():
    with pytest.raises(ValidationError):
        Clip(frames=np.zeros((28, 96, 96), dtype=np.float32))
    with pytest.raises(ValidationError):
        Clip(frames=np.full((29, 96, 96), 1.5, dtype=np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_rejects_non_finite_values(bad):
    frames = np.full((29, 96, 96), 0.5, dtype=np.float32)
    frames[3, 4, 5] = bad
    with pytest.raises(ValidationError):
        Clip(frames=frames)


def weights_blob(manifest):
    """A weights file holding ``manifest`` as its JSON manifest and no payload."""
    text = json.dumps(manifest).encode("utf-8")
    return b"MVSRW1" + len(text).to_bytes(4, "little") + text


@pytest.mark.parametrize("manifest", [[], {"schema_version": 1, "tensors": 5}])
def test_malformed_weights_manifest_is_schema_error(manifest):
    with pytest.raises(SchemaError):
        parse_weights(weights_blob(manifest))


def tensor_blob(payload, **entry):
    """A weights file holding one tensor entry over ``payload``."""
    entry = {"layer": "n", "name": "w", "shape": [2], "dtype": "fp32", "offset": 0,
             "nbytes": len(payload), **entry}
    return weights_blob({"schema_version": 1, "tensors": [entry]}) + payload


@pytest.mark.parametrize("shape", [[0], [-1, -2]])
def test_weights_non_positive_extent_is_schema_error(shape):
    # the payload matches what nbytes implies, so only the extent is wrong
    payload = bytes(4 * abs(int(np.prod(shape))))
    with pytest.raises(SchemaError) as exc:
        parse_weights(tensor_blob(payload, shape=shape))
    assert exc.value.node_id == "n"


@pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 4], [2**31, 2**31, 4]])
def test_weights_shape_past_int64_is_schema_error(shape):
    # each product is 2**64, which an int64 product wraps to 0 == nbytes
    with pytest.raises(SchemaError, match="nbytes 0 does not match") as exc:
        parse_weights(tensor_blob(b"", shape=shape, nbytes=0))
    assert exc.value.node_id == "n"


def test_weights_non_string_layer_is_schema_error():
    with pytest.raises(SchemaError) as exc:
        parse_weights(tensor_blob(bytes(8), layer=[1]))
    assert exc.value.position == 0


@pytest.mark.parametrize("field,value", [
    ("shape", [1.5, 2]),
    ("shape", [True, 2]),
    ("shape", ["2"]),
    ("shape", "12"),
    ("offset", "0"),
    ("offset", 0.0),
    ("offset", False),
    ("nbytes", 8.9),
    ("nbytes", True),
])
def test_weights_non_int_entry_field_is_schema_error(field, value):
    # one fp32 tensor of 2 elements; only the named field is not an int
    with pytest.raises(SchemaError, match=f"entry #0: {field}") as exc:
        parse_weights(tensor_blob(bytes(8), **{field: value}))
    assert exc.value.position == 0


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_weights_non_int_schema_version_is_schema_error(version):
    with pytest.raises(SchemaError, match="schema_version"):
        parse_weights(weights_blob({"schema_version": version, "tensors": []}))


@pytest.mark.parametrize("scale", [float("nan"), 0.0, -1.0, float("inf")])
def test_weights_bad_int8_scale_is_schema_error(scale):
    block = struct.pack("<f", scale) + struct.pack("<i", 0) + bytes(2)
    with pytest.raises(SchemaError) as exc:
        parse_weights(tensor_blob(block, dtype="int8"))
    assert exc.value.node_id == "n"


@pytest.mark.parametrize("field,value", [
    ("nodes", 5),
    ("residual_edges", 5),
    ("input_shape", 5),
    ("input_shape", ["x"]),
    ("input_shape", [0, 3]),
    ("input_shape", [1.5, 2]),
    ("input_shape", [True, 2]),
    ("channel_plan", 5),
])
def test_graph_malformed_field_is_schema_error(field, value):
    with pytest.raises(SchemaError):
        parse_graph(json.dumps({"schema_version": 1, field: value}))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_graph_non_int_schema_version_is_schema_error(version):
    with pytest.raises(SchemaError, match="schema_version"):
        parse_graph(json.dumps({"schema_version": version, "nodes": []}))


@pytest.mark.parametrize("doc,position", [
    ({"nodes": [{"id": [1], "kind": "relu"}]}, 0),
    ({"nodes": [{"id": "a", "kind": "relu"}, {"id": 2, "kind": "relu"}]}, 1),
    ({"nodes": [{"id": "a", "kind": "relu"}, {"id": "b", "kind": "residual_add"}],
      "residual_edges": [[["a"], "b"]]}, 0),
    ({"nodes": [{"id": "1", "kind": "relu"}, {"id": "b", "kind": "residual_add"}],
      "residual_edges": [[1, "b"]]}, 0),
])
def test_graph_non_string_id_is_schema_error(doc, position):
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps({"schema_version": 1, **doc}))
    assert exc.value.position == position


@pytest.mark.parametrize("eps", ["x", -1.0, True, [1]])
def test_graph_bad_eps_is_schema_error(eps):
    doc = {"schema_version": 1,
           "nodes": [{"id": "bn", "kind": "batchnorm", "in_channels": 2, "eps": eps}]}
    with pytest.raises(SchemaError, match="eps") as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.node_id == "bn"


def _write_frame_dir(path, raw, as_ppm=True):
    path.mkdir(exist_ok=True)
    for index, frame in enumerate(raw):
        name = path / f"frame_{index:02d}"
        if as_ppm:
            write_ppm(name.with_suffix(".ppm"), frame)
        else:
            name.with_suffix(".rgb").write_bytes(frame.tobytes())


def test_ppm_frame_dir_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(29, 256, 256, 3)).astype(np.uint8)
    _write_frame_dir(tmp_path / "ppm", raw)
    loaded = load_clip_dir(tmp_path / "ppm")
    np.testing.assert_array_equal(loaded, raw)


def test_raw_frame_dir_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    raw = rng.integers(0, 256, size=(29, 256, 256, 3)).astype(np.uint8)
    _write_frame_dir(tmp_path / "raw", raw, as_ppm=False)
    loaded = load_clip_dir(tmp_path / "raw")
    np.testing.assert_array_equal(loaded, raw)


def test_frame_dir_with_wrong_count(tmp_path):
    raw = np.zeros((29, 256, 256, 3), dtype=np.uint8)
    _write_frame_dir(tmp_path / "short", raw[:5])
    with pytest.raises(ValidationError):
        load_clip_dir(tmp_path / "short")


def test_frame_dir_with_garbage_file(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    for i in range(29):
        (d / f"{i:02d}.rgb").write_bytes(b"too short")
    with pytest.raises(ValidationError):
        load_clip_dir(d)


@pytest.mark.parametrize("header", [b"P6\nabc 256\n255\n", b"P6\n256 2.5e2\n255\n",
                                    b"P6\n256 256\n" + b"9" * 5000 + b"\n"],
                         ids=["letters", "float", "5000 digits"])
def test_frame_dir_with_non_integer_ppm_header_field(tmp_path, header):
    raw = np.zeros((29, 256, 256, 3), dtype=np.uint8)
    _write_frame_dir(tmp_path / "frames", raw)
    bad = tmp_path / "frames" / "frame_03.ppm"
    bad.write_bytes(header + raw[0].tobytes())
    with pytest.raises(ValidationError, match="frame_03.ppm: PPM header field"):
        load_clip_dir(tmp_path / "frames")


def test_clip_file_round_trip(tmp_path):
    clip = preprocess_clip(np.random.default_rng(3).integers(0, 256, size=(29, 256, 256, 3))
                           .astype(np.uint8))
    write_clip(tmp_path / "clip.npy", clip)
    again = read_clip(tmp_path / "clip.npy")
    np.testing.assert_array_equal(again.frames, clip.frames)


def test_graph_file_round_trip_on_disk(tmp_path):
    graph = build_mobivsr(2)
    write_graph(tmp_path / "g.json", graph)
    assert read_graph(tmp_path / "g.json") == graph
