"""Clip preprocessing and the file-level round trips."""

import io
import json
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobivsr import (
    Clip,
    GraphValidationError,
    LayerGraph,
    LayerSpec,
    MobiVSRError,
    SchemaError,
    Tensor,
    ValidationError,
    build_mobivsr,
    init_weights,
    load_clip_dir,
    parse_graph,
    parse_weights,
    preprocess_clip,
    quantize_tensor,
    quantize_weights,
    read_clip,
    read_graph,
    serialize_graph,
    serialize_weights,
    write_clip,
    write_graph,
    write_ppm,
)
from mobivsr.cli import main


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


def _int64_luma_frames(raw):
    """BT.601 luma in int64 over the centre crop, scaled by 1/255000 in float64:
    what ``preprocess_clip`` must give bit for bit, however it computes it."""
    crop = np.asarray(raw)[:, 80:176, 80:176, :].astype(np.int64)
    luma = crop[..., 0] * 299 + crop[..., 1] * 587 + crop[..., 2] * 114
    return np.clip((luma / 255000.0).astype(np.float32), 0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), low=st.integers(0, 255),
       dtype=st.sampled_from([np.uint8, np.int16, np.int64]))
@example(seed=0, low=255, dtype=np.uint8)
@example(seed=0, low=255, dtype=np.int64)
def test_preprocess_equals_int64_luma_formula_bit_for_bit(seed, low, dtype):
    raw = np.random.default_rng(seed).integers(low, 256, size=(29, 256, 256, 3)).astype(dtype)
    frames = preprocess_clip(raw).frames
    expected = _int64_luma_frames(raw)
    assert frames.dtype == expected.dtype == np.float32
    assert np.array_equal(frames.view(np.uint32), expected.view(np.uint32))


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


def test_a_clip_value_past_fp32_is_refused_without_a_warning():
    """1e300 is finite in float64 but infinite in fp32: the range check
    refuses it, and the cast raises no overflow warning first."""
    frames = np.full((29, 96, 96), 0.5)
    frames[3, 4, 5] = 1e300
    with pytest.raises(ValidationError, match="finite and lie in"):
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


# json.loads raises a plain ValueError past Python's int digit limit and a
# RecursionError on brackets nested deeper than the interpreter stack
UNPARSABLE_JSON = {
    "5000-digit int": '{"schema_version": ' + "1" * 5000 + "}",
    "100000 nested brackets": "[" * 100_000,
}


@pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON)
def test_unparsable_json_is_schema_error(text):
    with pytest.raises(SchemaError, match="graph file is not valid JSON"):
        parse_graph(text)
    manifest = text.encode("utf-8")
    with pytest.raises(SchemaError, match="manifest is not valid JSON"):
        parse_weights(b"MVSRW1" + len(manifest).to_bytes(4, "little") + manifest)


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


def test_raw_frame_starting_with_the_ppm_magic_is_read_as_raw(tmp_path):
    # bytes 80, 54 are "P6"; a raw frame is exactly 256*256*3 bytes, which no
    # 256x256 PPM is, so the length decides before the magic does
    raw = np.random.default_rng(4).integers(0, 256, size=(29, 256, 256, 3)).astype(np.uint8)
    raw[0, 0, 0, :2] = (80, 54)
    raw[0, 0, 0, 2] = ord("\n")
    _write_frame_dir(tmp_path / "raw", raw, as_ppm=False)
    np.testing.assert_array_equal(load_clip_dir(tmp_path / "raw"), raw)


FRAME_HEADER = b"P6\n256 256\n255\n"
FRAME_PIXELS = np.random.default_rng(5).integers(0, 256, size=(256, 256, 3)).astype(np.uint8)
FRAME_FILE = FRAME_HEADER + FRAME_PIXELS.tobytes()


@pytest.fixture(scope="module")
def fuzz_frame_dir(tmp_path_factory):
    """A 29-frame PPM directory; the tests overwrite its frame_03.ppm."""
    path = tmp_path_factory.mktemp("fuzz") / "frames"
    _write_frame_dir(path, np.broadcast_to(FRAME_PIXELS, (29, 256, 256, 3)))
    return path


@st.composite
def mutated_frame_file(draw):
    """FRAME_FILE with header bytes flipped; a comment, a whitespace run or a
    run of digits inserted in or just after the header; or the file cut."""
    data = bytearray(FRAME_FILE)
    header_end = len(FRAME_HEADER) + 4  # a few pixel bytes too
    mutation = draw(st.sampled_from(["flip", "comment", "whitespace", "digits", "cut"]))
    if mutation == "flip":
        for at in draw(st.lists(st.integers(0, header_end - 1), min_size=1, max_size=4)):
            data[at] ^= draw(st.integers(1, 255))
        return bytes(data)
    if mutation == "cut":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    if mutation == "comment":
        insert = b"#" + draw(st.binary(max_size=12)).replace(b"\n", b"") + draw(
            st.sampled_from([b"\n", b""]))
    elif mutation == "whitespace":
        insert = b"".join(draw(st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b",
                                                         b"\x0c"]), min_size=1, max_size=6)))
    else:
        insert = draw(st.sampled_from([b"0", b"9", b"1"])) * draw(st.integers(1, 5000))
    at = draw(st.integers(0, header_end))
    return bytes(data[:at] + insert + data[at:])


@settings(max_examples=120, deadline=None)
@given(data=mutated_frame_file())
@example(data=FRAME_FILE)
@example(data=b"P6" + bytes(256 * 256 * 3 - 2))
def test_mutated_frame_loads_or_is_a_validation_error(fuzz_frame_dir, data):
    (fuzz_frame_dir / "frame_03.ppm").write_bytes(data)
    try:
        loaded = load_clip_dir(fuzz_frame_dir)
    except ValidationError:
        pass
    else:
        assert loaded.shape == (29, 256, 256, 3) and loaded.dtype == np.uint8
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["preprocess", str(fuzz_frame_dir), "--out", str(Path(tmp) / "c.npy")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_clip_file_round_trip(tmp_path):
    clip = preprocess_clip(np.random.default_rng(3).integers(0, 256, size=(29, 256, 256, 3))
                           .astype(np.uint8))
    write_clip(tmp_path / "clip.npy", clip)
    again = read_clip(tmp_path / "clip.npy")
    np.testing.assert_array_equal(again.frames, clip.frames)


@pytest.mark.parametrize("frames", [
    np.full((29, 96, 96), 0.5 + 0.25j, dtype=np.complex64),  # real part in [0, 1]
    np.full((29, 96, 96), "0.5"),
    np.full((29, 96, 96), None, dtype=object),
], ids=["complex", "string", "object"])
def test_a_clip_of_anything_but_real_numbers_is_refused(frames):
    with pytest.raises(ValidationError, match="real numbers"):
        Clip(frames=frames)


@pytest.mark.parametrize("content", [
    lambda path: np.save(path, np.full((29, 96, 96), 0.5 + 0.25j, dtype=np.complex64)),
    lambda path: np.save(path, np.full((29, 96, 96), "0.5")),
    lambda path: np.save(path, np.full((29, 96, 96), None, dtype=object), allow_pickle=True),
    lambda path: path.write_text("29 frames of 96x96 pixels"),
    lambda path: path.write_bytes(b""),
], ids=["complex", "string", "object", "text", "empty"])
def test_read_clip_refuses_a_file_that_is_not_a_clip(tmp_path, content):
    path = tmp_path / "clip.npy"
    content(path)
    with pytest.raises(ValidationError, match="real numbers|clip.npy: not a clip"):
        read_clip(path)


def test_a_ragged_clip_is_a_validation_error():
    with pytest.raises(ValidationError, match="clip is not an array"):
        Clip(frames=[[0.5] * 96] * 95 + [[0.5] * 95])


def test_read_clip_refuses_an_npz_archive_and_closes_it(tmp_path, monkeypatch):
    path = tmp_path / "clip.npz"
    np.savez(path, frames=np.full((29, 96, 96), 0.5, dtype=np.float32))
    opened = []
    load = np.load
    monkeypatch.setattr(np, "load", lambda *a, **k: opened.append(load(*a, **k)) or opened[-1])
    with pytest.raises(ValidationError, match=r"clip\.npz: an \.npz archive, not a clip \.npy"):
        read_clip(path)
    assert opened[0].fid is None  # closed


def test_read_clip_of_a_missing_file_stays_an_os_error(tmp_path):
    with pytest.raises(OSError):
        read_clip(tmp_path / "missing.npy")


def test_graph_file_round_trip_on_disk(tmp_path):
    graph = build_mobivsr(2)
    write_graph(tmp_path / "g.json", graph)
    assert read_graph(tmp_path / "g.json") == graph


# a conv2d, a batchnorm and an fc head, with the conv and fc weights int8 and
# the batchnorm statistics fp32
FUZZ_GRAPH = LayerGraph(nodes=[
    ("conv", LayerSpec("conv2d", in_channels=2, out_channels=3, kernel_size=3)),
    ("bn", LayerSpec("batchnorm", in_channels=3)),
    ("pool", LayerSpec("spatial_avg")),
    ("fc", LayerSpec("fc", in_features=3, out_features=4)),
], input_shape=(2, 5, 5))
_FUZZ_BUNDLE = init_weights(FUZZ_GRAPH, seed=3)
FUZZ_BLOB = serialize_weights(
    {**_FUZZ_BUNDLE, **quantize_weights({k: _FUZZ_BUNDLE[k] for k in ("conv", "fc")})},
    FUZZ_GRAPH)
HEADER_LEN = len(b"MVSRW1") + 4
MANIFEST_END = HEADER_LEN + int.from_bytes(FUZZ_BLOB[6:HEADER_LEN], "little")
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.text(max_size=6)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6)


def duplicated_entry_blob(blob, index):
    """``blob`` with manifest entry ``index`` listed again at the end, over a
    copy of its block appended to the payload: the two spans are disjoint,
    so only the repeated layer/name is wrong."""
    manifest_end = HEADER_LEN + int.from_bytes(blob[6:HEADER_LEN], "little")
    manifest = json.loads(blob[HEADER_LEN:manifest_end])
    payload = blob[manifest_end:]
    entry = manifest["tensors"][index]
    manifest["tensors"].append(dict(entry, offset=len(payload)))
    payload += payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
    text = json.dumps(manifest).encode("utf-8")
    return b"MVSRW1" + len(text).to_bytes(4, "little") + text + payload


@st.composite
def mutated_weights_blob(draw):
    """FUZZ_BLOB with header or manifest bytes flipped, the file cut inside its
    manifest or its payload, one manifest JSON value rewritten (the length
    prefix kept in step): any value, a nearby int, or a shape of other extents,
    or one entry duplicated at a fresh offset."""
    blob = bytearray(FUZZ_BLOB)
    mutation = draw(st.sampled_from(["flip", "cut manifest", "cut payload", "rewrite",
                                     "duplicate"]))
    if mutation == "flip":
        for at in draw(st.lists(st.integers(0, MANIFEST_END - 1), min_size=1, max_size=4)):
            blob[at] ^= draw(st.integers(1, 255))
        return bytes(blob)
    if mutation == "cut manifest":
        return bytes(blob[: draw(st.integers(0, MANIFEST_END - 1))])
    if mutation == "cut payload":
        return bytes(blob[: draw(st.integers(MANIFEST_END, len(blob) - 1))])
    manifest = json.loads(FUZZ_BLOB[HEADER_LEN:MANIFEST_END])
    entries = manifest["tensors"]
    if mutation == "duplicate":
        return duplicated_entry_blob(FUZZ_BLOB, draw(st.integers(0, len(entries) - 1)))
    target = manifest if draw(st.booleans()) else entries[draw(st.integers(0, len(entries) - 1))]
    key = draw(st.sampled_from(sorted(target)))
    old = target[key]
    if isinstance(old, int) and draw(st.booleans()):
        target[key] = old + draw(st.integers(-9, 9))
    elif isinstance(old, list) and draw(st.booleans()):
        target[key] = draw(st.lists(st.integers(-2, 5), max_size=4))
    else:
        target[key] = draw(FUZZ_VALUES)
    text = json.dumps(manifest).encode("utf-8")
    return b"MVSRW1" + len(text).to_bytes(4, "little") + text + FUZZ_BLOB[MANIFEST_END:]


@settings(max_examples=300, deadline=None)
@given(mutated_weights_blob())
def test_mutated_weights_blob_parses_or_is_a_mobivsr_error(blob):
    for graph in (None, FUZZ_GRAPH):
        try:
            assert isinstance(parse_weights(blob, graph), dict)
        except MobiVSRError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_graph(tmp / "g.json", FUZZ_GRAPH)
        (tmp / "w.bin").write_bytes(blob)
        (tmp / "frames").mkdir()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            quantize = main(["quantize", str(tmp / "w.bin"), "--out", str(tmp / "q.bin")])
            # the frame directory is empty, so a weights file that parses stops there
            infer = main(["infer", str(tmp / "g.json"), str(tmp / "w.bin"), str(tmp / "frames")])
    assert quantize in (0, 2)
    assert infer == 2
    assert "Traceback" not in err.getvalue()


FUZZ_ENTRIES = json.loads(FUZZ_BLOB[HEADER_LEN:MANIFEST_END])["tensors"]
FC_WEIGHTS = next(i for i, e in enumerate(FUZZ_ENTRIES)
                  if (e["layer"], e["name"]) == ("fc", "weights"))


@pytest.mark.parametrize("graph", [None, FUZZ_GRAPH], ids=["alone", "with graph"])
def test_weights_entry_listed_twice_is_schema_error_naming_it(graph):
    # a last entry that won would silently replace the first one's weights
    with pytest.raises(SchemaError, match="fc/weights is listed twice") as exc:
        parse_weights(duplicated_entry_blob(FUZZ_BLOB, FC_WEIGHTS), graph)
    assert exc.value.position == len(FUZZ_ENTRIES)
    assert exc.value.node_id == "fc"


def test_quantize_of_a_weights_file_listing_a_tensor_twice_exits_2(tmp_path, capsys):
    (tmp_path / "dup.bin").write_bytes(duplicated_entry_blob(FUZZ_BLOB, FC_WEIGHTS))
    code = main(["quantize", str(tmp_path / "dup.bin"), "--out", str(tmp_path / "q.bin")])
    err = capsys.readouterr().err
    assert code == 2
    assert "fc/weights is listed twice" in err
    assert "Traceback" not in err
    assert not (tmp_path / "q.bin").exists()


FP32_BLOB = serialize_weights(_FUZZ_BUNDLE, FUZZ_GRAPH)
FP32_MANIFEST_END = HEADER_LEN + int.from_bytes(FP32_BLOB[6:HEADER_LEN], "little")
# little-endian f32 bit patterns of NaN, +inf and -inf
NAN, INF, NEG_INF = b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f", b"\x00\x00\x80\xff"


@settings(max_examples=200, deadline=None)
@given(at=st.integers(0, len(FP32_BLOB) - FP32_MANIFEST_END - 1),
       data=st.binary(min_size=1, max_size=12))
@example(at=0, data=NAN)
@example(at=4, data=INF)
@example(at=len(FP32_BLOB) - FP32_MANIFEST_END - 4, data=NEG_INF)
def test_overwritten_fp32_payload_parses_finite_or_is_a_mobivsr_error(at, data):
    """Random bytes written over an all-fp32 payload: the tensors that parse
    are finite (so they quantize), or parsing fails with a MobiVSRError."""
    blob = bytearray(FP32_BLOB)
    start = FP32_MANIFEST_END + at
    blob[start : start + len(data)] = data[: len(blob) - start]
    for graph in (None, FUZZ_GRAPH):
        try:
            bundle = parse_weights(bytes(blob), graph)
        except MobiVSRError:
            continue
        assert all(np.isfinite(t.data).all() for tensors in bundle.values()
                   for t in tensors.values())
        quantize_weights(bundle)


@pytest.mark.parametrize("bits", [NAN, INF, NEG_INF], ids=["nan", "inf", "-inf"])
def test_non_finite_fp32_tensor_is_schema_error_naming_it(bits):
    with pytest.raises(SchemaError, match="n/w holds NaN or infinite") as exc:
        parse_weights(tensor_blob(struct.pack("<f", 1.0) + bits))
    assert exc.value.node_id == "n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantizing_a_non_finite_tensor_is_a_validation_error(bad):
    tensor = Tensor(shape=(2,), data=np.array([bad, 0.0], dtype=np.float32))
    with pytest.raises(ValidationError, match="NaN or infinite"):
        quantize_tensor(tensor)


def test_graph_file_holding_a_json_list_is_schema_error():
    with pytest.raises(SchemaError, match="must hold a JSON object"):
        parse_graph("[]")


def test_residual_edge_with_three_ends_is_schema_error():
    doc = {"schema_version": 1, "nodes": [{"id": "a", "kind": "relu"}],
           "residual_edges": [["a", "a", "a"]]}
    with pytest.raises(SchemaError, match=r"edge #0 must be a \[src, dst\] pair") as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.position == 0


def test_weights_naming_a_node_the_graph_lacks_are_schema_error():
    blob = serialize_weights({**_FUZZ_BUNDLE, "ghost": _FUZZ_BUNDLE["fc"]})
    assert "ghost" in parse_weights(blob)
    with pytest.raises(SchemaError, match="unknown node 'ghost'") as exc:
        parse_weights(blob, FUZZ_GRAPH)
    assert exc.value.node_id == "ghost"


def test_float_frames_are_rejected_as_not_8_bit():
    with pytest.raises(ValidationError, match="must be 8-bit, got dtype float32"):
        preprocess_clip(np.zeros((29, 256, 256, 3), dtype=np.float32))


def test_ppm_with_comments_between_header_fields_loads_as_the_raw_frame(tmp_path):
    raw = np.random.default_rng(5).integers(0, 256, size=(29, 256, 256, 3)).astype(np.uint8)
    header = b"P6\n# width\n256 # height\n256\n#maxval\n#twice\n255\n"
    for i, frame in enumerate(raw):
        (tmp_path / f"{i:02d}.ppm").write_bytes(header + frame.tobytes())
    assert np.array_equal(load_clip_dir(tmp_path), raw)


# ---------------------------------------------------------------------------
# the graph emitter and the shared parse
# ---------------------------------------------------------------------------


def dumped(graph) -> str:
    """The graph file text as json.dumps writes it: the emitter's reference."""
    doc = {"schema_version": 1, "channel_plan": graph.channel_plan,
           "nodes": [{"id": node_id, **spec.to_dict()} for node_id, spec in graph.nodes],
           "residual_edges": [list(edge) for edge in graph.residual_edges]}
    if graph.input_shape is not None:
        doc["input_shape"] = list(graph.input_shape)
    return json.dumps(doc, indent=2)


# any code point, lone surrogates included, with what JSON escapes and
# pieces of its own syntax drawn often
AWKWARD_TEXT = st.lists(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\ud800", "\U0001F600",
                       "\u2028", "{", "}", "[", "]", ', "', '": ']),
    max_size=8).map("".join)
EPS = st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e-5, 0.1, 2.5, 1e300, 0, 3, 10**30]) \
    | st.floats(0, 1e308, allow_nan=False, allow_infinity=False)


@st.composite
def awkward_graphs(draw):
    """Valid graphs whose ids, channel plan and edge ends are arbitrary text,
    with batchnorm eps values that json writes in every float form."""
    ids = draw(st.lists(AWKWARD_TEXT, unique=True, max_size=6))
    nodes = []
    for node_id in ids:
        spec = draw(st.sampled_from([
            LayerSpec("relu"),
            LayerSpec("conv2d", in_channels=2, out_channels=3, kernel_size=3, stride=2,
                      padding="valid"),
            None]))
        nodes.append((node_id, spec or LayerSpec("batchnorm", in_channels=draw(st.integers(1, 9)),
                                                 eps=draw(EPS))))
    # each node takes at most one edge, from a node before it
    edges = [(ids[draw(st.integers(0, j - 1))], ids[j]) for j in range(1, len(ids))
             if draw(st.booleans())]
    shape = draw(st.none() | st.lists(st.integers(1, 10**20), max_size=4))
    return LayerGraph(nodes=nodes, residual_edges=edges, channel_plan=draw(AWKWARD_TEXT),
                      input_shape=shape)


@settings(max_examples=300, deadline=None)
@given(awkward_graphs())
def test_graph_text_is_json_dumps_with_indent_2(graph):
    text = serialize_graph(graph)
    assert text == dumped(graph)
    reparsed = parse_graph(text)
    assert reparsed == graph
    assert serialize_graph(reparsed) == text


@st.composite
def broken_graphs(draw):
    """(nodes, edges, message): a valid graph's nodes and edges with one
    structural defect injected, and the GraphValidationError text it earns."""
    ids = draw(st.lists(AWKWARD_TEXT, unique=True, min_size=2, max_size=6))
    nodes, edges = [(ids[0], LayerSpec("relu"))], []
    for j in range(1, len(ids)):  # each node takes at most one edge, from a node before it
        src = ids[draw(st.integers(0, j - 1))] if draw(st.booleans()) else None
        if src is not None:
            edges.append((src, ids[j]))
        kind = "residual_add" if src is not None and draw(st.booleans()) else "relu"
        nodes.append((ids[j], LayerSpec(kind)))
    fresh = draw(AWKWARD_TEXT.filter(lambda text: text not in ids))
    defect = draw(st.sampled_from(["duplicate", "missing", "backward", "second", "add"]))
    if defect == "duplicate":
        dup = draw(st.sampled_from(ids))
        nodes.append((dup, LayerSpec("relu")))
        return nodes, edges, f"duplicate node id {dup!r}"
    if defect == "missing":
        known = draw(st.sampled_from(ids))
        edge = draw(st.sampled_from([(known, fresh), (fresh, known)]))
        return nodes, edges + [edge], f"edge {edge!r} references a missing node"
    if defect == "backward":  # a self-edge points no more forward than a backward one
        i = draw(st.integers(0, len(ids) - 1))
        edge = (ids[draw(st.integers(i, len(ids) - 1))], ids[i])
        return nodes, edges + [edge], f"edge {edge!r} must point forward in node order"
    if defect == "second":
        j = draw(st.integers(1, len(ids) - 1))
        into = [(ids[draw(st.integers(0, j - 1))], ids[j])
                for _ in range(1 if any(dst == ids[j] for _, dst in edges) else 2)]
        return nodes, edges + into, f"node {ids[j]!r} has more than one incoming edge"
    if draw(st.booleans()):
        return [(fresh, LayerSpec("residual_add"))] + nodes, edges, \
            "residual_add cannot be the first node"
    return nodes + [(fresh, LayerSpec("residual_add"))], edges, \
        f"residual_add node {fresh!r} has no incoming edge"


@settings(max_examples=200, deadline=None)
@given(broken_graphs())
def test_a_structural_defect_is_refused_at_every_entry_point(case):
    """A graph with one structural defect is never made: the LayerGraph
    constructor raises GraphValidationError with the defect's text,
    parse_graph a SchemaError that prefixes it, and the report command exits
    2 with nothing on stdout and no traceback."""
    nodes, edges, message = case
    with pytest.raises(GraphValidationError) as made:
        LayerGraph(nodes=nodes, residual_edges=edges)
    assert str(made.value) == message
    text = json.dumps({"schema_version": 1,
                       "nodes": [{"id": node_id, **spec.to_dict()} for node_id, spec in nodes],
                       "residual_edges": [list(edge) for edge in edges]})
    with pytest.raises(SchemaError) as parsed:
        parse_graph(text)
    assert str(parsed.value) == "graph is structurally invalid: " + message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["report", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert "Traceback" not in err.getvalue()


def test_numpy_eps_is_written_as_json_writes_it():
    spec = LayerSpec("batchnorm", in_channels=2, eps=np.float64(0.25))
    graph = LayerGraph(nodes=[("bn", spec)])
    assert serialize_graph(graph) == dumped(graph)
    graph = LayerGraph(nodes=[("bn", LayerSpec("batchnorm", in_channels=2,
                                                 eps=np.float32(0.25)))])
    with pytest.raises(TypeError, match="float32 is not JSON serializable"):
        serialize_graph(graph)


def report_exit(tmp_path, text) -> int:
    path = tmp_path / "g.json"
    path.write_text(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["report", str(path), "--format", "json"])
    assert "Traceback" not in err.getvalue()
    return code


def graph_text(*nodes, indent=None) -> str:
    """A graph file of the given node entries, with ids n0, n1, ..., its
    fields in the order serialize_graph writes them."""
    return json.dumps({"schema_version": 1, "channel_plan": "custom",
                       "nodes": [{"id": f"n{i}", **node} for i, node in enumerate(nodes)],
                       "residual_edges": [], "input_shape": [2, 8, 8]}, indent=indent)


CONV = {"kind": "conv2d", "in_channels": 2, "out_channels": 2, "kernel_size": 1}


@pytest.mark.parametrize("field,value", [("stride", [2]), ("kind", ["relu"]), ("eps", {})])
def test_node_entry_with_an_unhashable_value_is_schema_error_naming_it(tmp_path, field, value):
    bad = {**CONV, field: value}
    text = graph_text(CONV, bad, bad)
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert exc.value.node_id == "n1"
    assert report_exit(tmp_path, text) == 2


@pytest.mark.parametrize("stride", [True, 1.0])
def test_a_node_equal_to_a_valid_one_but_for_its_stride_type_is_schema_error(tmp_path, stride):
    text = graph_text({**CONV, "stride": 1}, {**CONV, "stride": stride})
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert exc.value.node_id == "n1"
    assert report_exit(tmp_path, text) == 2


def test_equal_eps_of_other_types_and_signs_round_trip_to_the_same_text():
    bns = [{"kind": "batchnorm", "in_channels": 2, "eps": eps} for eps in (0, 0.0, -0.0, 0, 1, 1.0)]
    text = graph_text(*bns, indent=2)
    graph = parse_graph(text)
    assert serialize_graph(graph) == text
    assert [type(spec.eps) for _, spec in graph.nodes] == [int, float, float, int, int, float]
