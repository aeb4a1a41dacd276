"""File formats: graph JSON, weights binary, and clip preprocessing.

Graph files are UTF-8 JSON, written exactly as ``json.dumps(doc, indent=2)``
writes their document::

    {
      "schema_version": 1,
      "channel_plan": "base",
      "input_shape": [1, 29, 96, 96],        # optional
      "nodes": [{"id": "...", "kind": "...", ...hyperparameters}, ...],
      "residual_edges": [["src", "dst"], ...]
    }

Weights files are little-endian binary: the magic bytes ``MVSRW1``, a u32
manifest length, a UTF-8 JSON manifest, then the payload. The manifest is::

    {"schema_version": 1,
     "tensors": [{"layer": id, "name": tensor name, "shape": [...],
                  "dtype": "fp32"|"int8", "offset": n, "nbytes": n}, ...]}

Each layer/name pair is listed once. Offsets are relative to the payload
start and must be non-overlapping and in bounds. An fp32 tensor's block is
its f32 data, all finite; an int8 tensor's block is a f32 scale, an i32
zero point, then the int8 codes.

Clips are 29 grayscale 96x96 frames in [0, 1], produced from 29 RGB frames
of 256x256 by center-cropping rows and columns [80, 176) and applying the
BT.601 luma weights (0.299 R + 0.587 G + 0.114 B) / 255. Frame directories
hold 29 files, lexicographically ordered, each either exactly 256*256*3 raw
RGB bytes or a binary PPM (P6, maxval 255).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import (DimensionMismatch, GraphValidationError, PayloadBoundsError, SchemaError,
                     ValidationError)
from .graph import LayerGraph, LayerSpec, checked_weights, is_int
from .tensor import QuantParams, Tensor, _real_array

GRAPH_SCHEMA_VERSION = 1
WEIGHTS_SCHEMA_VERSION = 1
WEIGHTS_MAGIC = b"MVSRW1"

FRAME_COUNT = 29
FRAME_SIDE = 256
CROP_SIDE = 96
CROP_OFFSET = (FRAME_SIDE - CROP_SIDE) // 2  # 80


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def _graph_doc(graph: LayerGraph) -> dict:
    doc = {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "channel_plan": graph.channel_plan,
        "nodes": [dict({"id": node_id}, **spec.to_dict()) for node_id, spec in graph.nodes],
        "residual_edges": [list(edge) for edge in graph.residual_edges],
    }
    if graph.input_shape is not None:
        doc["input_shape"] = list(graph.input_shape)
    return doc


class _Unwritten(Exception):
    """A value or spec that ``_write_graph`` leaves to ``json.dumps``."""


def _scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it, when its type is exactly str,
    int or float and a float is finite; else raises _Unwritten."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    raise _Unwritten


def _items(items: list) -> str:
    """A list whose items are written at depth 2, as ``json.dumps(indent=2)``
    writes it at depth 1."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _write_graph(graph: LayerGraph) -> str:
    bodies = {}  # id(spec): its fields after the id, written once per spec object
    nodes = []
    for node_id, spec in graph.nodes:
        body = bodies.get(id(spec))
        if body is None:
            if type(spec) is not LayerSpec:  # whose to_dict keys are its field names
                raise _Unwritten
            body = bodies[id(spec)] = "".join(
                f",\n      {_scalar(name)}: {_scalar(value)}"
                for name, value in spec.to_dict().items())
        nodes.append(f'    {{\n      "id": {_scalar(node_id)}{body}\n    }}')
    edges = [f"    [\n      {_scalar(src)},\n      {_scalar(dst)}\n    ]"
             for src, dst in graph.residual_edges]
    text = (f'{{\n  "schema_version": {GRAPH_SCHEMA_VERSION},\n'
            f'  "channel_plan": {_scalar(graph.channel_plan)},\n'
            f'  "nodes": {_items(nodes)},\n  "residual_edges": {_items(edges)}')
    if graph.input_shape is not None:
        text += f',\n  "input_shape": {_items([f"    {_scalar(v)}" for v in graph.input_shape])}'
    return text + "\n}"


def serialize_graph(graph: LayerGraph) -> str:
    """The graph file's text: exactly ``json.dumps(doc, indent=2)`` of its
    document, written without json's pure-Python indenting encoder.

    Within a call, the fields of a LayerSpec that several nodes hold are
    written once. A value whose type is not exactly str, int or a finite
    float leaves the whole text to ``json.dumps``, so that text and errors
    (a TypeError for a value JSON has no form for) are json's own.
    """
    try:
        return _write_graph(graph)
    except _Unwritten:
        return json.dumps(_graph_doc(graph), indent=2)


def _list_field(doc: dict, name: str) -> list:
    value = doc.get(name, [])
    if not isinstance(value, list):
        raise SchemaError(f"graph {name} must be a list, got {type(value).__name__}")
    return value


def parse_graph(text: str) -> LayerGraph:
    """The graph a graph file's text holds; SchemaError names what is wrong.

    Within a call, node entries whose fields are equal in value and type
    share one LayerSpec, as ``build_mobivsr``'s keep blocks do, so that
    ``shape_infer`` and ``aggregate`` work out each distinct layer once. An
    entry with an unhashable value, or with a value equal to zero, gets a
    LayerSpec of its own.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an int literal past Python's digit limit,
        # RecursionError a deep nest of brackets
        raise SchemaError(f"graph file is not valid JSON: {exc}",
                          position=getattr(exc, "pos", None)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("graph file must hold a JSON object")
    version = doc.get("schema_version")
    if not is_int(version) or version != GRAPH_SCHEMA_VERSION:
        raise SchemaError(f"unsupported graph schema_version {version!r}")
    nodes, specs = [], {}  # specs: the LayerSpec made for each distinct node entry
    for index, entry in enumerate(_list_field(doc, "nodes")):
        if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
            raise SchemaError(f"node #{index} must have 'id' and 'kind'", position=index)
        node_id = entry["id"]
        if not isinstance(node_id, str):
            raise SchemaError(f"node #{index} id must be a string, got {node_id!r}",
                              position=index)
        params = dict(entry)
        del params["id"]
        # the value types tell 1, 1.0 and true apart, which compare equal
        key = (tuple(params.items()), tuple(map(type, params.values())))
        try:
            spec = specs.get(key)
        except TypeError:  # an unhashable value, such as a list
            spec = key = None
        if spec is None:
            try:
                spec = LayerSpec(**params)
            except (TypeError, ValueError) as exc:
                # TypeError: a field LayerSpec does not have
                raise SchemaError(f"node {node_id!r}: {exc}", node_id=node_id) from exc
            # 0.0 and -0.0 are equal floats written apart, so an entry with
            # a value equal to zero keeps its spec to itself
            if key is not None and 0.0 not in params.values():
                specs[key] = spec
        nodes.append((node_id, spec))
    edges = []
    for index, edge in enumerate(_list_field(doc, "residual_edges")):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise SchemaError(f"residual edge #{index} must be a [src, dst] pair",
                              position=index)
        if not all(isinstance(end, str) for end in edge):
            raise SchemaError(f"residual edge #{index} endpoints must be node id strings, "
                              f"got {edge!r}", position=index)
        edges.append(tuple(edge))
    try:
        graph = LayerGraph(
            nodes=nodes,
            residual_edges=edges,
            channel_plan=doc.get("channel_plan", "custom"),
            input_shape=doc.get("input_shape"),
        )
    except GraphValidationError as exc:  # from LayerGraph.validate
        raise SchemaError(f"graph is structurally invalid: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"graph {exc}") from exc
    return graph


def write_graph(path, graph: LayerGraph):
    Path(path).write_text(serialize_graph(graph), encoding="utf-8")


def read_graph(path) -> LayerGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _block_nbytes(dtype: str, count: int) -> int:
    """A tensor's payload block size: f32 data, or f32 scale + i32 zero point + codes."""
    return 4 * count if dtype == "fp32" else 8 + count


def serialize_weights(bundle: dict, graph: LayerGraph | None = None) -> bytes:
    """Pack a {node id: {name: Tensor}} bundle; validates against a graph if given."""
    if graph is not None:
        _check_bundle_against_graph(bundle, graph)
    entries = []
    payload = bytearray()
    for node_id, tensors in bundle.items():
        for name, tensor in tensors.items():
            offset = len(payload)
            if tensor.quant is None:
                payload += tensor.data.astype("<f4").tobytes()
            else:
                payload += struct.pack("<f", tensor.quant.scale)
                payload += struct.pack("<i", tensor.quant.zero_point)
                payload += tensor.data.astype("<i1").tobytes()
            entries.append({
                "layer": node_id,
                "name": name,
                "shape": list(tensor.shape),
                "dtype": tensor.dtype,
                "offset": offset,
                "nbytes": _block_nbytes(tensor.dtype, tensor.data.size),
            })
    manifest = json.dumps({"schema_version": WEIGHTS_SCHEMA_VERSION,
                           "tensors": entries}).encode("utf-8")
    return WEIGHTS_MAGIC + struct.pack("<I", len(manifest)) + manifest + bytes(payload)


def parse_weights(blob: bytes, graph: LayerGraph | None = None) -> dict:
    """Unpack a weights blob back into a tensor bundle, validating the layout."""
    if len(blob) < len(WEIGHTS_MAGIC) + 4:
        raise SchemaError(f"weights file truncated at byte {len(blob)}", position=len(blob))
    if blob[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise SchemaError(f"bad magic {blob[:len(WEIGHTS_MAGIC)]!r}", position=0)
    (manifest_len,) = struct.unpack_from("<I", blob, len(WEIGHTS_MAGIC))
    header_len = len(WEIGHTS_MAGIC) + 4
    if header_len + manifest_len > len(blob):
        raise PayloadBoundsError(
            f"manifest length {manifest_len} overruns file of {len(blob)} bytes",
            position=header_len,
        )
    try:
        manifest = json.loads(blob[header_len : header_len + manifest_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # as in parse_graph; bad UTF-8 too
        raise SchemaError(f"manifest is not valid JSON: {exc}", position=header_len) from exc
    if not isinstance(manifest, dict):
        raise SchemaError(f"manifest must be a JSON object, got {type(manifest).__name__}",
                          position=header_len)
    version = manifest.get("schema_version")
    if not is_int(version) or version != WEIGHTS_SCHEMA_VERSION:
        raise SchemaError(f"unsupported weights schema_version {version!r}")
    tensors = manifest.get("tensors", [])
    if not isinstance(tensors, list):
        raise SchemaError(f"manifest tensors must be a list, got {type(tensors).__name__}",
                          position=header_len)
    payload = blob[header_len + manifest_len :]
    bundle: dict = {}
    seen_spans = []
    for index, entry in enumerate(tensors):
        try:
            layer, name, dtype = entry["layer"], entry["name"], entry["dtype"]
            shape, offset, nbytes = entry["shape"], entry["offset"], entry["nbytes"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"manifest entry #{index} malformed: {exc}",
                              position=index) from exc
        if not isinstance(layer, str) or not isinstance(name, str):
            raise SchemaError(f"manifest entry #{index}: layer and name must be strings",
                              position=index)
        # a repeat at a fresh offset passes the overlap check below
        if name in bundle.get(layer, ()):
            raise SchemaError(f"manifest entry #{index}: tensor {layer}/{name} is listed twice",
                              position=index, node_id=layer)
        if not isinstance(shape, list) or not all(map(is_int, shape)):
            raise SchemaError(f"manifest entry #{index}: shape must be a list of ints, "
                              f"got {shape!r}", position=index)
        for field, value in (("offset", offset), ("nbytes", nbytes)):
            if not is_int(value):
                raise SchemaError(f"manifest entry #{index}: {field} must be an int, "
                                  f"got {value!r}", position=index)
        shape = tuple(shape)
        if any(v <= 0 for v in shape):
            raise SchemaError(f"tensor {layer}/{name}: extents must be positive, got {shape}",
                              node_id=layer)
        # math.prod, not np.prod: an int64 product wraps past 2**63
        count = math.prod(shape)
        if dtype not in ("fp32", "int8"):
            raise SchemaError(f"tensor {layer}/{name} has unknown dtype {dtype!r}",
                              node_id=layer)
        if nbytes != _block_nbytes(dtype, count):
            raise SchemaError(
                f"tensor {layer}/{name}: nbytes {nbytes} does not match shape {shape}",
                node_id=layer,
            )
        if offset < 0 or offset + nbytes > len(payload):
            raise PayloadBoundsError(
                f"tensor {layer}/{name} spans [{offset}, {offset + nbytes}) outside "
                f"payload of {len(payload)} bytes",
                position=offset, node_id=layer,
            )
        seen_spans.append((offset, offset + nbytes, f"{layer}/{name}"))
        block = payload[offset : offset + nbytes]
        if dtype == "fp32":
            data = np.frombuffer(block, dtype="<f4").astype(np.float32)
            if not np.isfinite(data).all():
                raise SchemaError(f"tensor {layer}/{name} holds NaN or infinite values",
                                  node_id=layer)
            tensor = Tensor(shape=shape, data=data)
        else:
            (scale,) = struct.unpack_from("<f", block, 0)
            (zero_point,) = struct.unpack_from("<i", block, 4)
            codes = np.frombuffer(block, dtype="<i1", offset=8).astype(np.int8)
            try:
                quant = QuantParams(float(scale), int(zero_point))
            except ValueError as exc:
                raise SchemaError(f"tensor {layer}/{name}: {exc}", node_id=layer) from exc
            tensor = Tensor(shape=shape, data=codes, quant=quant)
        bundle.setdefault(layer, {})[name] = tensor
    seen_spans.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(seen_spans, seen_spans[1:]):
        if start_b < end_a:
            raise PayloadBoundsError(f"tensors {name_a} and {name_b} overlap",
                                     position=start_b)
    if graph is not None:
        _check_bundle_against_graph(bundle, graph)
    return bundle


def _check_bundle_against_graph(bundle: dict, graph: LayerGraph):
    ids = dict(graph.nodes)
    for node_id, tensors in bundle.items():
        if node_id not in ids:
            raise SchemaError(f"weights name unknown node {node_id!r}", node_id=node_id)
    for node_id, spec in graph.nodes:
        try:
            checked_weights(spec, bundle.get(node_id), f"node {node_id!r}")
        except (DimensionMismatch, ValidationError) as exc:
            raise SchemaError(str(exc), node_id=node_id) from exc


def write_weights(path, bundle: dict, graph: LayerGraph | None = None):
    Path(path).write_bytes(serialize_weights(bundle, graph))


def read_weights(path, graph: LayerGraph | None = None) -> dict:
    return parse_weights(Path(path).read_bytes(), graph)


# ---------------------------------------------------------------------------
# clips
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clip:
    """29 grayscale frames, 96x96, fp32 in [0, 1]."""

    frames: np.ndarray

    def __post_init__(self):
        frames = _real_array(self.frames, "clip")
        if frames.shape != (FRAME_COUNT, CROP_SIDE, CROP_SIDE):
            raise ValidationError(
                f"clip must be {FRAME_COUNT}x{CROP_SIDE}x{CROP_SIDE}, got {frames.shape}"
            )
        # written so that NaN fails it too: every comparison with NaN is false
        if not (frames.min() >= 0 and frames.max() <= 1):
            raise ValidationError("clip values must be finite and lie in [0, 1]")
        object.__setattr__(self, "frames", frames)

    def as_input(self) -> Tensor:
        """The clip as a single-channel (1, 29, 96, 96) network input."""
        return Tensor.from_array(self.frames[None])


def preprocess_clip(raw_frames) -> Clip:
    """Center-crop, grayscale and scale raw RGB frames into a Clip.

    Expects (29, 256, 256, 3) 8-bit frames. The luma dot product is done in
    int32 on the crop's uint8 values, whose sum it holds exactly, and divided
    once by 255000 in float64, so pure white maps to exactly 1.0.
    """
    raw = np.asarray(raw_frames)
    if raw.ndim != 4 or raw.shape != (FRAME_COUNT, FRAME_SIDE, FRAME_SIDE, 3):
        raise ValidationError(
            f"raw frames must be ({FRAME_COUNT}, {FRAME_SIDE}, {FRAME_SIDE}, 3), "
            f"got {raw.shape}"
        )
    # other integer frames in [0, 255] are read as uint8: a copy of the crop only
    if raw.dtype != np.uint8 and not (
            np.issubdtype(raw.dtype, np.integer) and raw.min() >= 0 and raw.max() <= 255):
        raise ValidationError(f"raw frames must be 8-bit, got dtype {raw.dtype}")
    crop = raw[:, CROP_OFFSET : CROP_OFFSET + CROP_SIDE,
               CROP_OFFSET : CROP_OFFSET + CROP_SIDE, :].astype(np.uint8, copy=False)
    luma = np.multiply(crop[..., 0], 299, dtype=np.int32)
    luma += np.multiply(crop[..., 1], 587, dtype=np.int32)
    luma += np.multiply(crop[..., 2], 114, dtype=np.int32)
    frames = (luma / 255000.0).astype(np.float32)
    return Clip(frames=np.clip(frames, 0.0, 1.0))


def _parse_ppm(data: bytes, source: str) -> np.ndarray:
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError(f"{source}: truncated PPM header")
        return data[start:pos]

    def number():
        field = token()
        try:
            if field.isdigit():
                return int(field)
        except ValueError:  # more digits than int() converts
            pass
        raise ValidationError(f"{source}: PPM header field {field[:16]!r} is not "
                              "a decimal integer")

    if token() != b"P6":
        raise ValidationError(f"{source}: not a binary PPM (P6) file")
    width, height, maxval = (number() for _ in range(3))
    pos += 1  # single whitespace byte after maxval
    if (width, height) != (FRAME_SIDE, FRAME_SIDE):
        raise ValidationError(f"{source}: frame is {width}x{height}, "
                              f"expected {FRAME_SIDE}x{FRAME_SIDE}")
    if maxval != 255:
        raise ValidationError(f"{source}: PPM maxval must be 255, got {maxval}")
    body = data[pos : pos + FRAME_SIDE * FRAME_SIDE * 3]
    if len(body) != FRAME_SIDE * FRAME_SIDE * 3:
        raise ValidationError(f"{source}: PPM pixel data truncated")
    return np.frombuffer(body, dtype=np.uint8).reshape(FRAME_SIDE, FRAME_SIDE, 3)


def write_ppm(path, frame: np.ndarray):
    """Write one (256, 256, 3) uint8 frame as binary PPM."""
    frame = np.asarray(frame, dtype=np.uint8)
    header = f"P6\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.tobytes())


def load_clip_dir(path) -> np.ndarray:
    """Read 29 raw RGB frames (PPM or raw bytes) from a directory, sorted by name."""
    directory = Path(path)
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if len(files) != FRAME_COUNT:
        raise ValidationError(
            f"{directory}: expected {FRAME_COUNT} frame files, found {len(files)}"
        )
    frames = []
    raw_len = FRAME_SIDE * FRAME_SIDE * 3
    for p in files:
        data = p.read_bytes()
        # the length first: raw pixels may start with "P6", and a 256x256 PPM
        # is always longer than its raw pixels
        if len(data) == raw_len:
            frames.append(np.frombuffer(data, dtype=np.uint8).reshape(FRAME_SIDE, FRAME_SIDE, 3))
        elif data[:2] == b"P6":
            frames.append(_parse_ppm(data, p.name))
        else:
            raise ValidationError(
                f"{p.name}: neither PPM nor {raw_len} bytes of raw 256x256x3 RGB"
            )
    return np.stack(frames)


def write_clip(path, clip: Clip):
    """Store a preprocessed clip as .npy (f32, shape (29, 96, 96))."""
    np.save(path, clip.frames, allow_pickle=False)


def read_clip(path) -> Clip:
    """Load a clip .npy; ValidationError naming the path if it is not one."""
    try:
        frames = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:  # pickled, object, cut short or not a .npy
        raise ValidationError(f"{path}: not a clip .npy file: {exc}") from None
    if isinstance(frames, np.lib.npyio.NpzFile):
        frames.close()
        raise ValidationError(f"{path}: an .npz archive, not a clip .npy file")
    return Clip(frames=frames)
