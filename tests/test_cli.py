"""CLI behavior: command flows, output formats, exit codes."""

import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobivsr import (
    SchemaError,
    aggregate,
    build_mobivsr,
    efficiency_ratios,
    parse_graph,
    serialize_graph,
    write_ppm,
)
from mobivsr.arch import MAX_ALPHA
from mobivsr.cli import ReportRow, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def parse_json(text):
    """json.loads that fails on NaN, Infinity and -Infinity, which Python's
    json module writes and reads by default but JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture()
def graph_path(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "build", "--alpha", "1", "--out", str(path))
    assert code == 0
    return path


def test_build_writes_a_round_trippable_graph(graph_path):
    from mobivsr import build_mobivsr, read_graph

    assert read_graph(graph_path) == build_mobivsr(1)


def test_build_alpha_zero_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--alpha", "0", "--out", str(tmp_path / "g.json"))
    assert code == 1
    assert "alpha" in err
    # an alpha past MAX_ALPHA would build a graph too large to hold
    for args in (["build", "--alpha", str(MAX_ALPHA + 1), "--out", str(tmp_path / "g.json")],
                 ["compare", "--alphas", f"1,{MAX_ALPHA + 1}"], ["compare", "--alphas", "99999999"]):
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, "")
        assert f"alpha <= {MAX_ALPHA}" in err
    assert not (tmp_path / "g.json").exists()


def test_report_json_and_csv_agree(graph_path, capsys):
    code, out_json, _ = run(capsys, "report", str(graph_path), "--format", "json")
    assert code == 0
    doc = parse_json(out_json)
    code, out_csv, _ = run(capsys, "report", str(graph_path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv)))
    total_row = next(r for r in rows if r[0] == "TOTAL")
    assert int(total_row[1]) == sum(e["params"] for e in doc["per_layer"])
    kv = {r[0]: r[1] for r in rows if len(r) == 4 and r[2] == "" and r[0] != "TOTAL"}
    assert float(kv["size_mb"]) == doc["totals"]["size_mb"]
    assert float(kv["energy_mj"]) == doc["totals"]["energy_mj"]


@pytest.mark.parametrize("accuracy", [None, "73.4"])
def test_report_table_total_row_equals_aggregate(graph_path, capsys, accuracy):
    extra = ["--accuracy", accuracy] if accuracy else []
    code, out, _ = run(capsys, "report", str(graph_path), "--format", "table", *extra)
    assert code == 0
    lines = out.splitlines()
    report = aggregate(build_mobivsr(1))
    total = next(line.split() for line in lines if line.startswith("TOTAL"))
    assert total[1:] == [str(report.totals.params), str(report.totals.memory_accesses),
                         str(report.totals.flops)]
    ratios = [line for line in lines if line.startswith("ratios:")]
    if accuracy is None:
        assert ratios == []
    else:
        r = efficiency_ratios(report, float(accuracy))
        assert ratios == [f"ratios: {r.acc_per_mb:.3g} acc/MB  {r.acc_per_gflop:.3g} acc/GFLOP  "
                          f"{r.acc_per_mparam:.3g} acc/Mparam  {r.acc_per_kaccess:.3g} acc/Kaccess"]


def test_cost_report_units_equal_report_json_totals(graph_path, capsys):
    code, out, _ = run(capsys, "report", str(graph_path), "--format", "json")
    assert code == 0
    totals = parse_json(out)["totals"]
    report = aggregate(build_mobivsr(1))
    assert (report.size_mb, report.params_m, report.mem_kaccess, report.flops_b) == (
        totals["size_mb"], totals["params_m"], totals["mem_access_k"], totals["flops_b"])


def test_report_accuracy_on_a_zero_cost_graph_is_validation_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"schema_version":1,"input_shape":[2,3],"nodes":[{"id":"r","kind":"relu"}]}')
    code, out, err = run(capsys, "report", str(path), "--accuracy", "50")
    assert code == 2
    assert out == "" and "size_mb is zero" in err and "Traceback" not in err


def test_report_graph_without_input_shape_is_validation_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"schema_version":1,"nodes":[{"id":"r","kind":"relu"}]}')
    code, out, err = run(capsys, "report", str(path))
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: graph has no input_shape: add one to the graph")


def test_report_params_near_published(graph_path, capsys):
    code, out, _ = run(capsys, "report", str(graph_path), "--format", "json")
    doc = parse_json(out)
    assert doc["totals"]["params_m"] == pytest.approx(4.5, rel=0.15)


def test_report_malformed_graph_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 7}')
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "schema" in err.lower() or "error" in err.lower()


def test_report_non_list_nodes_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "nodes": 5}')
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "nodes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ['{"schema_version": ' + "1" * 5000 + "}", "[" * 100_000],
                         ids=["5000-digit int", "100000 nested brackets"])
def test_report_unparsable_json_is_schema_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields", [
    '"schema_version": true, "nodes": [{"id": "r", "kind": "relu"}]',
    '"schema_version": 1, "nodes": [{"id": [1], "kind": "relu"}]',
    '"schema_version": 1, "nodes": [{"id": "1", "kind": "relu"}, '
    '{"id": "b", "kind": "residual_add"}], "residual_edges": [[1, "b"]]',
], ids=["bool version", "list node id", "int edge source"])
def test_report_non_int_version_or_non_string_id_is_schema_error(tmp_path, capsys, fields):
    # each file would cost a (2, 3) input if its version and ids were read leniently
    bad = tmp_path / "bad.json"
    bad.write_text('{"input_shape": [2, 3], ' + fields + "}")
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ['"x"', "-1.0", "true", "[1]"])
@pytest.mark.parametrize("command", ["report", "infer"])
def test_bad_batchnorm_eps_is_schema_error(tmp_path, capsys, command, eps):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "input_shape": [2, 3], "nodes": '
                   '[{"id": "bn", "kind": "batchnorm", "in_channels": 2, "eps": ' + eps + "}]}")
    extra = [str(tmp_path / "w.bin"), str(tmp_path)] if command == "infer" else []
    code, _, err = run(capsys, command, str(bad), *extra)
    assert code == 2
    assert "eps" in err
    assert "Traceback" not in err


def test_report_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "report", str(tmp_path / "nope.json"))
    assert code == 3
    assert err


def test_compare_increments_and_presets(capsys):
    code, out, _ = run(capsys, "compare", "--alphas", "1,2,3", "--presets",
                       "--format", "json")
    assert code == 0
    rows = parse_json(out)
    increments = [r["increment_m"] for r in rows if r["increment_m"] is not None]
    assert len(increments) == 2
    for inc in increments:
        assert inc == pytest.approx(0.7, rel=0.15)
    published = [r for r in rows if r["source"] == "published"]
    assert len(published) == 8
    sota = next(r for r in published if r["model"] == "LSTM + ResNet (SOTA)")
    assert sota.get("size_mb") == 130.0
    flagged = [r for r in published if r["note"]]
    assert [r["model"] for r in flagged] == ["LRW Baseline"]


def test_compare_csv_header_is_the_report_row_fields(capsys):
    code, out, _ = run(capsys, "compare", "--alphas", "1,2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [f.name for f in fields(ReportRow)]
    assert [r[0] for r in rows[1:]] == ["MobiVSR-1", "MobiVSR-2"]


def test_compare_csv_rows_equal_json_rows(capsys):
    code, out_json, _ = run(capsys, "compare", "--alphas", "1,2", "--presets", "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, "compare", "--alphas", "1,2", "--presets", "--format", "csv")
    assert code == 0
    json_rows = parse_json(out_json)
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(csv_rows) == len(json_rows) == 10
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert list(csv_row) == list(json_row)
        for key, value in json_row.items():
            cell = csv_row[key]
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            else:  # repr round-trips a float exactly
                assert type(value)(cell) == value


@pytest.mark.parametrize("alphas", ["1,1", "1,2,1"])
def test_compare_repeated_alpha_is_usage_error(capsys, alphas):
    code, out, err = run(capsys, "compare", "--alphas", alphas)
    assert code == 1
    assert out == "" and "alpha 1 is repeated" in err and "Traceback" not in err


def test_compare_table_flags_the_inconsistent_preset(capsys):
    code, out, _ = run(capsys, "compare", "--alphas", "1", "--presets", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    flagged = [line for line in lines if line.endswith("  [!]")]
    assert [line.split("  ")[0] for line in flagged] == ["LRW Baseline"]
    notes = [line for line in lines if line.startswith("[!] ")]
    assert len(notes) == 1 and notes[0].startswith("[!] LRW Baseline: published energy")


def test_compare_empty_alphas_gives_presets_only(capsys):
    code, out, _ = run(capsys, "compare", "--alphas", "", "--format", "json")
    assert code == 0
    rows = parse_json(out)
    assert rows and all(r["source"] == "published" for r in rows)


def test_energy_command_matches_published_value(capsys):
    code, out, _ = run(capsys, "energy", "--flops", "11e9", "--mem", "35.3e3")
    assert code == 0
    doc = parse_json(out)
    assert doc["energy_mj"] == pytest.approx(25.37, rel=0.005)
    assert doc["co2_mg"] == pytest.approx(3.21, rel=0.01)


@pytest.mark.parametrize("flops,mem", [("nan", "1"), ("inf", "1"), ("1", "inf"),
                                       ("1", "nan"), ("-inf", "1"), ("-1", "1")])
def test_energy_non_finite_or_negative_count_is_validation_error(capsys, flops, mem):
    code, out, err = run(capsys, "energy", f"--flops={flops}", f"--mem={mem}")
    assert code == 2
    assert out == "" and "finite and nonnegative" in err


@pytest.mark.parametrize("accuracy", ["nan", "inf", "-inf", "-5", "250"])
def test_report_non_finite_accuracy_is_validation_error(graph_path, capsys, accuracy):
    code, out, err = run(capsys, "report", str(graph_path), "--format", "json",
                         f"--accuracy={accuracy}")
    assert code == 2
    assert out == "" and "accuracy must be finite" in err


def test_infer_quantize_preprocess_flow(tmp_path, capsys):
    graph = tmp_path / "g.json"
    weights = tmp_path / "w.bin"
    qweights = tmp_path / "q.bin"
    clipdir = tmp_path / "frames"
    clipdir.mkdir()
    rng = np.random.default_rng(0)
    for i in range(29):
        write_ppm(clipdir / f"{i:02d}.ppm",
                  rng.integers(0, 256, size=(256, 256, 3)).astype(np.uint8))

    assert run(capsys, "build", "--alpha", "1", "--out", str(graph))[0] == 0
    assert run(capsys, "init-weights", str(graph), "--seed", "7", "--out", str(weights))[0] == 0

    code, out, _ = run(capsys, "infer", str(graph), str(weights), str(clipdir),
                       "--counted", "--format", "json")
    assert code == 0
    doc = parse_json(out)
    assert len(doc["top"]) == 5
    assert doc["ledger"]["flops"] == doc["ledger"]["multiplies"] + doc["ledger"]["adds"]

    code, report_out, _ = run(capsys, "report", str(graph), "--format", "json")
    assert code == 0
    report_doc = parse_json(report_out)
    analytical_flops = sum(e["flops"] for e in report_doc["per_layer"])
    assert doc["ledger"]["flops"] == analytical_flops  # exact for the FLOP column

    code, out2, _ = run(capsys, "infer", str(graph), str(weights), str(clipdir),
                        "--counted", "--format", "json")
    assert out2 == out  # deterministic given identical inputs

    code, table, _ = run(capsys, "infer", str(graph), str(weights), str(clipdir),
                         "--counted", "--format", "table", "--top", "3")
    assert code == 0
    *classes, counts = table.splitlines()
    assert classes == [f"class {e['class']:>3}  p={e['probability']:.6f}"
                       for e in doc["top"][:3]]
    assert counts == (f"flops={doc['ledger']['flops']}  "
                      f"memory_accesses={doc['ledger']['memory_accesses']}")

    code, out, _ = run(capsys, "quantize", str(weights), "--out", str(qweights))
    assert code == 0
    assert qweights.stat().st_size <= 6_000_000

    clip_file = tmp_path / "clip.npy"
    assert run(capsys, "preprocess", str(clipdir), "--out", str(clip_file))[0] == 0
    assert clip_file.exists()


@pytest.mark.parametrize("manifest", [b"[]", b'{"schema_version": 1, "tensors": 5}'])
def test_quantize_malformed_manifest_is_validation_error(tmp_path, capsys, manifest):
    bad = tmp_path / "bad.mvw"
    bad.write_bytes(b"MVSRW1" + len(manifest).to_bytes(4, "little") + manifest)
    code, _, err = run(capsys, "quantize", str(bad), "--out", str(tmp_path / "q.mvw"))
    assert code == 2
    assert "manifest" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("top", ["-2", "0"])
def test_infer_top_below_one_is_usage_error(tmp_path, capsys, top):
    # argparse rejects the value before any file is read
    code, out, err = run(capsys, "infer", "g.json", "w.bin", str(tmp_path), "--top", top)
    assert code == 1
    assert "--top" in err and out == ""


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_init_weights_seed_below_zero_or_not_an_int_is_usage_error(tmp_path, graph_path, capsys,
                                                                  seed):
    # argparse rejects the value before the graph is read or weights are drawn
    out_path = tmp_path / "w.bin"
    code, out, err = run(capsys, "init-weights", str(graph_path), "--seed", seed,
                         "--out", str(out_path))
    assert (code, out) == (1, "")
    assert "--seed" in err and not out_path.exists()


def test_infer_missing_weights_is_io_error(tmp_path, graph_path, capsys):
    clipdir = tmp_path / "frames"
    clipdir.mkdir()
    code, _, err = run(capsys, "infer", str(graph_path), str(tmp_path / "none.bin"),
                       str(clipdir))
    assert code == 3
    assert err


def test_preprocess_white_frames(tmp_path, capsys):
    clipdir = tmp_path / "white"
    clipdir.mkdir()
    for i in range(29):
        write_ppm(clipdir / f"{i:02d}.ppm", np.full((256, 256, 3), 255, dtype=np.uint8))
    out_file = tmp_path / "clip.npy"
    code, _, _ = run(capsys, "preprocess", str(clipdir), "--out", str(out_file))
    assert code == 0
    assert np.all(np.load(out_file) == 1.0)


def test_preprocess_non_integer_ppm_header_is_validation_error(tmp_path, capsys):
    clipdir = tmp_path / "frames"
    clipdir.mkdir()
    frame = np.zeros((256, 256, 3), dtype=np.uint8)
    for i in range(29):
        write_ppm(clipdir / f"{i:02d}.ppm", frame)
    (clipdir / "07.ppm").write_bytes(b"P6\nabc 256\n255\n" + frame.tobytes())
    code, _, err = run(capsys, "preprocess", str(clipdir), "--out", str(tmp_path / "c.npy"))
    assert code == 2
    assert "07.ppm" in err and "Traceback" not in err
    assert not (tmp_path / "c.npy").exists()


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_python_dash_m_reports_a_bad_graph_with_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "nodes": [{"id": "x", "kind": [1]}]}')
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "mobivsr", "report", str(bad)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "unknown layer kind" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("lines_read", [0, 1])
def test_a_closed_output_pipe_ends_quietly(lines_read):
    """`compare ... | head -1`: the reader closes after one line, or before the
    first write, which always makes the writer's next write fail."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    command = [sys.executable, "-m", "mobivsr", "compare", "--presets", "--format", "csv"]
    reader, writer = os.pipe()
    with os.fdopen(reader, "rb") as stream:
        if lines_read == 0:
            stream.close()
        proc = subprocess.Popen(command, stdout=writer, stderr=subprocess.PIPE, env=env)
        os.close(writer)
        if lines_read:
            assert stream.readline().startswith(b"model,source,")
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 0


GRAPH_DOC = json.loads(serialize_graph(build_mobivsr(1)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6)


@st.composite
def mutated_graph_doc(draw):
    """build_mobivsr(1)'s graph document with one key of the document or of a
    node dropped, one such value set to a JSON value of another type, or one
    residual edge endpoint rewritten."""
    doc = copy.deepcopy(GRAPH_DOC)
    mutation = draw(st.sampled_from(["drop key", "retype", "edge endpoint"]))
    if mutation == "edge endpoint":
        edge = doc["residual_edges"][draw(st.integers(0, len(doc["residual_edges"]) - 1))]
        ids = [node["id"] for node in doc["nodes"]]
        edge[draw(st.integers(0, 1))] = draw(st.sampled_from(ids) | st.text(max_size=6))
        return doc
    nodes = doc["nodes"]
    target = doc if draw(st.booleans()) else nodes[draw(st.integers(0, len(nodes) - 1))]
    key = draw(st.sampled_from(sorted(target)))
    if mutation == "drop key":
        del target[key]
    else:
        old = target[key]
        target[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    return doc


@settings(max_examples=150, deadline=None)
@given(mutated_graph_doc())
def test_mutated_graph_json_parses_or_is_a_schema_error(doc):
    text = json.dumps(doc)
    try:
        parse_graph(text)
    except SchemaError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["report", str(path), "--format", "json"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_build_plan_names_the_plan_in_the_graph_file(tmp_path, capsys):
    path = tmp_path / "g_slim.json"
    code, out, _ = run(capsys, "build", "--alpha", "1", "--plan", "slim", "--out", str(path))
    assert code == 0
    assert "slim plan" in out
    assert parse_json(path.read_text())["channel_plan"] == "slim"


def test_unknown_plan_is_usage_error_listing_the_choices(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--alpha", "1", "--plan", "huge",
                       "--out", str(tmp_path / "g.json"))
    assert code == 1
    assert "unknown channel plan 'huge'" in err
    assert "choices: slim, base, wide, compact-head" in err
    assert not (tmp_path / "g.json").exists()


def test_energy_dram_bounds_bracket_the_default(capsys):
    energy = {}
    for dram in ("low", "default", "high"):
        code, out, _ = run(capsys, "energy", "--flops", "11e9", "--mem", "35.3e3",
                           "--dram", dram)
        assert code == 0
        doc = parse_json(out)
        assert doc["dram"] == dram
        energy[dram] = doc["energy_mj"]
    assert energy["low"] < energy["default"] < energy["high"]
