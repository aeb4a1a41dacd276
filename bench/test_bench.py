"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

    python3 -m pytest -q bench/test_bench.py

Pins the summary line's schema, the metric names and units against
BENCHMARK.json, and the host block of the written record.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SEED = 3


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def summary(workload: str, trace: int) -> tuple:
    proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stdout
    assert doc["failed"] == 0 and doc["attempted"] >= 2
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    return doc, lines


def units(doc) -> dict:
    return {name: m["unit"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    doc, lines = summary(workload, trace=0)
    assert units(doc) == {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert any(line.startswith("failed_ratio") for line in lines)
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{SEED}-trace0.json").read_text())
    assert set(record["host"]) == {"nproc", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS",
                                   "OMP_NUM_THREADS", "seed", "note"}
    assert record["host"]["seed"] == SEED
    assert len(record["setup_samples_s"]) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    doc, lines = summary(workload, trace=1)
    assert units(doc) == {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert record["spans"] and len(record["span_fields"]) == 6
    if workload == "cost_sweep":
        assert values["costs.aggregate.ms"] > 0 and values["kernels.depthwise2d.self_ms"] == 0
        assert record["nodes"] == []
        return
    assert values["costs.flops_gap"] == 0
    assert values["kernels.depthwise2d.self_ms"] > 0 and values["engine.run_graph.ms"] > 0
    nodes = {row["node"]: row for row in record["nodes"]}
    assert nodes["frontend.ds3d2"]["measured"]["flops"] == \
        nodes["frontend.ds3d2"]["analytical"]["flops"]
    if workload == "stream_a1":
        assert values["costs.mem_access_ratio"] == pytest.approx(2.32, abs=0.01)
        assert values["tensor.as_array.dequant_bytes"] == 0
    else:
        assert values["tensor.as_array.dequant_bytes"] > 0
        assert values["quantize.quantize_weights.ms"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
