"""Benchmark of the mobivsr toolkit: three seeded closed-loop workloads.

    python3 bench/run.py [--workload stream_a1|audit_a4_int8|cost_sweep|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is set up, served for ``--seconds`` of wall time by one client
that sends request i+1 only after request i returns, and every output is
checked. The untraced run (``--trace 0``) prints the end-to-end metrics; the
traced run (``--trace 1``) repeats the same requests with every public layer
function wrapped in spans and prints the per-layer metrics, a per-node table
and the tracing overhead. Both write their full record under ``bench/out/``.
The last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

import numpy as np

import workloads  # first: it puts the package's sources on sys.path
import tracer as tracing  # noqa: E402

OUT_DIR = workloads.BENCH_DIR / "out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}
_KERNEL_UNITS = {"self_ms": "ms", "flops": "count", "bytes": "B", "gflops_s": "GFLOP/s"}
PER_LAYER = {
    **{f"kernels.{k}.{stat}": unit for k in tracing.LEAF_KERNELS
       for stat, unit in _KERNEL_UNITS.items()},
    "kernels.conv2d.pointwise_ms": "ms",
    "kernels.pointwise_ops.self_ms": "ms",
    "engine.run_graph.ms": "ms",
    "engine.run_graph.self_ms": "ms",
    "engine.forward_layer.self_ms": "ms",
    "tensor.as_array.ms": "ms",
    "tensor.as_array.dequant_bytes": "B",
    **{f"{name}.ms": "ms" for name in tracing.REQUEST_FUNCTIONS},
    **{f"{name}.ms": "ms" for name in tracing.SETUP_FUNCTIONS},
    "costs.flops_gap": "count",
    "costs.mem_access_ratio": "ratio",
    "trace.overhead": "fraction",
}
SETUP_LAYER_METRICS = {f"{name}.ms" for name in tracing.SETUP_FUNCTIONS}


def host_block(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy without show_config(mode=...)
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "note": "CPU frequency and pinning were not controlled",
    }


class Tally:
    """Attempted and failed requests, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, index, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"request {index}: {'; '.join(errors)}")


def same_output(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            if not (value.dtype == b[key].dtype and np.array_equal(value, b[key])):
                return False
        elif value != b[key]:
            return False
    return True


def serve_one(workload, seed: int, index: int, tally: Tally, reference: dict | None = None):
    """Serve and check request ``index``, and compare it with ``reference`` if given.

    Returns (seconds, output); seconds is None when the request failed.
    """
    request = workload.make_input(seed, index)
    start = time.perf_counter()
    try:
        out = workload.serve(request)
        elapsed = time.perf_counter() - start
        errors = workload.check(seed, index, out)
    except Exception:  # a failed request is counted, and the loop goes on
        tally.add(index, [traceback.format_exc(limit=3)])
        return None, None
    if reference is not None and not same_output(out, reference):
        errors.append("traced output differs from untraced output")
    tally.add(index, errors)
    return (None if errors else elapsed), out


def setup_samples(name: str, seed: int, tally: Tally) -> list:
    """Set-up times, each from a fresh interpreter so its first request is cold."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(workloads.BENCH_DIR / "workloads.py"), name, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            tally.add("setup", [proc.stderr.strip()[-500:] or f"exit {proc.returncode}"])
            continue
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.add("setup", doc["errors"])
        samples.append(doc["setup_s"])
    return samples


def peak_memory_mb(workload, seed: int, tally: Tally) -> float:
    """tracemalloc peak over one request, the recorded probe for this seed."""
    probe_seed = seed % workloads.GOLDEN_SEEDS
    request = workload.make_input(probe_seed, 0)
    gc.collect()  # start from the same heap, whatever earlier requests left behind
    tracemalloc.start()
    try:
        out = workload.serve(request)
        peak = tracemalloc.get_traced_memory()[1]
        errors = workload.check(probe_seed, 0, out)
    except Exception:  # counted as a failed request, like any other
        peak, errors = 0, [traceback.format_exc(limit=3)]
    finally:
        tracemalloc.stop()
    tally.add("memory pass", errors)
    return peak / 1e6


def run_workload(name: str, seed: int, seconds: float, trace: bool, goldens: dict) -> dict:
    """Set up, then serve requests 1, 2, ... until ``seconds`` have passed.

    With ``trace`` each request is served twice, untraced and then traced, so
    that both see the same machine state; the traced output must equal the
    untraced one bit for bit.
    """
    workload = workloads.make(name, goldens)
    tally = Tally()
    result = {"workload": name, "host": host_block(seed), "seconds": seconds,
              "trace": int(trace)}
    samples = [] if trace else setup_samples(name, seed, tally)

    tracer = tracing.Tracer()
    with tracer.installed() if trace else contextlib.nullcontext():
        tracer.request = "setup"
        local_setup_s, first = workloads.timed_setup(workload, seed)
    tally.add(0, workload.check(seed, 0, first))

    latencies, traced = [], {}
    index, deadline = 1, time.perf_counter() + seconds
    while index == 1 or time.perf_counter() < deadline:
        elapsed, out = serve_one(workload, seed, index, tally)
        if elapsed is not None:
            latencies.append(elapsed)
            if trace:
                tracer.request = index
                with tracer.installed():
                    traced_elapsed, _ = serve_one(workload, seed, index, tally, out)
                if traced_elapsed is not None:
                    traced[index] = traced_elapsed
        index += 1
    served = len(latencies)

    if trace:
        metrics = tracing.layer_metrics(tracer, list(traced))
        nodes = []
        if hasattr(workload, "graph"):
            nodes = tracing.node_table(tracer, workload.graph, list(traced))
            metrics.update(tracing.route_metrics(nodes))
        if traced:
            overhead = statistics.median(traced.values()) / statistics.median(latencies) - 1
            metrics["trace.overhead"] = overhead
        result["metrics"] = {
            key: {"value": float(metrics.get(key, 0.0)), "unit": unit,
                  "n": 1 if key in SETUP_LAYER_METRICS else len(traced)}
            for key, unit in PER_LAYER.items()
        }
        result["nodes"] = nodes
        result["span_fields"] = ["name", "start_ns", "end_ns", "parent", "request", "extra"]
        result["spans"] = tracer.spans
    else:
        peak = peak_memory_mb(workload, seed, tally)
        ms = 1e3 * np.percentile(latencies, (50, 90)) if latencies else (0.0, 0.0)
        values = {
            "requests_per_s": (served / sum(latencies) if latencies else 0.0, served),
            "latency_ms.p50": (float(ms[0]), served),
            "latency_ms.p90": (float(ms[1]), served),
            "peak_mem_mb": (peak, 1),
            "setup_s": (statistics.median(samples) if samples else local_setup_s,
                        len(samples)),
        }
        result["metrics"] = {key: {"value": values[key][0], "unit": unit, "n": values[key][1]}
                             for key, unit in END_TO_END.items()}
        result["setup_samples_s"] = samples
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted, errors=tally.messages)
    return result


def print_report(result: dict):
    print(f"# host: {json.dumps(result['host'])}")
    print(f"# workload {result['workload']}  seed {result['host']['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    for key, m in result["metrics"].items():
        print(f"{key:<36} {m['value']:>16.6g} {m['unit']:<8} n={m['n']}")
    if not result["trace"]:
        print(f"{'failed_ratio':<36} {result['failed_ratio']:>16.6g} {'fraction':<8} "
              f"n={result['attempted']}")
    for row in result.get("nodes", ()):
        meas, anal = row["measured"], row["analytical"]
        shapes = f"{tuple(row['in_shape'])}->{tuple(row['out_shape'])}"
        ms = "-" if row["self_ms"] is None else f"{row['self_ms']:.3f}"
        ratio = (f"{anal['memory_accesses'] / meas['memory_accesses']:.2f}"
                 if meas and meas["memory_accesses"] else "-")
        flops = f"{meas['flops']}/{anal['flops']}" if meas else "-"
        print(f"  {row['node']:<22} {row['kind']:<15} {shapes:<40} {ms:>9} ms  "
              f"flops {flops}  mem ratio {ratio}")
    for message in result["errors"]:
        print(f"! {message}")


def write_record(result: dict):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{result['workload']}-seed{result['host']['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, separators=(",", ":")))
    print(f"# record: {path.relative_to(workloads.BENCH_DIR.parent)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    goldens = workloads.load_goldens()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), goldens)
        print_report(result)
        write_record(result)
        prefix = "" if len(names) == 1 else f"{name}."
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            summary["metrics"][prefix + key] = {"value": m["value"], "unit": m["unit"]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
