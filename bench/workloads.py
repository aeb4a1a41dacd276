"""The benchmark's three workloads, driven through mobivsr's public modules.

Each workload is a closed loop with one client. ``make_input(seed, i)`` is
the client's side: it builds request ``i`` from the workload seed and is not
timed. ``setup()`` makes the workload ready to serve, ``serve(input)`` runs
one request, and ``check(seed, i, output)`` lists what is wrong with that
output (nothing when it is correct).

Run as a script, ``python3 bench/workloads.py <workload> <seed>`` times one
set-up in a fresh interpreter, so that its first request is really cold, and
prints ``{"setup_s": ..., "errors": [...]}``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
GOLDENS_PATH = BENCH_DIR / "goldens.json"

if not (SRC_DIR / "mobivsr" / "__init__.py").is_file():
    raise SystemExit(f"bench: mobivsr sources not found under {SRC_DIR}")
sys.path.insert(0, str(SRC_DIR))

from mobivsr import arch, costs, energy, engine, model_io, quantize  # noqa: E402

WEIGHT_SEED = 0
# Probabilities are recorded for clip keys (seed, index) with seed below
# GOLDEN_SEEDS and index below GOLDEN_INDICES.
GOLDEN_SEEDS = 100
GOLDEN_INDICES = 2
PROB_TOLERANCE = 1e-5
ALPHAS = tuple(range(1, 12))


def raw_clip(seed: int, index: int) -> np.ndarray:
    """A seeded 29x256x256x3 uint8 clip, the input of one inference request."""
    rng = np.random.default_rng([seed, index])
    shape = (model_io.FRAME_COUNT, model_io.FRAME_SIDE, model_io.FRAME_SIDE, 3)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


class Inference:
    """Raw clip -> preprocess_clip -> run_graph -> top-5 classes."""

    def __init__(self, name: str, alpha: int, int8: bool, goldens: dict | None):
        self.name = name
        self.alpha = alpha
        self.int8 = int8
        self.counted = int8
        self.goldens = goldens

    def make_input(self, seed: int, index: int) -> np.ndarray:
        return raw_clip(seed, index)

    def setup(self):
        self.graph = arch.build_mobivsr(self.alpha)
        weights = engine.init_weights(self.graph, seed=WEIGHT_SEED)
        if self.int8:
            blob = model_io.serialize_weights(quantize.quantize_weights(weights), self.graph)
            weights = model_io.parse_weights(blob, self.graph)
        self.weights = weights
        if self.counted:
            self.analytical_flops = costs.aggregate(self.graph).totals.flops

    def serve(self, raw: np.ndarray) -> dict:
        clip = model_io.preprocess_clip(raw)
        result = engine.run_graph(self.graph, self.weights, clip.as_input(),
                                  counted=self.counted)
        probs = result.output.as_array()
        top5 = np.argsort(probs)[::-1][:5]
        return {"probs": probs, "top5": [int(c) for c in top5], "ledger": result.ledger}

    def check(self, seed: int, index: int, out: dict) -> list:
        errors = []
        probs = out["probs"]
        if not np.all(np.isfinite(probs)):
            errors.append("softmax output is not finite")
        elif abs(float(probs.sum(dtype=np.float64)) - 1.0) > PROB_TOLERANCE:
            errors.append(f"softmax sums to {float(probs.sum(dtype=np.float64))!r}")
        if self.goldens is None:
            return errors
        golden = self.goldens["top5"].get(f"{seed}:{index}")
        for cls, prob in golden or ():
            if not abs(float(probs[cls]) - prob) <= PROB_TOLERANCE:
                errors.append(f"class {cls}: p={float(probs[cls])!r}, recorded {prob!r}")
        if self.counted:
            ledger = out["ledger"]
            if ledger.flops() != self.analytical_flops:
                errors.append(f"ledger flops {ledger.flops()} != aggregate "
                              f"{self.analytical_flops}")
            recorded = self.goldens["memory_accesses"]
            if ledger.memory_accesses() != recorded:
                errors.append(f"ledger memory accesses {ledger.memory_accesses()} != "
                              f"recorded {recorded}")
        return errors


class CostSweep:
    """The analytical route for the next alpha in 1..11; calls no kernel."""

    name = "cost_sweep"

    def __init__(self, goldens: dict | None):
        self.goldens = goldens

    def make_input(self, seed: int, index: int) -> int:
        # The analytical route has no data input, so the seed changes nothing:
        # every run costs the same alphas in the same order, starting at 1.
        return ALPHAS[index % len(ALPHAS)]

    def setup(self):
        pass

    def serve(self, alpha: int) -> dict:
        g = arch.build_mobivsr(alpha)
        fp32 = costs.aggregate(g)
        int8 = costs.aggregate(g, dtype="int8")
        impact = energy.impact_report(fp32)
        reparsed = costs.aggregate(model_io.parse_graph(model_io.serialize_graph(g)))
        return {
            "alpha": alpha,
            "params": fp32.totals.params,
            "flops": fp32.totals.flops,
            "memory_accesses": fp32.totals.memory_accesses,
            "int8_size_bytes": int8.size_bytes,
            "int8_totals": int8.totals,
            "reparsed_totals": reparsed.totals,
            "energy_mj": impact.energy_mj,
        }

    def check(self, seed: int, index: int, out: dict) -> list:
        errors = []
        totals = costs.LayerCost(out["params"], out["memory_accesses"], out["flops"])
        if out["reparsed_totals"] != totals:
            errors.append(f"alpha {out['alpha']}: graph round trip changed the totals")
        if out["int8_totals"] != totals:
            errors.append(f"alpha {out['alpha']}: int8 totals differ from fp32")
        if not (math.isfinite(out["energy_mj"]) and out["energy_mj"] > 0):
            errors.append(f"alpha {out['alpha']}: energy {out['energy_mj']!r}")
        if self.goldens is not None:
            recorded = self.goldens[str(out["alpha"])]
            for key, value in recorded.items():
                if out[key] != value:
                    errors.append(f"alpha {out['alpha']}: {key} {out[key]} != "
                                  f"recorded {value}")
        return errors


WORKLOADS = ("stream_a1", "audit_a4_int8", "cost_sweep")


def make(name: str, goldens: dict | None):
    """The named workload; ``goldens=None`` skips the recorded-value checks."""
    part = None if goldens is None else goldens[name]
    if name == "stream_a1":
        return Inference(name, alpha=1, int8=False, goldens=part)
    if name == "audit_a4_int8":
        return Inference(name, alpha=4, int8=True, goldens=part)
    if name == "cost_sweep":
        return CostSweep(part)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def timed_setup(workload, seed: int):
    """Set up and serve request 0, the first (cold) request.

    Returns (seconds, output); the client's input is made before the clock starts.
    """
    first = workload.make_input(seed, 0)
    start = time.perf_counter()
    workload.setup()
    out = workload.serve(first)
    return time.perf_counter() - start, out


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = make(name, load_goldens())
    seconds, out = timed_setup(workload, seed)
    print(json.dumps({"setup_s": seconds, "errors": workload.check(seed, 0, out)}))
