"""Record the values the benchmark checks outputs against, into goldens.json.

    python3 bench/record_goldens.py

The file is meant to be written once, from code whose outputs are trusted,
and then kept. Re-recording it to make a failing check pass hides the
defect the check found.
"""

from __future__ import annotations

import json

import workloads

GOLDEN_KEYS = [(seed, index) for seed in range(workloads.GOLDEN_SEEDS)
               for index in range(workloads.GOLDEN_INDICES)]


def record_inference(name: str) -> dict:
    workload = workloads.make(name, goldens=None)
    workload.setup()
    top5, accesses = {}, set()
    for seed, index in GOLDEN_KEYS:
        out = workload.serve(workload.make_input(seed, index))
        top5[f"{seed}:{index}"] = [[c, float(out["probs"][c])] for c in out["top5"]]
        if out["ledger"] is not None:
            accesses.add(out["ledger"].memory_accesses())
    doc = {"top5": top5}
    if accesses:
        (doc["memory_accesses"],) = accesses  # counts depend on shapes only
    return doc


def record_cost_sweep() -> dict:
    workload = workloads.make("cost_sweep", goldens=None)
    recorded = {}
    for alpha in workloads.ALPHAS:
        out = workload.serve(alpha)
        recorded[str(alpha)] = {key: out[key] for key in
                                ("params", "flops", "memory_accesses", "int8_size_bytes")}
    return recorded


def main():
    goldens = {
        "stream_a1": record_inference("stream_a1"),
        "audit_a4_int8": record_inference("audit_a4_int8"),
        "cost_sweep": record_cost_sweep(),
    }
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
