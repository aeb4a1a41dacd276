"""Command-line surface.

Subcommands: build, report, compare, infer, quantize, preprocess, energy,
init-weights. Exit codes: 0 success, 1 usage, 2 validation or schema error,
3 I/O error. JSON and CSV outputs carry full-precision numbers and a stable
schema; table output is rounded for humans and makes no compatibility
promise. No output is colorized, so NO_COLOR is honored trivially.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .arch import (
    CHANNEL_PLAN_CANDIDATES,
    DEFAULT_CHANNEL_PLAN,
    IMPACT_OUTLIERS,
    PUBLISHED_IMPACT,
    build_mobivsr,
    published_models,
)
from .costs import aggregate, efficiency_ratios
from .energy import (
    DEFAULT_CARBON_FACTOR,
    DEFAULT_ENERGY_TABLE,
    co2_per_inference,
    energy_per_inference,
    impact_report,
)
from .engine import init_weights, run_graph
from .errors import MobiVSRError
from .model_io import (
    load_clip_dir,
    preprocess_clip,
    read_graph,
    read_weights,
    write_clip,
    write_graph,
    write_weights,
)
from .quantize import quantize_weights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


@dataclass
class ReportRow:
    """One comparison row; mem_access_raw is None for published presets."""

    model: str
    source: str  # "computed" or "published"
    size_mb: float
    params_m: float
    mem_access_raw: int | None
    mem_access_k: float
    flops_b: float
    energy_mj: float
    co2_mg: float
    accuracy: float | None = None
    acc_per_mb: float | None = None
    acc_per_gflop: float | None = None
    acc_per_mparam: float | None = None
    acc_per_kaccess: float | None = None
    increment_m: float | None = None
    note: str = ""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _alpha_list(text):
    if not text.strip():
        return []
    return [_positive_int(part) for part in text.split(",")]


def _plan(name):
    for plan in CHANNEL_PLAN_CANDIDATES:
        if plan.name == name:
            return plan
    raise argparse.ArgumentTypeError(
        f"unknown channel plan {name!r}; choices: "
        f"{', '.join(p.name for p in CHANNEL_PLAN_CANDIDATES)}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mobivsr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a MobiVSR-alpha graph JSON file")
    p.add_argument("--alpha", type=_positive_int, required=True)
    p.add_argument("--plan", type=_plan, default=DEFAULT_CHANNEL_PLAN)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("report", help="per-layer and total costs for a graph")
    p.add_argument("graph")
    p.add_argument("--dtype", choices=("fp32", "int8"), default="fp32")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--accuracy", type=float, default=None,
                   help="optional accuracy (percent) for efficiency ratios")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="cost/energy table across alphas and presets")
    p.add_argument("--alphas", type=_alpha_list, default=[1, 2, 3, 4, 10, 11])
    p.add_argument("--presets", action="store_true",
                   help="include the published comparison rows")
    p.add_argument("--plan", type=_plan, default=DEFAULT_CHANNEL_PLAN)
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("infer", help="run a clip through a graph")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("clipdir")
    p.add_argument("--counted", action="store_true", help="also report operation counts")
    p.add_argument("--top", type=_positive_int, default=5)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("quantize", help="quantize a weights file to int8")
    p.add_argument("weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("preprocess", help="crop/grayscale a frame directory into a clip")
    p.add_argument("framedir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("energy", help="energy/CO2 from FLOP and memory-access counts")
    p.add_argument("--flops", type=float, required=True)
    p.add_argument("--mem", type=float, required=True)
    p.add_argument("--dram", choices=("low", "default", "high"), default="default")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("init-weights", help="write seeded random weights for a graph")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_weights)

    return parser


def cmd_build(args) -> int:
    graph = build_mobivsr(args.alpha, args.plan)
    write_graph(args.out, graph)
    print(f"wrote MobiVSR-{args.alpha} ({args.plan.name} plan, "
          f"{len(graph.nodes)} nodes) to {args.out}")
    return EXIT_OK


def _graph_row(name, graph, dtype) -> tuple:
    report = aggregate(graph, dtype=dtype)
    impact = impact_report(report)
    row = ReportRow(
        model=name,
        source="computed",
        size_mb=report.size_bytes / 1e6,
        params_m=report.totals.params / 1e6,
        mem_access_raw=report.totals.memory_accesses,
        mem_access_k=report.totals.memory_accesses / 1e3,
        flops_b=report.totals.flops / 1e9,
        energy_mj=impact.energy_mj,
        co2_mg=impact.co2_mg,
    )
    return report, row


def cmd_report(args) -> int:
    graph = read_graph(args.graph)
    report, row = _graph_row(f"graph({args.graph})", graph, args.dtype)
    if args.accuracy is not None:
        ratios = efficiency_ratios(report, args.accuracy)
        row = replace(row, accuracy=args.accuracy, **asdict(ratios))
    per_layer = [
        {"id": node_id, "params": cost.params, "memory_accesses": cost.memory_accesses,
         "flops": cost.flops}
        for node_id, cost in report.per_layer
    ]
    if args.format == "json":
        print(json.dumps({"totals": asdict(row), "per_layer": per_layer}, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["id", "params", "memory_accesses", "flops"])
        for entry in per_layer:
            writer.writerow([entry["id"], entry["params"], entry["memory_accesses"],
                             entry["flops"]])
        writer.writerow(["TOTAL", report.totals.params, report.totals.memory_accesses,
                         report.totals.flops])
        for key, value in asdict(row).items():
            writer.writerow([key, value, "", ""])
    else:
        print(f"model: {row.model}  dtype: {report.dtype}")
        print(f"{'layer':<18} {'params':>12} {'mem accesses':>14} {'flops':>14}")
        for entry in per_layer:
            print(f"{entry['id']:<18} {entry['params']:>12} "
                  f"{entry['memory_accesses']:>14} {entry['flops']:>14}")
        print(f"{'TOTAL':<18} {report.totals.params:>12} "
              f"{report.totals.memory_accesses:>14} {report.totals.flops:>14}")
        print(f"size: {row.size_mb:.2f} MB   energy: {row.energy_mj:.2f} mJ   "
              f"co2: {row.co2_mg:.2f} mg")
        if row.accuracy is not None:
            print(f"ratios: {row.acc_per_mb:.2f} acc/MB  {row.acc_per_gflop:.2f} acc/GFLOP  "
                  f"{row.acc_per_mparam:.2f} acc/Mparam  {row.acc_per_kaccess:.2f} acc/Kaccess")
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = []
    prev = None
    for alpha in args.alphas:
        _, row = _graph_row(f"MobiVSR-{alpha}", build_mobivsr(alpha, args.plan), "fp32")
        if prev is not None:
            row.increment_m = (row.params_m - prev[1].params_m) / (alpha - prev[0])
        rows.append(row)
        prev = (alpha, row)
    if args.presets or not args.alphas:
        for preset in published_models():
            impact = impact_report(preset)
            ratios = efficiency_ratios(preset, preset.top1)
            note = ""
            published = PUBLISHED_IMPACT.get(preset.name)
            if preset.name in IMPACT_OUTLIERS and published:
                note = (f"published energy {published[0]} mJ inconsistent with its "
                        f"FLOPs under this model")
            rows.append(ReportRow(
                model=preset.name,
                source="published",
                size_mb=preset.size_mb,
                params_m=preset.params_m,
                mem_access_raw=None,
                mem_access_k=preset.mem_kaccess,
                flops_b=preset.flops_b,
                energy_mj=impact.energy_mj,
                co2_mg=impact.co2_mg,
                accuracy=preset.top1,
                **asdict(ratios),
                note=note,
            ))
    if args.format == "json":
        print(json.dumps([asdict(r) for r in rows], indent=2))
    elif args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(asdict(rows[0]).keys()))
        writer.writeheader()
        for r in rows:
            writer.writerow(asdict(r))
    else:
        print(f"{'model':<22} {'source':<10} {'size MB':>8} {'params M':>9} {'mem K':>10} "
              f"{'flops B':>8} {'mJ':>8} {'mg':>7} {'+M/alpha':>9}")
        for r in rows:
            inc = f"{r.increment_m:.3f}" if r.increment_m is not None else "-"
            flag = "  [!]" if r.note else ""
            print(f"{r.model:<22} {r.source:<10} {r.size_mb:>8.2f} {r.params_m:>9.3f} "
                  f"{r.mem_access_k:>10.1f} {r.flops_b:>8.2f} {r.energy_mj:>8.2f} "
                  f"{r.co2_mg:>7.2f} {inc:>9}{flag}")
        for r in rows:
            if r.note:
                print(f"[!] {r.model}: {r.note}")
    return EXIT_OK


def cmd_infer(args) -> int:
    graph = read_graph(args.graph)
    weights = read_weights(args.weights, graph)
    clip = preprocess_clip(load_clip_dir(args.clipdir))
    result = run_graph(graph, weights, clip.as_input(), counted=args.counted)
    probs = result.output.as_array()
    order = np.argsort(probs)[::-1][: args.top]
    top = [{"class": int(i), "probability": float(probs[i])} for i in order]
    doc = {"top": top}
    if args.counted:
        ledger = result.ledger
        doc["ledger"] = dict(asdict(ledger), flops=ledger.flops(),
                             memory_accesses=ledger.memory_accesses())
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for entry in top:
            print(f"class {entry['class']:>3}  p={entry['probability']:.6f}")
        if args.counted:
            print(f"flops={doc['ledger']['flops']}  "
                  f"memory_accesses={doc['ledger']['memory_accesses']}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    bundle = read_weights(args.weights)
    quantized = quantize_weights(bundle)
    write_weights(args.out, quantized)
    before = Path(args.weights).stat().st_size
    after = Path(args.out).stat().st_size
    print(f"{args.weights}: {before / 1e6:.2f} MB -> {args.out}: {after / 1e6:.2f} MB")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    clip = preprocess_clip(load_clip_dir(args.framedir))
    write_clip(args.out, clip)
    print(f"wrote clip {clip.frames.shape} to {args.out}")
    return EXIT_OK


def cmd_energy(args) -> int:
    energy = energy_per_inference(args.flops, args.mem, DEFAULT_ENERGY_TABLE, args.dram)
    co2 = co2_per_inference(energy, DEFAULT_CARBON_FACTOR)
    print(json.dumps({"flops": args.flops, "mem_accesses": args.mem, "dram": args.dram,
                      "energy_mj": energy, "co2_mg": co2}))
    return EXIT_OK


def cmd_init_weights(args) -> int:
    graph = read_graph(args.graph)
    bundle = init_weights(graph, seed=args.seed)
    write_weights(args.out, bundle, graph)
    size = Path(args.out).stat().st_size
    print(f"wrote {size / 1e6:.2f} MB of seed-{args.seed} weights to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (MobiVSRError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
