"""Sweep the depth hyperparameter alpha and watch cost scale linearly.

Each unit of alpha adds one LipRes block to each of the four subgraphs, so
the parameter increment is exactly constant. Computed sizes are printed next
to the published figures for the same variants.
"""

from mobivsr import aggregate, build_mobivsr, published_models

PUBLISHED = {p.name: p for p in published_models()}

print(f"{'model':<12} {'params':>12} {'size MB':>9} {'published':>10} "
      f"{'GFLOPs':>8} {'+params/alpha':>14}")
previous = None
for alpha in (1, 2, 3, 4, 10, 11):
    report = aggregate(build_mobivsr(alpha))
    name = f"MobiVSR-{alpha}"
    published = PUBLISHED[name].size_mb
    increment = ""
    if previous is not None:
        increment = f"{(report.totals.params - previous[1]) / (alpha - previous[0]):,.0f}"
    print(f"{name:<12} {report.totals.params:>12,} {report.size_mb:>9.2f} "
          f"{published:>10.1f} {report.flops_b:>8.2f} {increment:>14}")
    previous = (alpha, report.totals.params)

print()
print("Published comparison rows (reported units):")
for preset in published_models():
    if preset.name.startswith("MobiVSR"):
        continue
    print(f"  {preset.name:<22} {preset.size_mb:>6.1f} MB  {preset.params_m:>5.1f} M params"
          f"  {preset.flops_b:>6.1f} B FLOPs  top-1 {preset.top1:.1f}%")
