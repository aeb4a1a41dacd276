"""Per-inference energy and CO2 estimation from FLOP and memory totals.

The model is additive: half the FLOPs are multiplies and half are adds
(the kernels' accumulator convention), each memory access is one DRAM word
transfer, and every operation is billed at a fixed per-operation energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import CostReport


@dataclass(frozen=True)
class EnergyTable:
    """Per-operation energy in picojoules (45 nm class estimates).

    DRAM access energy is quoted as a range per 64-bit word; the default is
    the midpoint, with the bounds kept for sensitivity reporting.
    """

    add_pj: float = 0.9
    multiply_pj: float = 3.7
    dram_low_pj: float = 1300.0
    dram_high_pj: float = 2600.0
    dram_default_pj: float = 1950.0

    def __post_init__(self):
        # written so that NaN fails it too: every comparison with NaN is false
        if not all(0 < pj < math.inf for pj in (self.add_pj, self.multiply_pj, self.dram_low_pj,
                                                 self.dram_default_pj, self.dram_high_pj)):
            raise ValueError("per-operation energies must be positive and finite")
        if not self.dram_low_pj <= self.dram_default_pj <= self.dram_high_pj:
            raise ValueError("dram default must lie between the low and high bounds")

    def dram_pj(self, dram: str = "default") -> float:
        try:
            return {"low": self.dram_low_pj, "default": self.dram_default_pj,
                    "high": self.dram_high_pj}[dram]
        except KeyError:
            raise ValueError(f"dram must be 'low', 'default' or 'high', got {dram!r}") from None


@dataclass(frozen=True)
class CarbonFactor:
    """Emission factor in mg CO2 per mJ, calibrated against the published
    per-inference emission rows (an aggressive ~455 kg/kWh equivalent;
    exposed as configuration rather than asserted as grid-typical)."""

    mg_per_mj: float = 0.1265

    def __post_init__(self):
        if not 0 < self.mg_per_mj < math.inf:  # NaN fails it too
            raise ValueError("carbon factor must be positive and finite")


DEFAULT_ENERGY_TABLE = EnergyTable()
DEFAULT_CARBON_FACTOR = CarbonFactor()


def energy_per_inference(flops, mem_accesses, table: EnergyTable = DEFAULT_ENERGY_TABLE,
                         dram: str = "default") -> float:
    """Energy of one forward pass in millijoules.

    FLOPs split evenly into multiplies and adds; each memory access costs one
    DRAM transfer at the selected table entry.
    """
    # written so that NaN fails it too: every comparison with NaN is false
    if not (0 <= flops < math.inf and 0 <= mem_accesses < math.inf):
        raise ValueError("flops and memory accesses must be finite and nonnegative")
    pj = (flops / 2) * (table.multiply_pj + table.add_pj) + mem_accesses * table.dram_pj(dram)
    return pj * 1e-9


def co2_per_inference(energy_mj: float,
                      factor: CarbonFactor = DEFAULT_CARBON_FACTOR) -> float:
    """CO2 emitted by one forward pass, in milligrams."""
    return energy_mj * factor.mg_per_mj


@dataclass(frozen=True)
class ImpactReport:
    flops: float
    mem_accesses: float
    energy_mj: float
    co2_mg: float
    source: str  # "raw counts" for cost reports, "published units" for presets


def impact_report(costs, factor: CarbonFactor = DEFAULT_CARBON_FACTOR) -> ImpactReport:
    """Energy and CO2 for either a CostReport or a published preset row.

    CostReports contribute raw operation counts; preset rows carry FLOPs in
    billions and memory accesses in thousands and are converted accordingly.
    Energy uses the default table at its midpoint DRAM cost; call
    energy_per_inference directly for another table or DRAM bound.
    """
    if isinstance(costs, CostReport):
        flops = costs.totals.flops
        mem = costs.totals.memory_accesses
        source = "raw counts"
    else:
        flops = costs.flops_b * 1e9
        mem = costs.mem_kaccess * 1e3
        source = "published units"
    energy = energy_per_inference(flops, mem)
    return ImpactReport(flops=flops, mem_accesses=mem, energy_mj=energy,
                        co2_mg=co2_per_inference(energy, factor), source=source)
