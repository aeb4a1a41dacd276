"""Energy and CO2 model against the published per-inference rows."""

import pytest

from mobivsr import (
    CarbonFactor,
    EnergyTable,
    IMPACT_OUTLIERS,
    PUBLISHED_IMPACT,
    co2_per_inference,
    energy_per_inference,
    impact_report,
    published_models,
)

ROWS = {p.name: p for p in published_models()}


@pytest.mark.parametrize("name", [n for n in PUBLISHED_IMPACT if n not in IMPACT_OUTLIERS])
def test_published_energy_reproduced_within_one_percent(name):
    energy_mj, _ = PUBLISHED_IMPACT[name]
    computed = impact_report(ROWS[name]).energy_mj
    assert computed == pytest.approx(energy_mj, rel=0.01)


@pytest.mark.parametrize("name", [n for n in PUBLISHED_IMPACT if n not in IMPACT_OUTLIERS])
def test_published_co2_reproduced_within_one_percent(name):
    _, co2_mg = PUBLISHED_IMPACT[name]
    computed = impact_report(ROWS[name]).co2_mg
    assert computed == pytest.approx(co2_mg, rel=0.01)


def test_lrw_baseline_row_is_genuinely_inconsistent():
    # Documented outlier: the published energy cannot be derived from the
    # published FLOPs/memory under the additive model.
    name = "LRW Baseline"
    energy_mj, _ = PUBLISHED_IMPACT[name]
    computed = impact_report(ROWS[name]).energy_mj
    assert abs(computed - energy_mj) / energy_mj > 0.01


def test_zero_work_zero_energy():
    assert energy_per_inference(0, 0) == 0.0
    assert co2_per_inference(0.0) == 0.0


def test_energy_linear_and_monotone():
    base = energy_per_inference(1e9, 1e4)
    assert energy_per_inference(2e9, 2e4) == pytest.approx(2 * base)
    assert energy_per_inference(3e9, 1e4) > base
    assert energy_per_inference(1e9, 5e4) > base


def test_flops_split_evenly_between_multiplies_and_adds():
    table = EnergyTable()
    flops = 2e9
    expected_pj = (flops / 2) * (table.multiply_pj + table.add_pj)
    assert energy_per_inference(flops, 0) == pytest.approx(expected_pj * 1e-9)


def test_co2_energy_ratio_equals_configured_factor():
    factor = CarbonFactor(mg_per_mj=0.2)
    for name in PUBLISHED_IMPACT:
        report = impact_report(ROWS[name], factor=factor)
        assert report.co2_mg / report.energy_mj == pytest.approx(0.2)


def test_dram_sensitivity_bounds_ordered():
    low = energy_per_inference(1e9, 1e6, dram="low")
    mid = energy_per_inference(1e9, 1e6, dram="default")
    high = energy_per_inference(1e9, 1e6, dram="high")
    assert low < mid < high


def test_energy_table_invariants():
    with pytest.raises(ValueError):
        EnergyTable(dram_default_pj=5000.0)
    with pytest.raises(ValueError):
        EnergyTable(add_pj=-1.0)
    with pytest.raises(ValueError):
        CarbonFactor(mg_per_mj=0.0)
    nan, inf = float("nan"), float("inf")
    for field in ("add_pj", "multiply_pj", "dram_low_pj", "dram_default_pj", "dram_high_pj"):
        for value in (nan, inf, -inf):
            with pytest.raises(ValueError):
                EnergyTable(**{field: value})
    for value in (nan, inf, -inf):
        with pytest.raises(ValueError):
            CarbonFactor(value)
    with pytest.raises(ValueError):
        energy_per_inference(-1, 0)
    with pytest.raises(ValueError):
        energy_per_inference(0, 0, dram="turbo")


def test_impact_report_labels_its_source():
    from mobivsr import LayerGraph, LayerSpec, aggregate

    preset_report = impact_report(ROWS["MobiVSR-1"])
    assert preset_report.source == "published units"
    graph = LayerGraph(nodes=[("fc", LayerSpec("fc", in_features=8, out_features=4))])
    cost_report = impact_report(aggregate(graph, input_shape=(8,)))
    assert cost_report.source == "raw counts"
    assert cost_report.flops == 64
