"""Analytical cost formulas: hand-substituted values and structural properties."""

import ast
from pathlib import Path

import pytest

import mobivsr
from mobivsr import (
    LayerGraph,
    LayerSpec,
    MissingDimension,
    aggregate,
    efficiency_ratios,
    flops_of,
    mem_access_of,
    params_of,
    reference_presets,
)


def conv(kind="conv2d", ci=3, co=64, k=3, t=None, **kw):
    return LayerSpec(kind, in_channels=ci, out_channels=co, kernel_size=k,
                     temporal_size=t, **kw)


class TestParams:
    def test_ds_conv3d_substitution(self):
        assert params_of(conv("ds_conv3d", ci=64, co=64, t=3)) == 14_016

    def test_unit_conv2d(self):
        assert params_of(conv(ci=1, co=1, k=1)) == 1

    def test_fc(self):
        assert params_of(LayerSpec("fc", in_features=512, out_features=500)) == 256_000

    def test_free_kinds(self):
        assert params_of(LayerSpec("relu")) == 0
        assert params_of(LayerSpec("batchnorm", in_channels=8)) == 0

    def test_unshaped_layer_raises_missing_dimension(self):
        with pytest.raises(MissingDimension):
            LayerSpec("conv2d", in_channels=3, out_channels=4)  # no kernel_size
        with pytest.raises(MissingDimension):
            LayerSpec("ds_conv3d", in_channels=3, out_channels=4, kernel_size=3)


class TestMemAccess:
    def test_conv2d_golden(self):
        assert mem_access_of(conv(), (3, 100, 100)) == 17_921_728

    def test_fc_hand_sum(self):
        assert mem_access_of(LayerSpec("fc", in_features=3, out_features=2), (3,)) == 11

    def test_unit_conv2d(self):
        assert mem_access_of(conv(ci=1, co=1, k=1), (1, 1, 1)) == 3

    def test_free_kinds(self):
        assert mem_access_of(LayerSpec("softmax"), (10,)) == 0


class TestFlops:
    def test_conv2d_golden(self):
        assert flops_of(conv(), (3, 100, 100)) == 34_560_000

    def test_fc(self):
        assert flops_of(LayerSpec("fc", in_features=512, out_features=500), (512,)) == 512_000

    def test_ds_forms_are_exact_integers(self):
        spec = conv("ds_conv2d", ci=3, co=7, k=3)
        # 2 * Ci * (K^2 + Co) * spatial positions
        assert flops_of(spec, (3, 5, 5)) == 2 * 3 * (9 + 7) * 25

    def test_free_kinds(self):
        assert flops_of(LayerSpec("relu"), (8, 8)) == 0


@pytest.mark.parametrize("field,values", [
    ("in_channels", (1, 2, 4, 8)),
    ("out_channels", (1, 2, 4, 8)),
    ("kernel_size", (1, 2, 3)),
    ("temporal_size", (1, 2, 3)),
])
def test_params_and_flops_monotone(field, values):
    previous_p, previous_f = -1, -1
    for v in values:
        kw = dict(ci=4, co=4, k=3, t=2)
        kw[{"in_channels": "ci", "out_channels": "co", "kernel_size": "k",
            "temporal_size": "t"}[field]] = v
        spec = conv("ds_conv3d", **kw)
        in_shape = (spec.in_channels, 4, 8, 8)
        p, f = params_of(spec), flops_of(spec, in_shape)
        assert p >= previous_p and f >= previous_f
        previous_p, previous_f = p, f


@pytest.mark.parametrize("ci,co,k", [(2, 2, 2), (3, 4, 3), (8, 16, 3), (4, 32, 5)])
def test_separable_strictly_cheaper_when_it_should_be(ci, co, k):
    dense = conv(ci=ci, co=co, k=k)
    sep = conv("ds_conv2d", ci=ci, co=co, k=k)
    in_shape = (ci, 8, 8)
    assert params_of(sep) < params_of(dense)
    assert flops_of(sep, in_shape) < flops_of(dense, in_shape)


class TestAggregate:
    def test_totals_are_column_sums(self):
        from mobivsr import build_mobivsr

        report = aggregate(build_mobivsr(1))
        assert report.totals.params == sum(c.params for _, c in report.per_layer)
        assert report.totals.flops == sum(c.flops for _, c in report.per_layer)
        assert report.totals.memory_accesses == sum(
            c.memory_accesses for _, c in report.per_layer
        )

    def test_empty_graph(self):
        report = aggregate(LayerGraph(), input_shape=(3, 4, 4))
        assert report.totals.params == 0
        assert report.totals.flops == 0
        assert report.size_bytes == 0

    def test_singleton_fc_graph(self):
        spec = LayerSpec("fc", in_features=512, out_features=500)
        report = aggregate(LayerGraph(nodes=[("fc", spec)]), input_shape=(512,))
        assert report.totals.params == params_of(spec)
        assert report.totals.memory_accesses == mem_access_of(spec, (512,))
        assert report.totals.flops == flops_of(spec, (512,))
        assert report.size_bytes == 4 * 256_000

    def test_int8_size_accounting(self):
        spec = LayerSpec("ds_conv2d", in_channels=2, out_channels=3, kernel_size=3)
        report = aggregate(LayerGraph(nodes=[("l", spec)]), input_shape=(2, 4, 4),
                           dtype="int8")
        assert report.size_bytes == params_of(spec) + 8 * 2  # two weight tensors


class TestEfficiencyRatios:
    def test_published_rows_match_quoted_ratios(self):
        presets = {p.name: p for p in reference_presets()}
        sota = efficiency_ratios(presets["LSTM + ResNet (SOTA)"], 83.0)
        assert sota.acc_per_mb == pytest.approx(0.64, abs=0.02)
        assert sota.acc_per_gflop == pytest.approx(0.29, abs=0.02)
        assert sota.acc_per_mparam == pytest.approx(3.31, abs=0.02)
        assert sota.acc_per_kaccess == pytest.approx(1.47, abs=0.02)

    def test_accuracy_to_size_headline(self):
        from mobivsr import published_models

        rows = {p.name: p for p in published_models()}
        small = efficiency_ratios(rows["MobiVSR-1"], 72.2)
        assert small.acc_per_mb == pytest.approx(4.06, abs=0.02)

    def test_zero_accuracy_zero_ratios(self):
        row = reference_presets()[0]
        ratios = efficiency_ratios(row, 0.0)
        assert (ratios.acc_per_mb, ratios.acc_per_gflop, ratios.acc_per_mparam,
                ratios.acc_per_kaccess) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("module", ["graph.py", "costs.py"])
def test_analytical_route_imports_no_kernel_code(module):
    # the cost formulas must never come from the kernels: the analytical
    # route (graph -> costs) imports neither the kernels nor the engine
    tree = ast.parse((Path(mobivsr.__file__).parent / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names] + [node.module or ""]
        else:
            continue
        imported.update(part for name in names for part in name.split("."))
    assert not imported & {"kernels", "engine"}
