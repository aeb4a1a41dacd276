"""Analytical cost formulas: hand-substituted values and structural properties."""

import ast
from pathlib import Path

import numpy as np
import pytest

import mobivsr
from mobivsr import (
    LayerGraph,
    LayerSpec,
    MissingDimension,
    aggregate,
    build_mobivsr,
    counted_forward,
    efficiency_ratios,
    exact_accesses_of,
    flops_of,
    init_weights,
    mem_access_of,
    node_inputs,
    params_of,
    published_models,
    quantize_weights,
    run_graph,
    shape_infer,
)
from mobivsr.costs import COSTED_KINDS


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

    def test_graph_without_input_shape_names_both_remedies(self):
        graph = LayerGraph(nodes=[("r", LayerSpec("relu"))])
        with pytest.raises(ValueError, match="input_shape") as info:
            aggregate(graph)
        assert "add one to the graph" in str(info.value)
        assert "pass input_shape=" in str(info.value)

    def test_int8_size_accounting(self):
        spec = LayerSpec("ds_conv2d", in_channels=2, out_channels=3, kernel_size=3)
        report = aggregate(LayerGraph(nodes=[("l", spec)]), input_shape=(2, 4, 4),
                           dtype="int8")
        assert report.size_bytes == params_of(spec) + 8 * 2  # two weight tensors


class TestEfficiencyRatios:
    def test_published_rows_match_quoted_ratios(self):
        rows = {p.name: p for p in published_models()}
        sota = efficiency_ratios(rows["LSTM + ResNet (SOTA)"], 83.0)
        assert sota.acc_per_mb == pytest.approx(0.64, abs=0.02)
        assert sota.acc_per_gflop == pytest.approx(0.29, abs=0.02)
        assert sota.acc_per_mparam == pytest.approx(3.31, abs=0.02)
        assert sota.acc_per_kaccess == pytest.approx(1.47, abs=0.02)

    def test_accuracy_to_size_headline(self):
        rows = {p.name: p for p in published_models()}
        small = efficiency_ratios(rows["MobiVSR-1"], 72.2)
        assert small.acc_per_mb == pytest.approx(4.06, abs=0.02)

    def test_zero_accuracy_zero_ratios(self):
        row = {p.name: p for p in published_models()}["LSTM + ResNet (SOTA)"]
        ratios = efficiency_ratios(row, 0.0)
        assert (ratios.acc_per_mb, ratios.acc_per_gflop, ratios.acc_per_mparam,
                ratios.acc_per_kaccess) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_cost_report_ratios_divide_by_the_raw_counts_in_table_units(self, alpha):
        # the unit properties give the same floats as converting raw counts
        report = aggregate(build_mobivsr(alpha))
        ratios = efficiency_ratios(report, 73.4)
        assert ratios.acc_per_mb == 73.4 / (report.size_bytes / 1e6)
        assert ratios.acc_per_gflop == 73.4 / (report.totals.flops / 1e9)
        assert ratios.acc_per_mparam == 73.4 / (report.totals.params / 1e6)
        assert ratios.acc_per_kaccess == 73.4 / (report.totals.memory_accesses / 1e3)

    def test_zero_cost_graph_names_the_zero_column(self):
        graph = LayerGraph(nodes=[("r", LayerSpec("relu"))], input_shape=(2, 3))
        with pytest.raises(ValueError, match="size_mb is zero"):
            efficiency_ratios(aggregate(graph), 50.0)


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


def test_aggregate_rejects_an_unknown_dtype():
    with pytest.raises(ValueError, match="dtype must be 'fp32' or 'int8', got 'fp16'"):
        aggregate(build_mobivsr(1), dtype="fp16")


def _counted_mobivsr(alpha, dtype):
    graph = build_mobivsr(alpha)
    bundle = init_weights(graph, seed=2)
    if dtype == "int8":
        bundle = quantize_weights(bundle)
    x = np.random.default_rng(3).random(graph.input_shape, dtype=np.float32)
    return graph, bundle, x


def test_exact_accesses_equal_each_mobivsr_nodes_counted_accesses():
    """On every costed node of MobiVSR-1, the strided ones included, the
    exact closed form equals the accesses its counted kernel tallies."""
    graph, bundle, x = _counted_mobivsr(1, "fp32")
    kept = run_graph(graph, bundle, x, keep_outputs=True).node_outputs
    _, shapes = shape_infer(graph, graph.input_shape)
    inputs, costed = node_inputs(graph), 0
    for node_id, spec in graph.nodes:
        if spec.kind in COSTED_KINDS:
            source = inputs[node_id][0]
            source = x if source is None else kept[source]
            _, ledger = counted_forward(spec, source, bundle[node_id])
            assert exact_accesses_of(spec, shapes[node_id][0]) == ledger.memory_accesses(), \
                node_id
            costed += 1
    assert costed == 17


@pytest.mark.parametrize("dtype", ["fp32", "int8"])
@pytest.mark.parametrize("alpha,accesses", [(1, 762_155_407), (2, 1_350_315_279),
                                            (3, 1_938_475_151), (4, 2_526_635_023)])
def test_exact_accesses_sum_to_a_counted_mobivsr_pass(alpha, accesses, dtype):
    """Summed over a MobiVSR-α graph, the exact closed form equals the counted
    pass's ledger, where the memory-access column over-counts the strided
    nodes' reads."""
    graph, bundle, x = _counted_mobivsr(alpha, dtype)
    _, shapes = shape_infer(graph, graph.input_shape)
    total = sum(exact_accesses_of(spec, shapes[node_id][0]) for node_id, spec in graph.nodes)
    assert total == accesses
    assert run_graph(graph, bundle, x, counted=True).ledger.memory_accesses() == accesses
    assert aggregate(graph).totals.memory_accesses > accesses
