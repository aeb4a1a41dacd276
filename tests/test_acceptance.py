"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line and enforces its runtime budget; run
``pytest tests/test_acceptance.py -v -s`` to see the checklist live.
"""

import contextlib
import time

import numpy as np
import pytest

import mobivsr as m

PUBLISHED_SIZES_MB = {1: 17.8, 2: 20.8, 3: 23.6, 4: 26.5, 10: 43.9, 11: 46.8}


@contextlib.contextmanager
def criterion(number, description, budget_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number} ({description}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} overran its {budget_s}s budget"


def test_criterion_1_formula_goldens():
    with criterion(1, "single-layer formula goldens", budget_s=1):
        spec = m.LayerSpec("conv2d", in_channels=3, out_channels=64, kernel_size=3)
        assert m.flops_of(spec, (3, 100, 100)) == 34_560_000
        assert m.mem_access_of(spec, (3, 100, 100)) == 17_921_728


def _parity_configs(count):
    rng = np.random.default_rng(2024)
    kinds = ["conv2d", "conv3d", "ds_conv2d", "ds_conv3d", "fc"]
    configs = []
    while len(configs) < count:
        kind = kinds[len(configs) % len(kinds)]
        ci, co = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if kind == "fc":
            spec = m.LayerSpec("fc", in_features=int(rng.integers(1, 49)),
                               out_features=int(rng.integers(1, 49)))
            configs.append((spec, (spec.in_features,)))
            continue
        k = int(rng.integers(1, 4))
        side = int(rng.integers(max(k, 2), 9))
        if kind == "conv2d":
            configs.append((m.LayerSpec(kind, in_channels=ci, out_channels=co,
                                        kernel_size=k), (ci, side, side)))
        else:
            t = int(rng.integers(1, 4))
            frames = int(rng.integers(t, 5))
            mode = "partial" if kind == "ds_conv3d" else None
            configs.append((m.LayerSpec(kind, in_channels=ci, out_channels=co,
                                        kernel_size=k, temporal_size=t,
                                        pointwise_mode=mode), (ci, frames, side, side)))
    return configs


def test_criterion_2_oracle_parity_on_200_configs():
    with criterion(2, "counted execution equals analytical model on 200+ configs", budget_s=30):
        rng = np.random.default_rng(7)
        configs = _parity_configs(205)
        assert len(configs) >= 200
        for spec, in_shape in configs:
            weights = m.init_weights(m.LayerGraph(nodes=[("l", spec)]), seed=11).get("l")
            x = m.Tensor.from_array(rng.normal(size=in_shape).astype(np.float32))
            _, ledger = m.counted_forward(spec, x, weights)
            assert ledger.flops() == m.flops_of(spec, in_shape), spec
            assert ledger.memory_accesses() == m.mem_access_of(spec, in_shape), spec


def test_criterion_3_separable_equivalence_on_50_configs():
    import _reference as ref

    with criterion(3, "separable conv equals explicit composition on 50 configs", budget_s=10):
        rng = np.random.default_rng(99)
        for index in range(50):
            ci = int(rng.integers(1, 5))
            co = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            side = int(rng.integers(max(k, 2), 9))
            if index % 2 == 0:
                x = rng.normal(size=(ci, side, side))
                dw = rng.normal(size=(ci, k, k))
                pw = rng.normal(size=(co, ci, 1, 1))
                spec = m.LayerSpec("ds_conv2d", in_channels=ci, out_channels=co, kernel_size=k)
                expected = ref.ds_conv2d_composition(x, dw, pw)
            else:
                t = int(rng.integers(1, 4))
                frames = int(rng.integers(t, 5))
                x = rng.normal(size=(ci, frames, side, side))
                dw = rng.normal(size=(ci, t, k, k))
                pw = rng.normal(size=(co, ci, t, 1, 1))
                spec = m.LayerSpec("ds_conv3d", in_channels=ci, out_channels=co, kernel_size=k,
                                   temporal_size=t)
                expected = ref.ds_conv3d_composition(x, dw, pw)
            out, _ = m.counted_forward(spec, x, {"depthwise": dw, "pointwise": pw})
            got = out.as_array()
            assert np.abs(got - expected).max() <= 1e-5


def test_criterion_4_energy_and_co2_reproduction():
    with criterion(4, "published energy/CO2 rows within 1% (LRW baseline excluded)", budget_s=1):
        rows = {p.name: p for p in m.published_models()}
        expected_mj = {
            "MobiVSR-1": 25.37, "MobiVSR-2": 46.30, "MobiVSR-3": 67.92,
            "MobiVSR-4": 92.31, "MobiVSR-10": 212.62, "MobiVSR-11": 229.64,
            "LSTM + ResNet (SOTA)": 667.11,
        }
        for name, energy_mj in expected_mj.items():
            report = m.impact_report(rows[name])
            assert report.energy_mj == pytest.approx(energy_mj, rel=0.01), name
            published_co2 = m.PUBLISHED_IMPACT[name][1]
            assert report.co2_mg == pytest.approx(published_co2, rel=0.01), name


def test_criterion_5_architecture_calibration():
    with criterion(5, "parameter count, per-alpha increment, and size tracking", budget_s=5):
        params = {a: m.aggregate(m.build_mobivsr(a)).totals.params for a in (1, 2, 3, 4)}
        assert params[1] == pytest.approx(4.5e6, rel=0.15)
        increments = [params[a + 1] - params[a] for a in (1, 2, 3)]
        for inc in increments:
            assert inc == pytest.approx(0.7e6, rel=0.15)
        assert max(increments) / min(increments) <= 1.02
        for alpha, size_mb in PUBLISHED_SIZES_MB.items():
            report = m.aggregate(m.build_mobivsr(alpha))
            assert report.size_bytes / 1e6 == pytest.approx(size_mb, rel=0.15), alpha


def test_criterion_6_forward_pass_contract():
    with criterion(6, "forward pass yields a 500-way distribution; counting is inert", budget_s=60):
        graph = m.build_mobivsr(1)
        weights = m.init_weights(graph, seed=42)
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 256, size=(29, 256, 256, 3)).astype(np.uint8)
        clip = m.preprocess_clip(raw)
        plain = m.run_graph(graph, weights, clip.as_input())
        probs = plain.output.as_array()
        assert probs.shape == (500,)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) <= 1e-6
        counted = m.run_graph(graph, weights, clip.as_input(), counted=True)
        assert counted.output.as_array().tobytes() == probs.tobytes()
        assert counted.ledger.flops() > 0


def test_criterion_7_quantization():
    with criterion(7, "int8 weights file at most 6 MB; rounding error bounded", budget_s=10):
        graph = m.build_mobivsr(1)
        weights = m.init_weights(graph, seed=0)
        blob = m.serialize_weights(m.quantize_weights(weights), graph)
        assert len(blob) <= 6_000_000
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.uniform(-2, 2, size=1024).astype(np.float32)
            q = m.quantize_tensor(m.Tensor.from_array(w))
            assert np.abs(q.as_array() - w).max() <= q.quant.scale / 2 + 1e-6


def test_criterion_8_efficiency_ratios():
    with criterion(8, "published efficiency ratios within 0.02", budget_s=1):
        rows = {p.name: p for p in m.published_models()}
        sota = m.efficiency_ratios(rows["LSTM + ResNet (SOTA)"], 83.0)
        small = m.efficiency_ratios(rows["MobiVSR-1"], 72.2)
        assert small.acc_per_mb == pytest.approx(4.06, abs=0.02)
        assert sota.acc_per_mb == pytest.approx(0.64, abs=0.02)
        assert sota.acc_per_gflop == pytest.approx(0.29, abs=0.02)
        assert small.acc_per_gflop == pytest.approx(6.56, abs=0.02)
        assert sota.acc_per_mparam == pytest.approx(3.31, abs=0.02)
        assert small.acc_per_mparam == pytest.approx(16.04, abs=0.02)
        assert sota.acc_per_kaccess == pytest.approx(1.47, abs=0.02)
        assert small.acc_per_kaccess == pytest.approx(2.04, abs=0.02)


def test_criterion_9_round_trips_and_schema_errors(tmp_path):
    with criterion(9, "lossless round trips; malformed inputs fail with positioned errors", budget_s=30):
        graph = m.build_mobivsr(1)
        assert m.parse_graph(m.serialize_graph(graph)) == graph
        weights = m.init_weights(graph, seed=1)
        blob = m.serialize_weights(weights, graph)
        assert m.parse_weights(blob, graph) == weights

        with pytest.raises(m.SchemaError):
            m.parse_graph('{"schema_version": 99, "nodes": []}')
        with pytest.raises(m.SchemaError) as exc:
            m.parse_graph('{"schema_version": 1, '
                          '"nodes": [{"id": "n0", "kind": "mystery"}]}')
        assert exc.value.node_id == "n0"
        with pytest.raises(m.PayloadBoundsError):
            m.parse_weights(blob[:-100])

        from mobivsr.cli import main
        graph_file = tmp_path / "g.json"
        graph_file.write_text('{"schema_version": 99}')
        assert main(["report", str(graph_file)]) == 2
        assert main(["report", str(tmp_path / "absent.json")]) == 3
        assert main(["build", "--alpha", "0", "--out", str(tmp_path / "x.json")]) == 1
