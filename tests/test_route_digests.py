"""The analytical route, pinned byte for byte.

``route_digests.json`` holds sha256 digests of ``serialize_graph`` text and
of ``repr((per_layer, totals, size_bytes))`` for fp32 and int8, for every
candidate channel plan at alpha 1..11. They were recorded before
``build_mobivsr`` shared one keep block per subgraph, ``aggregate`` summed
its columns once and ``LayerSpec.to_dict`` read a precomputed field table,
so a faster route must reproduce the older one exactly. The graph a file
reparses to, whose equal node entries share one LayerSpec, costs to the
same digests; so does a graph whose equal specs are all distinct objects,
which pins the per-call sharing in ``shape_infer`` and ``aggregate``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from mobivsr import (
    CHANNEL_PLAN_CANDIDATES,
    LayerGraph,
    aggregate,
    build_mobivsr,
    parse_graph,
    serialize_graph,
    shape_infer,
)

DIGESTS = json.loads((Path(__file__).parent / "route_digests.json").read_text())
ALPHAS = range(1, 12)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_digests_cover_every_candidate_plan_and_alpha():
    assert sorted(DIGESTS) == sorted(plan.name for plan in CHANNEL_PLAN_CANDIDATES)
    assert all(len(rows) == len(ALPHAS) for rows in DIGESTS.values())


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("plan", CHANNEL_PLAN_CANDIDATES, ids=lambda plan: plan.name)
def test_route_is_byte_identical_to_recorded_digests(plan, alpha):
    recorded = DIGESTS[plan.name][alpha - 1]
    graph = build_mobivsr(alpha, plan)
    assert sha256(serialize_graph(graph)) == recorded["graph"]
    assert_costs_match(graph, recorded)


def assert_costs_match(graph, recorded):
    for dtype in ("fp32", "int8"):
        report = aggregate(graph, dtype=dtype)
        assert sha256(repr((report.per_layer, report.totals, report.size_bytes))) == \
            recorded[dtype], dtype


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("plan", CHANNEL_PLAN_CANDIDATES, ids=lambda plan: plan.name)
def test_a_reparsed_graph_costs_to_the_recorded_digests(plan, alpha):
    reparsed = parse_graph(serialize_graph(build_mobivsr(alpha, plan)))
    assert_costs_match(reparsed, DIGESTS[plan.name][alpha - 1])


def test_a_reparsed_mobivsr_4_holds_one_spec_per_distinct_node_entry():
    text = serialize_graph(build_mobivsr(4))
    entries = [{k: v for k, v in node.items() if k != "id"} for node in json.loads(text)["nodes"]]
    reparsed = parse_graph(text)
    spec_of_entry = {}
    for entry, (_, spec) in zip(entries, reparsed.nodes):
        assert spec_of_entry.setdefault(json.dumps(entry), spec) is spec
    assert len(spec_of_entry) == len({id(spec) for _, spec in reparsed.nodes}) == 24


def test_a_mobivsr_4_of_distinct_spec_objects_costs_the_same():
    graph = build_mobivsr(4)
    assert len({id(spec) for _, spec in graph.nodes}) < len(graph.nodes)
    distinct = LayerGraph(nodes=[(node_id, dataclasses.replace(spec))
                                 for node_id, spec in graph.nodes],
                          residual_edges=graph.residual_edges,
                          channel_plan=graph.channel_plan, input_shape=graph.input_shape)
    assert len({id(spec) for _, spec in distinct.nodes}) == len(graph.nodes)
    assert shape_infer(distinct, distinct.input_shape) == shape_infer(graph, graph.input_shape)
    assert_costs_match(distinct, DIGESTS["base"][3])
