"""The analytical route, pinned byte for byte.

``route_digests.json`` holds sha256 digests of ``serialize_graph`` text and
of ``repr((per_layer, totals, size_bytes))`` for fp32 and int8, for every
candidate channel plan at alpha 1..11. They were recorded before
``build_mobivsr`` shared one keep block per subgraph, ``aggregate`` summed
its columns once and ``LayerSpec.to_dict`` read a precomputed field table,
so a faster route must reproduce the older one exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mobivsr import CHANNEL_PLAN_CANDIDATES, aggregate, build_mobivsr, serialize_graph

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
    for dtype in ("fp32", "int8"):
        report = aggregate(graph, dtype=dtype)
        assert sha256(repr((report.per_layer, report.totals, report.size_bytes))) == \
            recorded[dtype], dtype
