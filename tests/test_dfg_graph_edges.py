"""Edge-case tests for the DFG container and path helpers."""

import pytest

from repro.analysis import build_groups
from repro.dfg import (
    DataFlowGraph,
    LatencyModel,
    OpNode,
    build_dfg,
    critical_graph,
    path_latency,
)
from repro.errors import AnalysisError
from repro.ir import Op


class TestGraphContainer:
    def test_duplicate_uid_rejected(self):
        dfg = DataFlowGraph()
        node = OpNode(uid="x", op=Op.ADD, stmt_index=0, bits=8)
        dfg.add_node(node)
        with pytest.raises(AnalysisError):
            dfg.add_node(OpNode(uid="x", op=Op.SUB, stmt_index=0, bits=8))

    def test_edge_requires_existing_nodes(self):
        dfg = DataFlowGraph()
        a = OpNode(uid="a", op=Op.ADD, stmt_index=0, bits=8)
        b = OpNode(uid="b", op=Op.ADD, stmt_index=0, bits=8)
        dfg.add_node(a)
        with pytest.raises(AnalysisError):
            dfg.add_edge(a, b)

    def test_duplicate_edges_collapse(self):
        dfg = DataFlowGraph()
        a = dfg.add_node(OpNode(uid="a", op=Op.ADD, stmt_index=0, bits=8))
        b = dfg.add_node(OpNode(uid="b", op=Op.ADD, stmt_index=0, bits=8))
        dfg.add_edge(a, b)
        dfg.add_edge(a, b)
        assert dfg.successors(a) == [b]

    def test_unknown_uid(self):
        dfg = DataFlowGraph()
        with pytest.raises(AnalysisError):
            dfg.node("ghost")


class TestPathLatency:
    def test_path_latency_matches_manual_sum(self, example_kernel):
        groups = build_groups(example_kernel)
        dfg = build_dfg(example_kernel, groups)
        model = LatencyModel.realistic()
        cg = critical_graph(dfg, model)
        for path in cg.paths:
            assert path_latency(dfg, list(path), model) == cg.makespan

    def test_hits_shorten_paths(self, example_kernel):
        groups = build_groups(example_kernel)
        dfg = build_dfg(example_kernel, groups)
        model = LatencyModel.realistic()
        cg = critical_graph(dfg, model)
        path = list(cg.paths[0])
        full = path_latency(dfg, path, model)
        with_hits = path_latency(
            dfg, path, model, hits={"d[i][k]": True, "a[k]": True}
        )
        assert with_hits < full
