"""Critical-path and Critical-Graph extraction.

Definitions follow the paper's section 3 exactly:

* the latency of a path is the sum of its node latencies,
* ``T_exec`` of a DFG is the maximum path latency,
* the **Critical Graph** (CG) is the subgraph containing *all* critical
  paths — improving only a subset of critical paths cannot reduce
  ``T_exec``, which is why CPA-RA allocates to cuts of the CG rather than
  to single paths.

Latencies of memory nodes depend on the current allocation through the
``hits`` map (group name -> register-resident?), so the CG is recomputed
by CPA-RA after every allocation round, shrinking as references move into
registers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfg.graph import DataFlowGraph
from repro.dfg.latency import LatencyModel
from repro.dfg.nodes import DFGNode, OpNode, ReadNode, WriteNode
from repro.errors import AnalysisError

__all__ = ["CriticalGraph", "critical_graph", "path_latency"]


def _node_hit(node: DFGNode, hits: "dict[str, bool]") -> bool:
    if isinstance(node, (ReadNode, WriteNode)):
        return hits.get(node.group_name, False)
    return False


def path_latency(
    dfg: DataFlowGraph,
    path: "list[DFGNode]",
    model: LatencyModel,
    hits: "dict[str, bool] | None" = None,
) -> int:
    """Latency of an explicit node path under ``model`` and ``hits``."""
    hits = hits or {}
    return sum(model.node_latency(n, _node_hit(n, hits)) for n in path)


@dataclass(frozen=True)
class CriticalGraph:
    """The CG plus the quantities CPA-RA consumes.

    Attributes
    ----------
    makespan:
        Maximum path latency of the underlying DFG (``T_exec``).
    nodes:
        Nodes lying on at least one critical path.
    paths:
        Every critical path as a node tuple (source to sink).
    """

    makespan: int
    nodes: tuple[DFGNode, ...]
    paths: tuple[tuple[DFGNode, ...], ...]

    def groups_on_paths(self) -> list[frozenset[str]]:
        """Per critical path, the set of reference-group names on it."""
        out: list[frozenset[str]] = []
        for path in self.paths:
            out.append(
                frozenset(
                    n.group_name
                    for n in path
                    if isinstance(n, (ReadNode, WriteNode))
                )
            )
        return out


# A DFG is one loop body: tens of nodes.  Path enumeration is exponential in
# principle (the paper notes the same), so cap it defensively.
_MAX_PATHS = 4096


def critical_graph(
    dfg: DataFlowGraph,
    model: LatencyModel,
    hits: "dict[str, bool] | None" = None,
) -> CriticalGraph:
    """Extract the Critical Graph of ``dfg`` under the latency model.

    ``hits`` marks groups whose accesses are register-resident under the
    allocation being evaluated (missing groups default to RAM residency).
    """
    hits = hits or {}
    order = dfg.topological()
    latency = {n.uid: model.node_latency(n, _node_hit(n, hits)) for n in order}

    # Longest distance ending at node (inclusive) and starting at node.
    dist_to: dict[str, int] = {}
    for node in order:
        preds = dfg.predecessors(node)
        best = max((dist_to[p.uid] for p in preds), default=0)
        dist_to[node.uid] = best + latency[node.uid]
    dist_from: dict[str, int] = {}
    for node in reversed(order):
        succs = dfg.successors(node)
        best = max((dist_from[s.uid] for s in succs), default=0)
        dist_from[node.uid] = best + latency[node.uid]

    makespan = max((dist_to[n.uid] for n in order), default=0)
    critical_nodes = [
        n
        for n in order
        if dist_to[n.uid] + dist_from[n.uid] - latency[n.uid] == makespan
    ]
    critical_set = {n.uid for n in critical_nodes}

    # Enumerate critical paths via DFS along critical edges.
    paths: list[tuple[DFGNode, ...]] = []
    starts = [
        n for n in critical_nodes if dist_to[n.uid] == latency[n.uid]
    ]

    def extend(node: DFGNode, acc: list[DFGNode]) -> None:
        if len(paths) >= _MAX_PATHS:
            return
        acc.append(node)
        nexts = [
            s
            for s in dfg.successors(node)
            if s.uid in critical_set
            and dist_to[s.uid] == dist_to[node.uid] + latency[s.uid]
        ]
        if not nexts and dist_from[node.uid] == latency[node.uid]:
            paths.append(tuple(acc))
        for nxt in nexts:
            extend(nxt, acc)
        acc.pop()

    for start in starts:
        extend(start, [])
    if not paths:
        raise AnalysisError("critical graph extraction found no path")
    return CriticalGraph(
        makespan=makespan,
        nodes=tuple(critical_nodes),
        paths=tuple(paths),
    )
