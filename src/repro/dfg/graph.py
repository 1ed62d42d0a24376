"""A small DAG container specialized for loop-body data-flow graphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.dfg.nodes import DFGNode, OpNode, ReadNode, WriteNode
from repro.errors import AnalysisError

__all__ = ["DataFlowGraph"]


@dataclass
class DataFlowGraph:
    """Nodes plus directed value-flow edges; guaranteed acyclic by builder."""

    nodes: list[DFGNode] = field(default_factory=list)
    _succ: dict[str, list[str]] = field(default_factory=dict)
    _pred: dict[str, list[str]] = field(default_factory=dict)
    _by_uid: dict[str, DFGNode] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    def add_node(self, node: DFGNode) -> DFGNode:
        if node.uid in self._by_uid:
            raise AnalysisError(f"duplicate DFG node uid {node.uid!r}")
        self.nodes.append(node)
        self._by_uid[node.uid] = node
        self._succ[node.uid] = []
        self._pred[node.uid] = []
        return node

    def add_edge(self, src: DFGNode, dst: DFGNode) -> None:
        if src.uid not in self._by_uid or dst.uid not in self._by_uid:
            raise AnalysisError("edge endpoints must be added first")
        if dst.uid not in self._succ[src.uid]:
            self._succ[src.uid].append(dst.uid)
            self._pred[dst.uid].append(src.uid)

    # -- queries ---------------------------------------------------------------

    def node(self, uid: str) -> DFGNode:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise AnalysisError(f"no DFG node {uid!r}")

    def successors(self, node: DFGNode) -> list[DFGNode]:
        return [self._by_uid[u] for u in self._succ[node.uid]]

    def predecessors(self, node: DFGNode) -> list[DFGNode]:
        return [self._by_uid[u] for u in self._pred[node.uid]]

    def sources(self) -> list[DFGNode]:
        return [n for n in self.nodes if not self._pred[n.uid]]

    def reads(self) -> list[ReadNode]:
        return [n for n in self.nodes if isinstance(n, ReadNode)]

    def writes(self) -> list[WriteNode]:
        return [n for n in self.nodes if isinstance(n, WriteNode)]

    def ops(self) -> list[OpNode]:
        return [n for n in self.nodes if isinstance(n, OpNode)]

    def memory_nodes(self) -> list[DFGNode]:
        return [n for n in self.nodes if n.is_memory]

    def topological(self) -> list[DFGNode]:
        """Nodes in a topological order (insertion-order stable)."""
        indegree = {uid: len(p) for uid, p in self._pred.items()}
        ready = [n for n in self.nodes if indegree[n.uid] == 0]
        order: list[DFGNode] = []
        queue = list(ready)
        while queue:
            node = queue.pop(0)
            order.append(node)
            for succ_uid in self._succ[node.uid]:
                indegree[succ_uid] -= 1
                if indegree[succ_uid] == 0:
                    queue.append(self._by_uid[succ_uid])
        if len(order) != len(self.nodes):
            raise AnalysisError("DFG contains a cycle")
        return order

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self.nodes)
