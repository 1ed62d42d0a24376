"""Latency models for DFG nodes.

The paper abstracts latency as: numeric operations have known latencies;
a memory access costs 1 when the element sits in a register and ``L`` when
it sits in a RAM block.  Two standard instantiations are provided:

* :meth:`LatencyModel.tmem` — the Figure 2(c) counting model: operations
  are free, register accesses are free, RAM accesses cost one cycle.  The
  resulting makespans count exactly "cycles devoted to memory operations".
* :meth:`LatencyModel.realistic` — operation latencies from the operator
  library (:mod:`repro.hw.ops`), used for Table 1's full cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.dfg.nodes import DFGNode, OpNode, ReadNode, WriteNode
from repro.errors import AnalysisError
from repro.hw.ops import default_op_latencies
from repro.ir.expr import Op

__all__ = ["LatencyModel"]


@dataclass(frozen=True)
class LatencyModel:
    """Cycle costs for DFG nodes.

    Attributes
    ----------
    op_latency:
        Cycles per operator.
    ram_latency:
        Cycles for a memory access that reaches a RAM block (paper's L).
    reg_latency:
        Cycles for a register-resident access (paper's 1-vs-L becomes
        0-vs-L here: register operands are wired into the datapath).
    key:
        Hashable identity of the full parameterization (``op_latency``
        is a mapping, so the model itself is unhashable), computed once:
        equal models built separately share every memo keyed on it.
    """

    op_latency: Mapping[Op, int]
    ram_latency: int = 1
    reg_latency: int = 0
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ram_latency < 1:
            raise AnalysisError("RAM latency must be >= 1")
        if self.reg_latency < 0:
            raise AnalysisError("register latency must be >= 0")
        if self.reg_latency > self.ram_latency:
            raise AnalysisError("register access cannot be slower than RAM")
        ops = tuple(
            sorted((op.value, lat) for op, lat in self.op_latency.items())
        )
        object.__setattr__(
            self, "key", (self.ram_latency, self.reg_latency, ops)
        )

    @staticmethod
    def tmem(ram_latency: int = 1) -> "LatencyModel":
        """Memory-only counting (Figure 2(c) units)."""
        return LatencyModel(
            op_latency={op: 0 for op in Op},
            ram_latency=ram_latency,
            reg_latency=0,
        )

    @staticmethod
    def realistic(ram_latency: int = 1) -> "LatencyModel":
        """Operator-library latencies plus single-cycle RAM access."""
        return LatencyModel(
            op_latency=default_op_latencies(),
            ram_latency=ram_latency,
            reg_latency=0,
        )

    def node_latency(self, node: DFGNode, hit: bool) -> int:
        """Latency of ``node``; ``hit`` says whether a memory node's access
        is register-resident under the current allocation."""
        if isinstance(node, (ReadNode, WriteNode)):
            return self.reg_latency if hit else self.ram_latency
        if isinstance(node, OpNode):
            try:
                return self.op_latency[node.op]
            except KeyError:
                raise AnalysisError(f"no latency for operator {node.op}")
        raise AnalysisError(f"unknown node type {type(node).__name__}")
