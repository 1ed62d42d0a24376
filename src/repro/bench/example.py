"""The paper's running example (Figures 1 and 2) as a reusable harness.

Reconstructed bounds (the paper does not print them): ``Ni=4, Nj=20, Nk=30``
and a 64-register budget — the unique small solution consistent with all
the worked numbers the paper states (``beta_a=30, beta_c=20, beta_d=30``,
FR-RA's leftover of 11 registers, PR-RA's ``beta_d=12``, CPA-RA's
``{d}`` then ``{a,b}`` cut sequence ending at 16/16).

``Tmem`` is reported per outer-loop iteration, the unit Figure 2(c) uses
(its arithmetic — e.g. 1800 = 3 accesses x 20 x 30 — spans one ``i``
iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.groups import build_groups
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.prra import PartialReuseAllocator
from repro.dfg.critical import critical_graph
from repro.dfg.cuts import enumerate_cuts
from repro.dfg.latency import LatencyModel
from repro.explore.context import EvalContext
from repro.ir import INT16, Kernel, KernelBuilder
from repro.sim.cycles import count_cycles
from repro.synth.estimate import Objective

__all__ = [
    "build_example_kernel",
    "figure2_report",
    "Figure2Row",
    "Figure2Report",
    "PAPER_TMEM",
]

#: Figure 2(c)'s reported memory-cycle counts, per outer iteration.
PAPER_TMEM = {"FR-RA": 1800, "PR-RA": 1560, "CPA-RA": 1184}


def build_example_kernel(ni: int = 4, nj: int = 20, nk: int = 30) -> Kernel:
    """The Figure 1 code: two statements in a 3-deep nest."""
    builder = KernelBuilder(
        "example", "paper Figure 1: d[i][k]=a[k]*b[k][j]; e[i][j][k]=c[j]*d[i][k]"
    )
    i = builder.loop("i", ni)
    j = builder.loop("j", nj)
    k = builder.loop("k", nk)
    a = builder.array("a", (nk,), INT16)
    b = builder.array("b", (nk, nj), INT16)
    c = builder.array("c", (nj,), INT16)
    d = builder.array("d", (ni, nk), INT16, role="temp")
    e = builder.array("e", (ni, nj, nk), INT16, role="output")
    builder.assign(d[i, k], a[k] * b[k, j])
    builder.assign(e[i, j, k], c[j] * d[i, k])
    return builder.build()


@dataclass(frozen=True)
class Figure2Row:
    """One algorithm's outcome on the running example."""

    algorithm: str
    distribution: str
    total_registers: int
    tmem_per_outer: float
    tmem_total: int
    paper_tmem: int

    @property
    def deviation_pct(self) -> float:
        return 100.0 * (self.tmem_per_outer - self.paper_tmem) / self.paper_tmem


@dataclass(frozen=True)
class Figure2Report:
    """Everything Figure 2 shows: DFG/CG structure, cuts, and Tmem rows."""

    kernel: Kernel
    cg_nodes: tuple[str, ...]
    structural_cuts: tuple[str, ...]
    rows: tuple[Figure2Row, ...]


def figure2_report(budget: int = 64) -> Figure2Report:
    """Regenerate Figure 2: the CG, its cuts, and the three Tmem numbers."""
    kernel = build_example_kernel()
    groups = build_groups(kernel)
    # The three allocators are one sweep's allocator axis: one context
    # serves them all.
    context = EvalContext()
    dfg = context.dfg(kernel, groups)

    cg = critical_graph(dfg, LatencyModel.tmem())
    structural = enumerate_cuts(cg, removable=lambda _: True)

    # Figure 2(c) units: memory-only latencies, one RAM port, no
    # per-iteration control overhead.
    tmem = Objective(LatencyModel.tmem(), ram_ports=1, overhead_per_iteration=0)
    ni = kernel.nest.loops[0].trip_count
    rows = []
    for allocator in (
        FullReuseAllocator(),
        PartialReuseAllocator(),
        CriticalPathAwareAllocator(),
    ):
        allocation = allocator.allocate(kernel, budget, groups, context=context)
        report = count_cycles(kernel, groups, allocation, tmem, context=context)
        rows.append(
            Figure2Row(
                algorithm=allocation.algorithm,
                distribution=allocation.distribution(),
                total_registers=allocation.total_registers,
                tmem_per_outer=report.in_loop_cycles / ni,
                tmem_total=report.total_cycles,
                paper_tmem=PAPER_TMEM[allocation.algorithm],
            )
        )
    return Figure2Report(
        kernel=kernel,
        cg_nodes=tuple(sorted(str(n) for n in cg.nodes)),
        structural_cuts=tuple(str(c) for c in structural),
        rows=tuple(rows),
    )
