"""End-to-end design-point evaluation.

:func:`build_design` is the "synthesis + P&R + simulation" stand-in: it
takes a kernel and an allocation and produces the fully populated
:class:`~repro.synth.design.HardwareDesign` that one Table 1 row reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.groups import RefGroup, build_groups
from repro.core.allocation import Allocation
from repro.dfg.latency import LatencyModel
from repro.dfg.nodes import OpNode, ReadNode
from repro.hw.binding import bind_arrays
from repro.hw.device import Device, XCV1000
from repro.ir.kernel import Kernel
from repro.scalar.coverage import GroupCoverage, trace_engine_seconds
from repro.sim.cycles import best_anchors, count_cycles, report_key
from repro.synth.area import estimate_area
from repro.synth.design import HardwareDesign
from repro.synth.timing import estimate_clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.context import EvalContext

__all__ = [
    "Objective",
    "build_design",
    "charge_stage",
    "classify_operand_storage",
    "count_with_best_anchors",
    "fold_trace_stage",
]


@dataclass(frozen=True)
class Objective:
    """The cycle objective of one evaluation, resolved against its device.

    One instance is what the allocator optimizes (the exact allocator
    reads it off :class:`~repro.core.base.AllocationState`) and what
    :func:`build_design` reports, so the two cannot disagree.
    """

    model: LatencyModel
    ram_ports: int
    overhead_per_iteration: int = 1

    @classmethod
    def resolve(
        cls,
        device: Device = XCV1000,
        model: "LatencyModel | None" = None,
        ram_ports: "int | None" = None,
        overhead_per_iteration: int = 1,
    ) -> "Objective":
        """Fill the pipeline defaults in: realistic two-cycle RAM and
        the device's RAM ports."""
        return cls(
            model=model or LatencyModel.realistic(ram_latency=2),
            ram_ports=ram_ports if ram_ports is not None else device.bram_ports,
            overhead_per_iteration=overhead_per_iteration,
        )


def charge_stage(
    stages: "dict[str, float] | None", name: str, since: float
) -> float:
    """Charge the time since ``since`` to ``stages[name]``; return now.

    The one accumulator behind the ``--profile`` breakdown; both this
    module and :mod:`repro.explore.evaluate` charge their stages through
    it so the per-stage numbers merged into
    :attr:`~repro.explore.executor.ExploreStats.stage_seconds` cannot
    drift apart in methodology.
    """
    now = time.perf_counter()
    if stages is not None:
        stages[name] = stages.get(name, 0.0) + (now - since)
    return now


def fold_trace_stage(
    stages: "dict[str, float] | None", trace_before: float
) -> None:
    """Split trace-engine seconds since ``trace_before`` into ``"trace"``.

    The trace clock (:func:`~repro.scalar.coverage.trace_engine_seconds`)
    ticks *inside* wall intervals other stages already charged — window
    Belady traces run under the ``cycles`` charge, region ranking can
    run under ``alloc`` when an allocator queries coverage.  This fold
    moves that share into a distinct ``trace`` stage, deducting from
    the stages that absorbed it (``cycles`` first, where residency
    simulation normally lands) and clamping at zero so a partially
    charged breakdown — e.g. after an exception mid-stage — can never
    go negative.  It runs in the evaluator's ``finally`` so failed and
    crashed records keep their trace attribution too, and it runs in
    the *worker* process, which is what makes ``--profile`` totals
    invariant under ``--jobs``.
    """
    if stages is None:
        return
    spent = trace_engine_seconds() - trace_before
    if spent <= 0.0:
        return
    stages["trace"] = stages.get("trace", 0.0) + spent
    for name in ("cycles", "alloc", "dfg_schedule", "kernel", "other"):
        if spent <= 0.0:
            break
        have = stages.get(name)
        if not have or have <= 0.0:
            continue
        take = min(have, spent)
        stages[name] = have - take
        spent -= take


def classify_operand_storage(
    group: RefGroup, coverage: GroupCoverage, registers: int
) -> str:
    """Steady-state storage class of a read operand: 'reg', 'ram' or 'both'.

    'both' marks partial coverage — some iterations find the element in a
    register, others fetch it from RAM — which requires steering logic in
    front of the consuming operator (the clock-period mechanism the paper
    observes on Dec-FIR/PAT v2).
    """
    covered = coverage.covered(registers)
    if not group.carries_reuse or covered == 0:
        return "ram"
    if covered >= group.full_registers:
        return "reg"
    return "both"


def build_design(
    kernel: Kernel,
    allocation: Allocation,
    groups: "tuple[RefGroup, ...] | None" = None,
    device: Device = XCV1000,
    objective: "Objective | None" = None,
    coverages: "dict[str, GroupCoverage] | None" = None,
    context: "EvalContext | None" = None,
    stages: "dict[str, float] | None" = None,
) -> HardwareDesign:
    """Evaluate one (kernel, allocation) design point.

    The default ``objective`` (:meth:`Objective.resolve` on ``device``)
    mirrors the experimental setup of the paper: XCV1000 target,
    single-ported RAM blocks with a two-cycle access (address + data cycle
    of a synchronous BlockRAM driven by a Monet-style FSM), realistic
    operator latencies, one FSM cycle of control overhead per iteration.
    Figure 2(c) (:func:`repro.bench.example.figure2_report`) prices with
    :meth:`LatencyModel.tmem` and zero overhead instead.

    ``context`` (an :class:`~repro.explore.context.EvalContext`; a fresh
    one when omitted) supplies the DFG, the coverage computers and the
    per-pattern cost tables inside the cycle counter; ``coverages``
    overrides the context's computers (the fuzz oracle passes reference
    coverage).  Neither changes results.
    ``stages`` optionally accumulates the ``--profile`` wall-time
    breakdown; the evaluator (:func:`repro.explore.evaluate.design_for`)
    splits the residency share out into a distinct ``trace`` stage via
    :func:`fold_trace_stage`.
    """
    started = time.perf_counter()
    if context is None:
        from repro.explore.context import EvalContext

        context = EvalContext()
    groups = groups if groups is not None else build_groups(kernel)
    if objective is None:
        objective = Objective.resolve(device)
    dfg = context.dfg(kernel, groups)
    if coverages is None:
        coverages = context.coverages(kernel, groups)
    storage_class = {
        g.name: classify_operand_storage(
            g, coverages[g.name], allocation.registers_for(g.name)
        )
        for g in groups
    }
    partial_groups = sum(1 for cls in storage_class.values() if cls == "both")
    mixed_ops = _count_mixed_operand_ops(dfg, storage_class)
    mark = charge_stage(stages, "dfg_schedule", started)

    cycles = count_with_best_anchors(
        kernel,
        groups,
        allocation,
        objective.model,
        objective.ram_ports,
        objective.overhead_per_iteration,
        dfg,
        coverages,
        storage_class,
        context,
    )
    mark = charge_stage(stages, "cycles", mark)

    timing = estimate_clock(
        dfg,
        device,
        total_registers=allocation.total_registers,
        partial_groups=partial_groups,
        mixed_operand_ops=mixed_ops,
    )
    register_bits = {
        g.name: (allocation.registers_for(g.name), g.ref.array.dtype.bits)
        for g in groups
    }
    area = estimate_area(kernel, dfg, register_bits, partial_groups)

    ram_resident = _ram_resident_arrays(kernel, groups, storage_class)
    binding = bind_arrays(kernel, ram_resident, device)
    charge_stage(stages, "other", mark)

    return HardwareDesign(
        kernel_name=kernel.name,
        allocation=allocation,
        cycles=cycles,
        timing=timing,
        area=area,
        binding=binding,
        device_name=device.name,
    )


def count_with_best_anchors(
    kernel,
    groups,
    allocation,
    model,
    ram_ports,
    overhead_per_iteration,
    dfg,
    coverages,
    storage_class,
    context=None,
):
    """Coverage-placement pass: choose pinned anchors minimizing cycles.

    Which footprint elements a partial pinned coverage keeps is a code-
    generation freedom; aligning pinned hits with window hits lets both
    inputs of an operation come from registers in the same iterations.
    The search space is tiny (one binary choice per partially covered
    pinned group), so it is explored exhaustively by
    :func:`~repro.sim.cycles.best_anchors` on a shared base pattern,
    which also returns the winner's report from the classification it
    already made.

    This is the single authoritative objective evaluation of a design
    point — :func:`build_design` reports it, and the exact allocator
    (:mod:`repro.core.optra`) optimizes it directly, so the oracle's
    optimum and the pipeline's reported metric cannot drift apart.
    ``context`` defaults to a fresh
    :class:`~repro.explore.context.EvalContext`.
    """
    if context is None:
        from repro.explore.context import EvalContext

        context = EvalContext()
    candidates = [
        g.name
        for g in groups
        if storage_class[g.name] == "both"
        and coverages[g.name].kind == "pinned"
    ]
    candidates = candidates[:4]  # 2^4 design points at most
    if not candidates:
        return count_cycles(
            kernel,
            groups,
            allocation,
            model,
            ram_ports=ram_ports,
            overhead_per_iteration=overhead_per_iteration,
            dfg=dfg,
            coverages=coverages,
            context=context,
        )
    # The winner is memoized under the count's key with the search in
    # place of the anchors, so a repeated point skips the search.
    key = report_key(
        context, model, ram_ports, overhead_per_iteration, groups,
        allocation, "best",
    )
    return context.cycle_report(
        kernel, groups, key, dfg, coverages,
        lambda: best_anchors(
            kernel, groups, allocation, model, ram_ports,
            overhead_per_iteration, dfg, coverages, candidates, context,
        ),
    )


def _count_mixed_operand_ops(dfg, storage_class: dict[str, str]) -> int:
    """Operations whose read operands mix register and RAM residency."""
    mixed = 0
    for node in dfg.ops():
        classes = {
            storage_class[p.group_name]
            for p in dfg.predecessors(node)
            if isinstance(p, ReadNode)
        }
        if "both" in classes or ("reg" in classes and "ram" in classes):
            mixed += 1
    return mixed


def _ram_resident_arrays(
    kernel: Kernel,
    groups: tuple[RefGroup, ...],
    storage_class: dict[str, str],
) -> frozenset[str]:
    """Arrays that must occupy a RAM block.

    A read-only input array whose every reference is fully register-
    resident can be initialized at configuration time (constants in
    registers) and needs no RAM; anything written, partially covered or
    uncovered keeps its block.
    """
    needs_ram: set[str] = set()
    for group in groups:
        fully_registered = (
            storage_class[group.name] == "reg" and not group.is_written
        )
        if not fully_registered:
            needs_ram.add(group.array_name)
    for array in kernel.arrays.values():
        if array.role == "output":
            needs_ram.add(array.name)
    return frozenset(needs_ram)
