"""End-to-end design-point evaluation.

:func:`build_design` is the "synthesis + P&R + simulation" stand-in: it
takes a kernel and an allocation and produces the fully populated
:class:`~repro.synth.design.HardwareDesign` that one Table 1 row reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.analysis.groups import RefGroup, build_groups
from repro.core.allocation import Allocation
from repro.dfg.latency import LatencyModel
from repro.dfg.nodes import OpNode, ReadNode
from repro.hw.binding import StorageBinding, bind_arrays
from repro.hw.device import Device, XCV1000
from repro.ir.kernel import Kernel
from repro.scalar.coverage import GroupCoverage
from repro.sim.cycles import best_anchors, count_cycles, report_key
from repro.spans import span
from repro.synth.area import AreaEstimate, estimate_area
from repro.synth.design import HardwareDesign
from repro.synth.timing import TimingEstimate, estimate_clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.context import EvalContext

__all__ = [
    "Hardware",
    "Objective",
    "build_design",
    "classify_operand_storage",
    "count_with_best_anchors",
]


@dataclass(frozen=True)
class Objective:
    """The cycle objective of one evaluation, resolved against its device.

    One instance is what the allocator optimizes (the exact allocator
    reads it off :class:`~repro.core.base.AllocationState`) and what
    :func:`build_design` reports, so the two cannot disagree; it travels
    whole down to the cycle counter and its pattern cost tables.
    """

    model: LatencyModel
    ram_ports: int
    overhead_per_iteration: int = 1

    @property
    def key(self) -> tuple:
        """Hashable identity: equal objectives share every memo entry,
        whichever model object each was built on."""
        return (self.model.key, self.ram_ports, self.overhead_per_iteration)

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


class Hardware(NamedTuple):
    """What one register distribution costs on a device."""

    timing: TimingEstimate
    area: AreaEstimate
    binding: StorageBinding


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
    one when omitted) supplies the DFG, the coverage computers, the
    per-pattern cost tables inside the cycle counter and the hardware
    estimate of the allocation's register distribution; ``coverages``
    overrides the context's computers (the fuzz oracle passes reference
    coverage).  Neither changes results.
    Its work runs under the ``--profile`` spans ``dfg_schedule``,
    ``cycles`` and ``other`` (:mod:`repro.spans`).
    """
    with span("dfg_schedule"):
        if context is None:
            from repro.explore.context import EvalContext

            context = EvalContext()
        groups = groups if groups is not None else build_groups(kernel)
        if objective is None:
            objective = Objective.resolve(device)
        dfg = context.dfg(kernel, groups)
        if coverages is None:
            coverages = context.coverages(kernel, groups)

    with span("cycles"):
        cycles = count_with_best_anchors(
            kernel, groups, allocation, objective, dfg, coverages, context
        )

    with span("other"):
        timing, area, binding = context.hardware(
            kernel, groups, coverages, device, allocation.registers,
            lambda: _estimate_hardware(
                kernel, groups, allocation, device, dfg, coverages
            ),
        )

    return HardwareDesign(
        kernel_name=kernel.name,
        allocation=allocation,
        cycles=cycles,
        timing=timing,
        area=area,
        binding=binding,
        device_name=device.name,
    )


def _estimate_hardware(
    kernel: Kernel,
    groups: tuple[RefGroup, ...],
    allocation: Allocation,
    device: Device,
    dfg,
    coverages: "dict[str, GroupCoverage]",
) -> Hardware:
    """Clock, area and RAM binding of ``allocation``'s registers.

    Everything here follows from the per-group registers, the device
    and the kernel's analysis, never from the objective, which is what
    lets :meth:`~repro.explore.context.EvalContext.hardware` share one
    estimate across a sweep's RAM-latency axis.
    """
    storage_class = {
        g.name: classify_operand_storage(
            g, coverages[g.name], allocation.registers_for(g.name)
        )
        for g in groups
    }
    partial_groups = sum(1 for cls in storage_class.values() if cls == "both")
    timing = estimate_clock(
        dfg,
        device,
        total_registers=allocation.total_registers,
        partial_groups=partial_groups,
        mixed_operand_ops=_count_mixed_operand_ops(dfg, storage_class),
    )
    register_bits = {
        g.name: (allocation.registers_for(g.name), g.ref.array.dtype.bits)
        for g in groups
    }
    area = estimate_area(kernel, dfg, register_bits, partial_groups)
    ram_resident = _ram_resident_arrays(kernel, groups, storage_class)
    return Hardware(timing, area, bind_arrays(kernel, ram_resident, device))


def count_with_best_anchors(
    kernel,
    groups,
    allocation,
    objective,
    dfg,
    coverages,
    context=None,
):
    """Coverage-placement pass: choose pinned anchors minimizing cycles.

    Which footprint elements a partial pinned coverage keeps is a code-
    generation freedom; aligning pinned hits with window hits lets both
    inputs of an operation come from registers in the same iterations.
    The search space is tiny (one binary choice per partially covered
    pinned group, i.e. storage class ``'both'`` under
    :func:`classify_operand_storage`), so it is explored exhaustively by
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
        if coverages[g.name].kind == "pinned"
        and classify_operand_storage(
            g, coverages[g.name], allocation.registers_for(g.name)
        ) == "both"
    ]
    candidates = candidates[:4]  # 2^4 design points at most
    if not candidates:
        return count_cycles(
            kernel, groups, allocation, objective, dfg=dfg,
            coverages=coverages, context=context,
        )
    # The winner is memoized under the count's key with the search in
    # place of the anchors, so a repeated point skips the search.
    key = report_key(objective, groups, allocation, "best")
    return context.cycle_report(
        kernel, groups, key, dfg, coverages,
        lambda: best_anchors(
            kernel, groups, allocation, objective, dfg, coverages,
            candidates, context,
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
