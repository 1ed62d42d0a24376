"""Exact whole-nest cycle counting.

For a kernel plus an allocation, every iteration's cycle cost is the
makespan of the body DFG scheduled with that iteration's hit/miss pattern
(see :mod:`repro.sim.scheduler`).  Patterns come from the coverage masks —
e.g. with ``d`` covered for ``k < 12``, iterations split into the
``k < 12`` and ``k >= 12`` classes of the paper's Figure 2(c) arithmetic.

Iterations with identical patterns cost the same, so the counter never
looks at single iterations.  Each kernel's iterations are split once
into classes (:class:`~repro.scalar.coverage.IterationClasses`) on which
every miss mask is constant, at every register count and anchor — 64 to
512 classes on the registered kernels, against up to 61,504 iterations.
Coverage results carry per-class miss vectors, so a count works on
vectors of length ``K``, the number of classes: it packs them, schedules
each distinct pattern once, and takes a sum weighted by the class sizes
— exact, and fast even for the million-iteration kernels.  A result
without class vectors (a test oracle's per-iteration grids) is
compressed onto the partition by a verifying gather, which raises
unless the grid is constant on every class.

Patterns are packed.  A kernel's access channels get fixed bit positions
(:class:`PatternLayout`), each class miss vector is ORed in as one bit
plane of a ``uint8`` vector (``uint16``/``uint32`` past 8/16 channels),
and a :class:`PatternCosts` table maps each packed value to its
iteration cost.  The channel set depends only on the groups, so one
layout and one cost table serve every count of a kernel; with an
:class:`~repro.explore.context.EvalContext` they serve a whole sweep.
:func:`classify_patterns` is the one pricing function: the counts,
the anchor search and OPT-RA's bounds all call it.

Total cycles also include:

* epilogue write-backs of covered written elements (one RAM store each),
* a configurable per-iteration control overhead (sequential FSM designs
  spend at least one state transition per iteration; Table 1 runs use 1,
  the Figure 2(c) memory-only counting uses 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.analysis.groups import RefGroup
from repro.core.allocation import Allocation
from repro.dfg.build import build_dfg
from repro.dfg.graph import DataFlowGraph
from repro.dfg.latency import LatencyModel
from repro.dfg.nodes import ReadNode, WriteNode
from repro.errors import SimulationError
from repro.ir.kernel import Kernel
from repro.scalar.coverage import (
    CoverageResult,
    GroupCoverage,
    IterationClasses,
    coverage_for,
)
from repro.sim.scheduler import schedule_iteration

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.context import EvalContext

__all__ = [
    "CycleReport",
    "PatternCosts",
    "PatternLayout",
    "best_anchors",
    "classify_patterns",
    "count_cycles",
    "pattern_costs",
    "report_key",
]

#: Channel limit of the pattern classifier (a packed value must stay a
#: small table index).
MAX_CHANNELS = 20


@dataclass(frozen=True)
class CycleReport:
    """Cycle accounting for one (kernel, allocation) pair.

    Attributes
    ----------
    in_loop_cycles:
        Sum of per-iteration makespans (plus per-iteration overhead).
    epilogue_cycles:
        Write-back stores of covered written elements.
    memory_cycles:
        Cycles with a busy RAM port, summed over iterations and epilogue —
        the Figure 2(c) ``Tmem`` when an all-ops-free latency model is used.
    ram_accesses:
        Group name -> total RAM accesses (loop + epilogue).
    pattern_counts:
        Distinct hit/miss patterns and how many iterations hit each,
        for reports (pattern rendered as a sorted tuple of miss events).
    """

    in_loop_cycles: int
    epilogue_cycles: int
    memory_cycles: int
    ram_accesses: dict[str, int]
    pattern_counts: tuple[tuple[tuple[str, ...], int, int], ...]

    @property
    def total_cycles(self) -> int:
        return self.in_loop_cycles + self.epilogue_cycles

    @property
    def total_ram_accesses(self) -> int:
        return sum(self.ram_accesses.values())


class PatternLayout:
    """Fixed bit positions of a kernel's access channels.

    A group owns a ``read`` channel iff it has a non-forwarded read
    (:attr:`~repro.analysis.groups.RefGroup.has_active_read`) and a
    ``write`` channel iff it writes; channels take consecutive bits in
    group order.  The set is static — a coverage result's read mask is
    all-False whenever its group has no active read — so one layout
    serves every allocation of a kernel.  DFG memory nodes without a
    channel stay out of the hit map, i.e. RAM-resident (the scheduler's
    default).
    """

    def __init__(
        self,
        groups: "tuple[RefGroup, ...]",
        dfg: DataFlowGraph,
        label: str = "kernel",
    ) -> None:
        channels: list[str] = []
        #: group name -> (read bit, write bit); None where no channel.
        self.bits: "dict[str, tuple[int | None, int | None]]" = {}
        for group in groups:
            read = write = None
            if group.has_active_read:
                read = len(channels)
                channels.append(f"{group.name}:read")
            if group.is_written:
                write = len(channels)
                channels.append(f"{group.name}:write")
            self.bits[group.name] = (read, write)
        if len(channels) > MAX_CHANNELS:
            raise SimulationError(
                f"{label}: {len(channels)} access channels exceed "
                f"the pattern classifier's limit"
            )
        self.channels = tuple(channels)
        node_bits: list[tuple[str, int]] = []
        for node in dfg.nodes:
            if not isinstance(node, (ReadNode, WriteNode)):
                continue
            read, write = self.bits.get(node.group_name, (None, None))
            bit = read if isinstance(node, ReadNode) else write
            if bit is not None:
                node_bits.append((node.uid, bit))
        self.node_bits = tuple(node_bits)
        self.dtype = (
            np.uint8 if len(channels) <= 8
            else np.uint16 if len(channels) <= 16
            else np.uint32
        )
        self._weights = [self.dtype(1 << bit) for bit in range(len(channels))]

    def pack(
        self,
        classes: IterationClasses,
        results: "Mapping[str, CoverageResult]",
        into: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """OR the class miss vectors of ``results`` into a packed pattern.

        The pattern holds one value per class of ``classes``.
        ``results`` maps group names to coverage results; absent groups
        never miss.  ``into`` (a packed pattern, updated in place) lets
        a caller start from a shared partial pattern.
        """
        pattern = (
            np.zeros(classes.count, dtype=self.dtype) if into is None else into
        )
        for name, result in results.items():
            reads, writes = result.ram_reads, result.write_misses
            if not (reads or writes):
                continue
            read, write = self.bits[name]
            read_miss, write_miss = result.class_masks(classes)
            for bit, miss, count in (
                (read, read_miss, reads), (write, write_miss, writes)
            ):
                if not count:
                    continue
                if bit is None:
                    raise SimulationError(
                        f"group {name} misses on an access channel "
                        f"it does not have"
                    )
                pattern |= miss.view(np.uint8) * self._weights[bit]
        return pattern


class PatternCosts:
    """Packed pattern value -> ``(cost, memory cycles, miss labels)``.

    A value's cost is its scheduled makespan plus the per-iteration
    overhead; each distinct value is scheduled once, on first sight.
    The table owns the :class:`PatternLayout` of ``groups`` over
    ``dfg``.  Contexts keep one table per (DFG, latency model, ports,
    overhead) so a sweep's counts share it (``stats`` then receives
    ``cost_hits`` / ``cost_misses``); without a context a table lives
    for one count or one OPT-RA search.
    """

    def __init__(
        self,
        groups: "tuple[RefGroup, ...]",
        dfg: DataFlowGraph,
        model: LatencyModel,
        ram_ports: int,
        overhead: int,
        label: str = "kernel",
        stats: object = None,
    ) -> None:
        self.layout = PatternLayout(groups, dfg, label=label)
        self._dfg = dfg
        self._model = model
        self._ram_ports = ram_ports
        self._overhead = overhead
        self._stats = stats
        self._table: "dict[int, tuple[int, int, tuple[str, ...]]]" = {}

    def __getitem__(self, value: int) -> "tuple[int, int, tuple[str, ...]]":
        entry = self._table.get(value)
        if entry is not None:
            if self._stats is not None:
                self._stats.cost_hits += 1
            return entry
        if self._stats is not None:
            self._stats.cost_misses += 1
        layout = self.layout
        hit = {uid: not (value >> bit) & 1 for uid, bit in layout.node_bits}
        schedule = schedule_iteration(
            self._dfg, self._model, hit, self._ram_ports
        )
        misses = tuple(
            channel
            for bit, channel in enumerate(layout.channels)
            if (value >> bit) & 1
        )
        entry = (
            schedule.makespan + self._overhead,
            schedule.memory_cycles,
            misses,
        )
        self._table[value] = entry
        return entry


def pattern_costs(
    kernel: Kernel,
    groups: "tuple[RefGroup, ...]",
    dfg: DataFlowGraph,
    model: LatencyModel,
    ram_ports: int,
    overhead_per_iteration: int,
    context: "EvalContext | None" = None,
) -> PatternCosts:
    """The cost table of one objective: the context's shared one, or a
    fresh table when there is no context (or it declines)."""
    if context is not None:
        costs = context.pattern_costs(
            kernel, groups, dfg, model, ram_ports, overhead_per_iteration
        )
        if costs is not None:
            return costs
    return PatternCosts(
        groups, dfg, model, ram_ports, overhead_per_iteration,
        label=f"kernel {kernel.name}",
    )


def report_key(
    context: "EvalContext",
    model: LatencyModel,
    ram_ports: int,
    overhead_per_iteration: int,
    groups: "tuple[RefGroup, ...]",
    allocation: Allocation,
    anchors: object,
) -> tuple:
    """The context's cycle-report memo key of one count: its full
    parameterization, with ``anchors`` the sorted anchor overrides (or
    a marker for a best-anchor search)."""
    return (
        context.model_fingerprint(model),
        ram_ports,
        overhead_per_iteration,
        tuple((g.name, allocation.registers_for(g.name)) for g in groups),
        anchors,
    )


def count_cycles(
    kernel: Kernel,
    groups: tuple[RefGroup, ...],
    allocation: Allocation,
    model: LatencyModel,
    ram_ports: int = 1,
    overhead_per_iteration: int = 0,
    dfg: DataFlowGraph | None = None,
    anchors: "dict[str, str] | None" = None,
    coverages: "dict[str, GroupCoverage] | None" = None,
    context: "EvalContext | None" = None,
) -> CycleReport:
    """Count execution cycles of ``kernel`` under ``allocation``.

    ``anchors`` optionally overrides the pinned-coverage anchor per group
    (see :meth:`GroupCoverage.result`); defaults to ``"low"``.

    ``coverages`` optionally shares pre-built coverage computers across
    repeated counts of the same design point (the pipeline's anchor
    search); any object with the :meth:`GroupCoverage.result` interface
    serves, which is how the tests count cycles over reference coverage
    (a plain dict's masks are gathered onto the kernel's canonical
    iteration classes, verified).

    ``context`` (an :class:`~repro.explore.context.EvalContext`) memoizes
    whole reports per full parameterization, plus the layout and the
    per-pattern cost table across the counts of a sweep — the grid
    points of one kernel mostly re-encounter the same patterns, so the
    DFG is re-scheduled only for genuinely new ones.  Results are
    bit-identical with and without it.
    """
    if dfg is None:
        dfg = (
            context.dfg(kernel, groups)
            if context is not None
            else build_dfg(kernel, groups)
        )
    anchors = anchors or {}
    memo_key = None
    if context is not None:
        if coverages is None:
            coverages = context.coverages(kernel, groups)
        # The full parameterization of this count.  The context declines
        # the memo when ``dfg``/``coverages`` are not its canonical
        # artifacts for this kernel, so foreign coverage (a test oracle)
        # neither answers from nor poisons it.
        memo_key = report_key(
            context, model, ram_ports, overhead_per_iteration, groups,
            allocation, tuple(sorted(anchors.items())),
        )
        memoized = context.get_cycle_report(
            kernel, groups, memo_key, dfg=dfg, coverages=coverages
        )
        if memoized is not None:
            return memoized

    if coverages is None:
        coverages = coverage_for(kernel, groups)
    results = {
        g.name: coverages[g.name].result(
            allocation.registers_for(g.name), anchor=anchors.get(g.name, "low")
        )
        for g in groups
    }
    costs = pattern_costs(
        kernel, groups, dfg, model, ram_ports, overhead_per_iteration, context
    )
    classes = _classes(kernel, groups, coverages, context)
    report = _report(
        results,
        classify_patterns(costs.layout.pack(classes, results), classes, costs),
        model,
    )
    if memo_key is not None:
        context.put_cycle_report(
            kernel, groups, memo_key, report, dfg=dfg, coverages=coverages
        )
    return report


def _classes(
    kernel: Kernel,
    groups: "tuple[RefGroup, ...]",
    coverages: "Mapping[str, GroupCoverage]",
    context: "EvalContext | None",
) -> IterationClasses:
    """The partition a count packs onto: the one its coverage map
    shares, else the canonical map's of ``kernel`` (a plain dict, such
    as a test oracle's, is gathered onto that one)."""
    classes = getattr(coverages, "classes", None)
    if classes is None:
        canonical = (
            context.coverages(kernel, groups)
            if context is not None
            else coverage_for(kernel, groups)
        )
        classes = canonical.classes
    return classes


def _report(
    results: "Mapping[str, CoverageResult]",
    classified: "tuple[int, int, list[tuple[tuple[str, ...], int, int]]]",
    model: LatencyModel,
) -> CycleReport:
    """The report of one count from its coverage results (group order)
    and their :func:`classify_patterns` output."""
    in_loop, memory_cycles, pattern_rows = classified
    writebacks = sum(r.writeback_stores for r in results.values())
    epilogue = writebacks * model.ram_latency
    return CycleReport(
        in_loop_cycles=in_loop,
        epilogue_cycles=epilogue,
        memory_cycles=memory_cycles + epilogue,
        ram_accesses={
            name: result.total_ram_accesses for name, result in results.items()
        },
        pattern_counts=tuple(pattern_rows),
    )


def best_anchors(
    kernel: Kernel,
    groups: "tuple[RefGroup, ...]",
    allocation: Allocation,
    model: LatencyModel,
    ram_ports: int,
    overhead_per_iteration: int,
    dfg: DataFlowGraph,
    coverages: "dict[str, GroupCoverage]",
    candidates: "list[str]",
    context: "EvalContext | None" = None,
) -> CycleReport:
    """The report of the ``candidates`` anchors that minimize total cycles.

    Combination ``mask`` anchors ``candidates[i]`` high iff bit ``i`` is
    set; masks are costed in ascending order and the first strict
    minimum wins.  The other groups' planes do not depend on the choice,
    so they are packed once into a shared base and each combination
    adds only the candidate planes.  The winner's classification is
    kept, so its report (equal to :func:`count_cycles` at the winning
    anchors) costs no second pack or classification.
    """
    costs = pattern_costs(
        kernel, groups, dfg, model, ram_ports, overhead_per_iteration, context
    )
    classes = _classes(kernel, groups, coverages, context)
    fixed = {
        g.name: coverages[g.name].result(allocation.registers_for(g.name))
        for g in groups
        if g.name not in candidates
    }
    base = costs.layout.pack(classes, fixed)
    base_writebacks = sum(r.writeback_stores for r in fixed.values())
    options = [
        tuple(
            coverages[name].result(
                allocation.registers_for(name), anchor=anchor
            )
            for anchor in ("low", "high")
        )
        for name in candidates
    ]
    best_total, best = None, None
    for mask in range(1 << len(candidates)):
        chosen = {
            name: options[bit][(mask >> bit) & 1]
            for bit, name in enumerate(candidates)
        }
        classified = classify_patterns(
            costs.layout.pack(classes, chosen, into=base.copy()), classes, costs
        )
        writebacks = base_writebacks + sum(
            r.writeback_stores for r in chosen.values()
        )
        total = classified[0] + writebacks * model.ram_latency
        if best_total is None or total < best_total:
            best_total, best = total, (chosen, classified)
    chosen, classified = best
    merged = {**fixed, **chosen}
    return _report({g.name: merged[g.name] for g in groups}, classified, model)


def classify_patterns(
    pattern: np.ndarray, classes: IterationClasses, costs: PatternCosts
) -> "tuple[int, int, list[tuple[tuple[str, ...], int, int]]]":
    """The pattern-classification core shared by every cycle counter.

    ``pattern`` is a packed vector over the iteration classes
    (:meth:`PatternLayout.pack`); the iterations whose classes share one
    value form one pattern, costed once through ``costs``.  Returns
    ``(in_loop_cycles, memory_cycles, pattern_rows)`` exactly as
    :func:`count_cycles` reports them, rows in ascending value order;
    OPT-RA's admissible relaxation bounds reuse this so the bound
    arithmetic cannot drift from the real counter's.

    The iteration counts are a weighted ``bincount`` over the class
    weights.  It accumulates in float64, which is exact here: every
    partial sum is an integer below the iteration count, far under
    ``2**53``.
    """
    counts = np.bincount(pattern, weights=classes.weights)
    values = np.flatnonzero(counts)
    in_loop = 0
    memory_cycles = 0
    total = 0
    pattern_rows: list[tuple[tuple[str, ...], int, int]] = []
    for value, count in zip(values.tolist(), counts[values].tolist()):
        count = int(count)
        cost, pattern_memory, misses = costs[value]
        in_loop += cost * count
        memory_cycles += pattern_memory * count
        total += count
        pattern_rows.append((misses, count, cost))

    if total != classes.size:
        raise SimulationError("pattern classification lost iterations")
    return in_loop, memory_cycles, pattern_rows
