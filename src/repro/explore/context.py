"""The shared-artifact evaluation plane: per-process memoization.

The experiment grids of the paper are *sweeps*: one kernel evaluated
under many allocators and register budgets (Table 1, Figure 2).  The
points of such a sweep share almost all of their analysis structure —
the body DFG, the coverage rank/Belady computations, the makespan of
each distinct hit/miss iteration pattern — yet the seed evaluator
rebuilt every artifact per point, so a B-budgets x A-allocators grid
paid the same analysis bill B x A times.  The per-point *marginal* cost
should be only what the point's own parameters change — the allocation
decision along the budget and allocator axes, the cycle count along the
latency axis — not the whole analysis (the same observation the tiling
literature makes about register-pressure points along a sweep).

:class:`EvalContext` is the one memo store for those artifacts.  It is
**per process** (nothing here is pickled or shared across workers) and
keyed so that memoization is invisible in the results:

============================  =============================================
memo                          key
============================  =============================================
kernel + reference groups     ``(kernel_name, kernel_json)``
body DFG                      the kernel bundle (DFG depends only on
                              kernel + groups)
coverage computers            the kernel bundle — one
                              :class:`~repro.scalar.coverage.GroupCoverage`
                              per group, which itself memoizes results per
                              ``(registers, anchor)``, sharing the
                              kernel's one iteration-class partition
pattern cost tables           ``(kernel bundle, objective key)`` —
                              packed pattern value -> ``(makespan +
                              overhead, memory_cycles)``
critical graphs (CPA-RA)      ``(dfg, latency-model key, frozen
                              per-group hit map)``
whole cycle reports           the full :func:`~repro.sim.cycles.report_key`
                              — objective key, per-group registers and
                              anchors (or the best-anchor marker)
allocations                   ``(kernel bundle, allocator configuration,
                              budget)``, plus the objective key only when
                              the run read ``state.objective`` (CPA-RA,
                              OPT-RA); truncated allocations are never
                              stored
hardware estimates            ``(kernel bundle, device, per-group
                              registers)`` — clock, area and RAM binding
                              of a register distribution
objectives                    ``(latency spec, device, RAM ports,
                              overhead)`` — one resolved
                              :class:`~repro.synth.estimate.Objective`
                              per distinct parameter set (not per kernel)
============================  =============================================

Every memoized artifact is immutable (or treated as such by every
consumer), and every memo key captures the full input of the computation
it short-circuits, so evaluation with a context is bit-identical to
evaluation on a fresh one; ``tests/test_eval_context.py`` and the fuzz
suite pin that equivalence.  It is also the only evaluation path: every
layer below the public entries (allocators, the cycle counter, the
synthesis estimate) takes its artifacts from a context.  A standalone
call is a one-point sweep — :class:`~repro.core.base.AllocationState`,
:func:`~repro.synth.estimate.build_design`,
:func:`~repro.sim.cycles.count_cycles` and
:func:`~repro.synth.estimate.count_with_best_anchors` each turn a
missing context into a fresh ``EvalContext()`` once, at the entry.

Kernels are evicted LRU once more than ``kernel_memo_size`` distinct
subjects have been seen (default :data:`DEFAULT_KERNEL_MEMO`); evicting
a kernel drops *all* of its dependent artifacts at once, so the
context's footprint is bounded by the working set of the sweep, not its
length.

Source-edit invalidation needs no extra machinery: the context lives in
one process and memoizes only what that process's loaded code computes,
while the on-disk result cache is guarded by the code stamp
(:mod:`repro.explore.versions`) — this module is inside
:mod:`repro.explore.evaluate`'s dependency cone, so editing it stales
cached records exactly like editing the evaluator itself.
"""

from __future__ import annotations

# repro-lint: ok-file determinism:id-key -- every id()-keyed lookup here is guarded by an `is` check against the stored kernel object (and evicted with it), so a recycled id can never answer for a different kernel
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.dfg.build import build_dfg
from repro.dfg.critical import CriticalGraph, critical_graph
from repro.dfg.graph import DataFlowGraph
from repro.scalar.coverage import CoverageMap, GroupCoverage, coverage_for
from repro.sim.cycles import CycleReport, PatternCosts

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.groups import RefGroup
    from repro.core.allocation import Allocation
    from repro.dfg.latency import LatencyModel
    from repro.explore.query import LatencySpec
    from repro.hw.device import Device
    from repro.ir.kernel import Kernel
    from repro.synth.estimate import Hardware, Objective

__all__ = [
    "EvalContext",
    "ContextStats",
    "DEFAULT_KERNEL_MEMO",
    "process_context",
    "reset_process_context",
]

#: Default bound on distinct kernels memoized per context (LRU beyond it).
DEFAULT_KERNEL_MEMO = 64


@dataclass
class ContextStats:
    """Hit/miss accounting per memo, for tests and ``--profile`` output."""

    kernel_hits: int = 0
    kernel_misses: int = 0
    dfg_hits: int = 0
    dfg_misses: int = 0
    coverage_hits: int = 0
    coverage_misses: int = 0
    critical_hits: int = 0
    critical_misses: int = 0
    cost_hits: int = 0
    cost_misses: int = 0
    cycles_hits: int = 0
    cycles_misses: int = 0
    allocation_hits: int = 0
    allocation_misses: int = 0
    hardware_hits: int = 0
    hardware_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _KernelArtifacts:
    """Everything one sweep subject's points share, built lazily."""

    kernel: "Kernel"
    groups: "tuple[RefGroup, ...]"
    dfg: "DataFlowGraph | None" = None
    #: group name -> GroupCoverage, plus their iteration classes
    coverages: "CoverageMap | None" = None
    #: objective key -> per-pattern-value cost table
    costs: "dict[tuple, PatternCosts]" = field(default_factory=dict)
    #: (model key, frozen per-group hits) -> CriticalGraph
    critical: "dict[tuple, CriticalGraph]" = field(default_factory=dict)
    #: full count_cycles key -> CycleReport (see EvalContext.cycle_report)
    cycle_reports: "dict[tuple, CycleReport]" = field(default_factory=dict)
    #: (allocator config, budget, objective key or None) -> Allocation
    allocations: "dict[tuple, Allocation]" = field(default_factory=dict)
    #: (device, sorted per-group registers) -> clock, area and binding
    hardware: "dict[tuple, Hardware]" = field(default_factory=dict)


class EvalContext:
    """Per-process memo store for the artifacts a sweep's points share.

    One instance serves one process; the evaluator keeps a process-global
    instance (:func:`process_context`) that parallel workers populate
    independently.  All lookups are keyed on full computation inputs, so
    a context never changes results — only how often they are recomputed.
    """

    def __init__(self, kernel_memo_size: int = DEFAULT_KERNEL_MEMO) -> None:
        if kernel_memo_size < 1:
            raise ValueError(
                f"kernel_memo_size must be >= 1, got {kernel_memo_size}"
            )
        self.kernel_memo_size = kernel_memo_size
        self.stats = ContextStats()
        self._bundles: "OrderedDict[tuple, _KernelArtifacts]" = OrderedDict()
        #: id(kernel object) -> bundle, for artifact lookups that receive
        #: the kernel object rather than its name (allocators).
        self._by_object: "dict[int, _KernelArtifacts]" = {}
        #: (latency spec, device, ram ports, overhead) -> Objective
        self._objectives: "dict[tuple, Objective]" = {}

    # -- kernel + groups ------------------------------------------------------

    def kernel_and_groups(
        self, kernel_name: str, kernel_json: "str | None"
    ) -> "tuple[Kernel, tuple[RefGroup, ...]]":
        """The canonical kernel/groups pair for one sweep subject."""
        bundle = self._bundle(kernel_name, kernel_json)
        return bundle.kernel, bundle.groups

    def _bundle(
        self, kernel_name: str, kernel_json: "str | None"
    ) -> _KernelArtifacts:
        key = (kernel_name, kernel_json)
        bundle = self._bundles.get(key)
        if bundle is not None:
            self.stats.kernel_hits += 1
            self._bundles.move_to_end(key)
            return bundle
        self.stats.kernel_misses += 1
        from repro.analysis.groups import build_groups
        from repro.explore.query import DesignQuery

        kernel = DesignQuery(
            kernel=kernel_name, allocator="NO-SR", budget=1,
            kernel_json=kernel_json,
        ).build_kernel()
        bundle = _KernelArtifacts(kernel=kernel, groups=build_groups(kernel))
        self._remember(key, bundle)
        return bundle

    def _bundle_for(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...] | None" = None,
    ) -> "_KernelArtifacts | None":
        """The bundle owning ``kernel``, adopting unknown kernel objects.

        Artifact APIs receive in-memory kernels (allocators, direct
        :func:`~repro.synth.estimate.build_design` callers); a kernel the
        context has never seen is adopted under an object-identity key so
        its artifacts share the same LRU story.  When ``groups`` is given
        and differs from the bundle's canonical grouping, memoization is
        declined (``None``): artifact keys assume the canonical groups.
        """
        bundle = self._resident(kernel)
        if bundle is not None:
            if groups is not None and groups is not bundle.groups:
                return None
            return bundle
        if groups is None:
            from repro.analysis.groups import build_groups

            groups = build_groups(kernel)
        bundle = _KernelArtifacts(kernel=kernel, groups=groups)
        self._remember(("@object", id(kernel)), bundle)
        return bundle

    def _resident(self, kernel: "Kernel") -> "_KernelArtifacts | None":
        """The bundle whose canonical kernel *is* ``kernel``, or None."""
        bundle = self._by_object.get(id(kernel))
        if bundle is None or bundle.kernel is not kernel:
            return None
        return bundle

    def _remember(self, key: tuple, bundle: _KernelArtifacts) -> None:
        self._bundles[key] = bundle
        self._by_object[id(bundle.kernel)] = bundle
        while len(self._bundles) > self.kernel_memo_size:
            _, evicted = self._bundles.popitem(last=False)
            self._by_object.pop(id(evicted.kernel), None)

    # -- DFG ------------------------------------------------------------------

    def dfg(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...] | None" = None,
    ) -> DataFlowGraph:
        """The memoized body DFG of ``kernel`` (built on first use)."""
        bundle = self._bundle_for(kernel, groups)
        if bundle is None:
            self.stats.dfg_misses += 1
            return build_dfg(kernel, groups)
        if bundle.dfg is None:
            self.stats.dfg_misses += 1
            bundle.dfg = build_dfg(bundle.kernel, bundle.groups)
        else:
            self.stats.dfg_hits += 1
        return bundle.dfg

    # -- coverage -------------------------------------------------------------

    def coverages(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...] | None" = None,
    ) -> CoverageMap:
        """Shared coverage computers for every group of ``kernel``.

        The returned :class:`~repro.scalar.coverage.GroupCoverage`
        objects memoize their own results per ``(registers, anchor)``,
        so sharing them across the budget/allocator axes is where a
        sweep's rank/Belady work collapses to once-per-kernel; the map
        also carries the kernel's one iteration-class partition.
        Callers must treat the dict as read-only.
        """
        bundle = self._bundle_for(kernel, groups)
        if bundle is None:
            self.stats.coverage_misses += 1
            return coverage_for(kernel, groups)
        if bundle.coverages is None:
            self.stats.coverage_misses += 1
            bundle.coverages = coverage_for(bundle.kernel, bundle.groups)
        else:
            self.stats.coverage_hits += 1
        return bundle.coverages

    # -- per-pattern cost tables ----------------------------------------------

    def pattern_costs(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...]",
        dfg: DataFlowGraph,
        objective: "Objective",
    ) -> PatternCosts:
        """The cost table of one objective.

        The bundle fixes the channel layout (its groups and DFG); the
        table is keyed by the objective's key (latency model identity,
        port count, per-iteration overhead), so every count of a sweep
        schedules each distinct pattern once, even though each point
        builds its own objective.  A foreign DFG or grouping gets a
        fresh, unshared table (the sibling memos decline foreign
        artifacts the same way).
        """
        bundle = self._resident(kernel)
        if bundle is None or bundle.dfg is not dfg or (
            groups is not bundle.groups
        ):
            return PatternCosts(
                groups, dfg, objective, label=f"kernel {kernel.name}"
            )
        costs = bundle.costs.get(objective.key)
        if costs is None:
            costs = PatternCosts(
                bundle.groups, dfg, objective,
                label=f"kernel {kernel.name}", stats=self.stats,
            )
            bundle.costs[objective.key] = costs
        return costs

    # -- critical graphs (CPA-RA) ---------------------------------------------

    def critical_graph(
        self,
        kernel: "Kernel",
        dfg: DataFlowGraph,
        model: "LatencyModel",
        hits: "dict[str, bool]",
    ) -> CriticalGraph:
        """The CG of ``dfg`` under ``hits``, shared across budget points.

        CPA-RA's early rounds reach the same per-group hit maps at
        adjacent budgets, so the walk that extracts the CG repeats
        identically along the budget axis — the textbook cross-grid memo.
        """
        bundle = self._resident(kernel)
        if bundle is None or bundle.dfg is not dfg:
            return critical_graph(dfg, model, hits)
        key = (model.key, tuple(sorted(hits.items())))
        memo = bundle.critical.get(key)
        if memo is not None:
            self.stats.critical_hits += 1
            return memo
        self.stats.critical_misses += 1
        memo = critical_graph(dfg, model, hits)
        bundle.critical[key] = memo
        return memo

    # -- whole cycle reports --------------------------------------------------

    def cycle_report(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...]",
        key: tuple,
        dfg: DataFlowGraph,
        coverages: "dict[str, GroupCoverage]",
        compute: "Callable[[], CycleReport]",
    ) -> "CycleReport":
        """The :class:`~repro.sim.cycles.CycleReport` under ``key``,
        from ``compute()`` on a miss.

        The key (built by :func:`~repro.sim.cycles.report_key`) captures
        the full parameterization of one count — the objective key, the
        per-group register assignment and the anchors (or the best-anchor
        marker) — so allocators that reach the same register
        distribution, and the anchor search's repeated counts, share one
        report.  Like the sibling memos, caller-supplied artifacts that
        are not the bundle's canonical ``dfg``/``coverages`` decline
        memoization entirely: ``compute()`` runs and nothing is counted
        or stored (a foreign artifact must neither poison the memo nor
        be answered from it).  Reports are frozen; consumers must not
        mutate ``ram_accesses``.
        """
        bundle = self._resident(kernel)
        if bundle is None or groups is not bundle.groups or (
            dfg is not bundle.dfg or coverages is not bundle.coverages
        ):
            return compute()
        report = bundle.cycle_reports.get(key)
        if report is not None:
            self.stats.cycles_hits += 1
            return report
        self.stats.cycles_misses += 1
        report = compute()
        bundle.cycle_reports[key] = report
        return report

    # -- allocations ----------------------------------------------------------

    def allocation(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...]",
        key: tuple,
        objective: "Objective",
        compute: "Callable[[], tuple[Allocation, bool]]",
    ) -> "Allocation":
        """The allocation under ``key`` (allocator configuration and
        budget), from ``compute()`` on a miss.

        ``compute()`` also reports whether the run read its objective.
        Until its first read a run cannot depend on the objective, so a
        run that never read it takes the same path under every
        objective: it is stored without the objective key and answers
        the whole latency axis of a sweep.  A run that did read it is
        stored under the objective's key.  Truncated allocations
        (``certified`` False) are never stored, and foreign groups
        decline the memo as in the sibling memos.  Allocations are
        frozen; consumers must not mutate their ``registers``.
        """
        bundle = self._bundle_for(kernel, groups)
        if bundle is None:
            return compute()[0]
        memo = bundle.allocations
        allocation = memo.get((*key, None))
        if allocation is None:
            allocation = memo.get((*key, objective.key))
        if allocation is not None:
            self.stats.allocation_hits += 1
            return allocation
        self.stats.allocation_misses += 1
        allocation, read_objective = compute()
        if allocation.certified:
            memo[(*key, objective.key if read_objective else None)] = allocation
        return allocation

    # -- hardware estimates ---------------------------------------------------

    def hardware(
        self,
        kernel: "Kernel",
        groups: "tuple[RefGroup, ...]",
        coverages: "dict[str, GroupCoverage]",
        device: "Device",
        registers: "dict[str, int]",
        compute: "Callable[[], Hardware]",
    ) -> "Hardware":
        """Clock, area and RAM binding of one register distribution on
        ``device``, from ``compute()`` on a miss.

        None of them reads the objective, so every point of a sweep
        that reaches the same per-group registers on the same device
        (the RAM-latency axis, and allocators that agree) shares one
        estimate.  Caller-supplied groups or coverages that are not the
        bundle's canonical ones decline the memo.
        """
        bundle = self._resident(kernel)
        if bundle is None or groups is not bundle.groups or (
            coverages is not bundle.coverages
        ):
            return compute()
        key = (device, tuple(sorted(registers.items())))
        hardware = bundle.hardware.get(key)
        if hardware is not None:
            self.stats.hardware_hits += 1
            return hardware
        self.stats.hardware_misses += 1
        hardware = compute()
        bundle.hardware[key] = hardware
        return hardware

    # -- objectives -----------------------------------------------------------

    def objective(
        self,
        latency: "LatencySpec",
        device: "Device",
        ram_ports: int,
        overhead: int,
    ) -> "Objective":
        """The resolved objective of one query's parameters, built (and
        its latency model sorted) once per distinct parameter set."""
        key = (latency, device, ram_ports, overhead)
        objective = self._objectives.get(key)
        if objective is None:
            from repro.synth.estimate import Objective

            objective = Objective.resolve(
                device, latency.to_model(), ram_ports or None, overhead
            )
            self._objectives[key] = objective
        return objective

    # -- misc -----------------------------------------------------------------

    def clear(self) -> None:
        """Drop every memoized artifact (stats are kept)."""
        self._bundles.clear()
        self._by_object.clear()
        self._objectives.clear()


# -- the process-global context -----------------------------------------------

_PROCESS_CONTEXT: "EvalContext | None" = None


# repro-lint: ok version-cone:mutable-global -- the documented per-process memo root: each worker lazily builds its own context, so divergence affects warm-up cost only, never results
def process_context() -> EvalContext:
    """The per-process shared context (created on first use)."""
    global _PROCESS_CONTEXT
    if _PROCESS_CONTEXT is None:
        _PROCESS_CONTEXT = EvalContext()
    return _PROCESS_CONTEXT


# repro-lint: ok version-cone:mutable-global -- test/bench escape hatch for the same per-process memo root; memo contents never change results
def reset_process_context(
    kernel_memo_size: int = DEFAULT_KERNEL_MEMO,
) -> EvalContext:
    """Replace the process context with a fresh one (tests, benchmarks)."""
    global _PROCESS_CONTEXT
    _PROCESS_CONTEXT = EvalContext(kernel_memo_size=kernel_memo_size)
    return _PROCESS_CONTEXT
