"""Design-space sweeps and ablations beyond the paper's tables.

Four experiments beyond the paper's tables: register-budget sweeps,
RAM-latency sweeps, allocator-policy comparisons (including the exact
knapsack), and the residency-policy study that justifies the coverage
model's pinned/Belady split.  The OPT-RA gap study (A5) is ``repro
explore --allocators ... OPT-RA --gap-report``: :func:`gap_rows` pairs
the sweep's records with their cell's optimum and :func:`opt_gap_csv`
renders them.

The multi-point sweeps are thin adapters over :mod:`repro.explore`: each
declares its grid as an :class:`~repro.explore.space.ExplorationSpace`
and hands it to the engine, so every
sweep gains parallelism (``jobs``) and resumable caching (``cache``)
while returning exactly the shapes the serial versions did.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.analysis.groups import build_groups
from repro.dfg.latency import LatencyModel
from repro.explore.cache import ResultCache
from repro.explore.executor import Executor
from repro.explore.query import DesignQuery, DesignRecord, LatencySpec
from repro.explore.space import ExplorationSpace
from repro.ir.kernel import Kernel
from repro.sim.residency import (
    lru_miss_counts,
    opt_stack_distances,
    pinned_misses,
)

__all__ = [
    "BudgetPoint",
    "budget_sweep",
    "latency_sweep",
    "policy_comparison",
    "OptGapPoint",
    "gap_rows",
    "opt_gap_csv",
    "ResidencyPoint",
    "residency_study",
]


@dataclass(frozen=True)
class BudgetPoint:
    """One (budget, algorithm) evaluation."""

    budget: int
    algorithm: str
    cycles: int
    wall_clock_us: float
    total_registers: int


def _records(
    space: ExplorationSpace,
    jobs: int,
    cache: "ResultCache | Path | str | None",
) -> "list[DesignRecord]":
    """Run a grid through the engine; re-raise the first failure.

    Crashed points re-raise too (original exception type, worker
    traceback appended), so the harnesses stay loud about programming
    errors even though the engine itself never aborts a sweep.
    """
    results = Executor(jobs=jobs, cache=cache).run(space)
    for record in results:
        record.raise_error()
    return list(results)


def budget_sweep(
    kernel: Kernel,
    budgets: "list[int]",
    algorithms: tuple[str, ...] = ("FR-RA", "PR-RA", "CPA-RA"),
    model: LatencyModel | None = None,
    jobs: int = 1,
    cache: "ResultCache | Path | str | None" = None,
) -> list[BudgetPoint]:
    """Cycles/wall-clock versus register budget (ablation A1)."""
    if not budgets or not algorithms:
        return []
    space = ExplorationSpace(
        kernels=(kernel,),
        allocators=algorithms,
        budgets=budgets,
        latencies=(LatencySpec.from_model(model),),
    )
    return [
        BudgetPoint(
            budget=record.query.budget,
            algorithm=record.query.allocator,
            cycles=record.cycles,
            wall_clock_us=record.wall_clock_us,
            total_registers=record.total_registers,
        )
        for record in _records(space, jobs, cache)
    ]


def latency_sweep(
    kernel: Kernel,
    latencies: "list[int]",
    budget: int = 64,
    algorithms: tuple[str, ...] = ("FR-RA", "PR-RA", "CPA-RA"),
    jobs: int = 1,
    cache: "ResultCache | Path | str | None" = None,
) -> dict[int, dict[str, int]]:
    """Cycle counts versus RAM access latency (ablation A2).

    Higher RAM latency widens CPA-RA's advantage: every miss left on the
    critical path costs more.
    """
    if not latencies or not algorithms:
        return {}
    # Building the model validates each latency exactly like the serial
    # version did (0 raises AnalysisError instead of aliasing L=1).
    specs = [
        LatencySpec.from_model(LatencyModel.realistic(ram_latency=latency))
        for latency in latencies
    ]
    space = ExplorationSpace(
        kernels=(kernel,), allocators=algorithms, budgets=(budget,),
        latencies=specs,
    )
    out: dict[int, dict[str, int]] = {latency: {} for latency in latencies}
    for record in _records(space, jobs, cache):
        query = record.query
        out[query.latency.ram_latency][query.allocator] = record.cycles
    return out


def policy_comparison(
    kernel: Kernel,
    budget: int = 64,
    algorithms: tuple[str, ...] = ("FR-RA", "PR-RA", "CPA-RA", "KS-RA", "NO-SR"),
    model: LatencyModel | None = None,
    jobs: int = 1,
    cache: "ResultCache | Path | str | None" = None,
) -> dict[str, tuple[int, int]]:
    """(saved RAM accesses, cycles) per allocator (ablation A3).

    The exact knapsack (KS-RA) maximizes saved accesses; CPA-RA may save
    fewer accesses yet win on cycles — the paper's central claim isolated.
    """
    if not algorithms:
        return {}
    space = ExplorationSpace(
        kernels=(kernel,),
        allocators=algorithms,
        budgets=(budget,),
        latencies=(LatencySpec.from_model(model),),
    )
    records = dict(zip(algorithms, _records(space, jobs, cache)))
    naive = records.get("NO-SR")
    naive_accesses = naive.total_ram_accesses if naive is not None else None
    out: dict[str, tuple[int, int]] = {}
    for algorithm in algorithms:
        record = records[algorithm]
        accesses = record.total_ram_accesses
        saved = (naive_accesses - accesses) if naive_accesses is not None else 0
        out[algorithm] = (saved, record.cycles)
    return out


@dataclass(frozen=True)
class OptGapPoint:
    """One allocator's distance from the certified optimum (study A5).

    ``opt_certified`` is False when OPT-RA's node/time box truncated the
    search; then ``opt_cycles`` is its best anytime incumbent and
    ``opt_lower_bound`` the proven floor, so the heuristic's true gap
    lies in ``[cycles - opt_cycles, cycles - opt_lower_bound]``.
    """

    kernel: str
    budget: int
    allocator: str
    cycles: int
    total_registers: int
    opt_cycles: int
    opt_certified: bool
    opt_lower_bound: int

    @property
    def gap_cycles(self) -> int:
        """Extra cycles over OPT-RA's (possibly anytime) result."""
        return self.cycles - self.opt_cycles

    @property
    def gap_pct(self) -> float:
        """The same gap relative to the optimum, in percent."""
        if self.opt_cycles == 0:
            return 0.0
        return 100.0 * self.gap_cycles / self.opt_cycles


def gap_rows(records: "list[DesignRecord]") -> list[OptGapPoint]:
    """Pair each record with its grid point's OPT-RA record.

    Groups records by everything but the allocator, so one mixed sweep
    (the CLI's ``--allocators ... OPT-RA ...``) yields one gap row per
    (kernel, budget, allocator) cell.  Failed records are skipped —
    a budget below a kernel's mandatory floor is infeasible for every
    allocator including OPT-RA, so no cell loses its yardstick — and a
    cell without an OPT-RA record contributes nothing.
    """
    by_cell: "dict[DesignQuery, list[DesignRecord]]" = {}
    for record in records:
        if not record.ok:
            continue
        by_cell.setdefault(
            replace(record.query, allocator="OPT-RA"), []
        ).append(record)
    points: list[OptGapPoint] = []
    for cell, members in by_cell.items():
        opt = next(
            (r for r in members if r.query.allocator == "OPT-RA"), None
        )
        if opt is None:
            continue
        for record in members:
            points.append(
                OptGapPoint(
                    kernel=record.query.kernel,
                    budget=record.query.budget,
                    allocator=record.query.allocator,
                    cycles=record.cycles,
                    total_registers=record.total_registers,
                    opt_cycles=opt.cycles,
                    opt_certified=opt.certified is not False,
                    opt_lower_bound=(
                        opt.opt_lower_bound
                        if opt.opt_lower_bound is not None
                        else opt.cycles
                    ),
                )
            )
    points.sort(key=lambda p: (p.kernel, p.budget, p.allocator))
    return points


def opt_gap_csv(points: "list[OptGapPoint]") -> str:
    """Render gap points as the committed/CI gap-report CSV."""
    lines = [
        "kernel,budget,allocator,cycles,total_registers,"
        "opt_cycles,opt_certified,opt_lower_bound,gap_cycles,gap_pct"
    ]
    for p in points:
        lines.append(
            f"{p.kernel},{p.budget},{p.allocator},{p.cycles},"
            f"{p.total_registers},{p.opt_cycles},"
            f"{str(p.opt_certified).lower()},{p.opt_lower_bound},"
            f"{p.gap_cycles},{p.gap_pct:.4f}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ResidencyPoint:
    """Misses of each residency policy for one group at one capacity."""

    group: str
    capacity: int
    pinned: int
    lru: int
    opt: int


def residency_study(
    kernel: Kernel, capacities: "list[int] | None" = None
) -> list[ResidencyPoint]:
    """Pinned vs LRU vs Belady misses per reference group (ablation A4).

    Demonstrates why the coverage model uses pinned residency for
    invariant references (LRU thrashes on cyclic sweeps) and Belady for
    windows (LRU dies on strided windows).

    The whole capacity axis of each group is evaluated in one pass per
    policy: LRU misses for every capacity come from a single
    stack-distance histogram (:func:`lru_miss_counts`), and Belady misses
    from one OPT stack walk (:func:`opt_stack_distances`) plus a
    histogram — an access misses exactly the capacities below its
    distance.
    """
    groups = build_groups(kernel)
    grids = kernel.nest.meshgrids()
    points: list[ResidencyPoint] = []
    for group in groups:
        if not group.carries_reuse:
            continue
        stream = np.broadcast_to(
            group.ref.flat_address_grid(grids), kernel.nest.trip_counts()
        ).reshape(-1)
        beta = group.full_registers
        caps = capacities or sorted({1, max(2, beta // 4), max(2, beta // 2), beta})
        caps = [min(capacity, beta) for capacity in caps]
        lru_by_capacity = lru_miss_counts(stream, sorted(set(caps)))
        top = max(caps)
        opt_hits = np.cumsum(
            np.bincount(opt_stack_distances(stream, top), minlength=top + 2)
        )
        for capacity in caps:
            pinned_set = set(np.unique(stream)[:capacity].tolist())
            points.append(
                ResidencyPoint(
                    group=group.name,
                    capacity=capacity,
                    pinned=int(pinned_misses(stream, pinned_set).sum()),
                    lru=lru_by_capacity[capacity],
                    opt=len(stream) - int(opt_hits[capacity]),
                )
            )
    return points
