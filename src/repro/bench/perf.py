"""Tracked microbenchmark harness for the evaluation hot path.

Times the regimes that matter for sweep throughput and writes the
machine-readable ``BENCH_<n>.json`` the repo's perf trajectory tracks:

* **single point** — one representative :class:`DesignQuery`, evaluated
  repeatedly with artifact memoization disabled and with a warm
  :class:`~repro.explore.context.EvalContext` (the floor and ceiling of
  per-point cost);
* **grid** — a Table-1-shaped kernels x allocators x budgets sweep at
  ``jobs=1``, run without a context (the seed evaluator's behaviour),
  with a *cold* context (first sweep of a fresh process) and again with
  the now-*warm* context (resumed / repeated sweeps);
* **trace engine** — the *cold* cost of one point of every
  window-heavy kernel under the array trace engine vs the reference
  residency simulators (``--no-array-trace``), context off, so the
  number isolates the per-kernel analysis bill the array engine
  attacks;
* **budget column** — the *cold* cost of one full budget column (one
  window kernel, every grid budget) per budget vs in one ladder pass,
  at three levels: LRU miss counts (one stack-distance histogram
  answers the whole axis), the window coverage trace (one shared
  capacity-independent plane), and the end-to-end CPA-RA design
  column under a fresh context (``--no-budget-ladder`` off vs on);
* **supervision overhead** — the warm-context grid again, driven by the
  supervised execution plane (deadlines/retries/quarantine bookkeeping,
  the default) vs ``--no-supervise``; the happy-path overhead must stay
  in the noise (<3% locally, gated loosely in CI);
* **imbalance** — a deliberately heterogeneous grid (cheap points, an
  OPT-RA column, and injected ``slow`` faults pinned on one kernel) at
  ``jobs=4``, dispatched statically (``stealing=False``, the old
  plan-then-submit LPT chunks) vs through the work-stealing lease
  queue; the static packer cannot know about the hidden latency, so it
  serializes the slow kernel's chunk on one worker while stealing
  spreads the same points across all four — the headline of the
  dynamic dispatcher (gated by ``--min-steal-speedup``);
* **equivalence** — the no-context and context grids are compared
  record for record, and so are the static and stealing imbalance
  sweeps; a benchmark that got fast by changing answers fails loudly
  (``identical`` must be true).

Run it via ``repro perf`` (``--quick`` for the CI smoke grid,
``--min-speedup X`` / ``--min-trace-speedup X`` /
``--min-steal-speedup X`` to fail below speedup floors).  ``repro perf --compare OLD.json NEW.json`` diffs two emitted
reports metric by metric — host-independent speedup *ratios* gate the
comparison (non-zero exit on a regression beyond ``--threshold``),
absolute seconds print as context.  See ``docs/perf.md``.
"""

from __future__ import annotations

import json
import math
import platform
import time
import warnings

import numpy as np
from dataclasses import dataclass, field
from pathlib import Path

from repro.explore.context import EvalContext
from repro.explore.executor import Executor
from repro.explore.evaluate import evaluate_query
from repro.explore.query import DesignQuery
from repro.explore.results import ResultSet
from repro.explore.space import ExplorationSpace

__all__ = [
    "BENCH_NUMBER",
    "PerfReport",
    "CompareRow",
    "perf_grid",
    "run_perf",
    "render_perf",
    "write_report",
    "compare_reports",
    "render_compare",
]

#: Sequence number of this harness's output file (``BENCH_10.json``).
BENCH_NUMBER = 10

#: The Table-1-shaped reference grid: 4 kernels x 5 allocators x 16
#: budgets = 320 points, matching the acceptance target of the
#: shared-artifact plane (>= 3x at jobs=1 vs --no-context).
GRID_KERNELS = ("fir", "mat", "pat", "bic")
GRID_ALLOCATORS = ("NO-SR", "FR-RA", "PR-RA", "CPA-RA", "KS-RA")
GRID_BUDGETS = tuple(range(4, 36, 2))

#: The CI smoke grid: small enough for a shared runner, same shape.
QUICK_KERNELS = ("fir", "pat")
QUICK_ALLOCATORS = ("FR-RA", "CPA-RA", "KS-RA")
QUICK_BUDGETS = (8, 16, 24, 32)

#: The single-point subject: a mid-ladder CPA-RA point of the running
#: example's kernel family (DFG + coverage + anchor search all active).
SINGLE_POINT = DesignQuery(kernel="pat", allocator="CPA-RA", budget=16)

#: Window-heavy kernels whose cold per-point cost is dominated by the
#: residency simulation — the subjects of the trace-engine comparison.
TRACE_KERNELS = ("fir", "pat", "decfir")
QUICK_TRACE_KERNELS = ("fir", "pat")

#: The imbalance comparison: a heterogeneous mix of cheap allocator
#: columns, an expensive OPT-RA column, and injected ``slow`` faults
#: pinned on the kernel with the *smallest* static prior — the one
#: kernel the kernel-major LPT packer is guaranteed to keep whole in a
#: single chunk, so static dispatch serializes its hidden latency on
#: one worker while the lease queue spreads it across all four.
IMBALANCE_KERNELS = ("fir", "mat", "pat", "bic")
#: Quick mode drops the kernels the packer would pre-split anyway; the
#: min-prior kernel must stay whole for the comparison to mean what it
#: says.
QUICK_IMBALANCE_KERNELS = ("bic", "pat")
IMBALANCE_ALLOCATORS = ("NO-SR", "FR-RA")
IMBALANCE_BUDGETS = (8, 16, 24, 32)
IMBALANCE_JOBS = 4
#: Hidden per-point latency injected on the slow kernel (quick, full).
IMBALANCE_SLOW_SECONDS = (0.25, 0.35)

#: Ratio metrics regress when ``new * threshold < old``; this is the
#: default ``--threshold`` (loose on purpose: ratios wobble with host
#: load even though they cancel absolute speed).
COMPARE_THRESHOLD = 1.5


def perf_grid(quick: bool = False) -> ExplorationSpace:
    """The benchmark's exploration grid (`--quick` for the CI smoke)."""
    if quick:
        return ExplorationSpace(
            kernels=QUICK_KERNELS,
            allocators=QUICK_ALLOCATORS,
            budgets=QUICK_BUDGETS,
        )
    return ExplorationSpace(
        kernels=GRID_KERNELS,
        allocators=GRID_ALLOCATORS,
        budgets=GRID_BUDGETS,
    )


@dataclass(frozen=True)
class PerfReport:
    """One harness run: timings (seconds), speedups, and the verdict."""

    quick: bool
    points: int
    grid_no_context: float
    grid_cold_context: float
    grid_warm_context: float
    single_no_context: float
    single_warm_context: float
    single_repeats: int
    identical: bool
    #: Warm-context grid seconds under the supervised drive loop vs
    #: ``supervise=False`` (0.0 = unmeasured, e.g. an old report).
    grid_warm_supervised: float = 0.0
    grid_warm_unsupervised: float = 0.0
    context_stats: dict[str, int] = field(default_factory=dict)
    #: kernel -> {"reference": seconds, "array": seconds}: cold
    #: single-point evaluation under each trace engine, context off.
    trace_single: "dict[str, dict[str, float]]" = field(default_factory=dict)
    #: kernel -> {"counts_per_budget": s, "counts_ladder": s,
    #: "trace_per_budget": s, "trace_ladder": s, "evaluate_per_budget":
    #: s, "evaluate_ladder": s}: the full budget column per budget vs in
    #: one ladder pass (see :func:`_time_budget_column`).
    budget_column: "dict[str, dict[str, float]]" = field(default_factory=dict)
    #: The heterogeneous-grid dispatch comparison (empty = unmeasured):
    #: ``static_s`` / ``steal_s`` wall seconds plus the grid shape, the
    #: slow-kernel pin, and the stealing run's scheduler counters (see
    #: :func:`_time_imbalance`).
    imbalance: "dict[str, object]" = field(default_factory=dict)

    @property
    def speedup_cold(self) -> float:
        return self.grid_no_context / self.grid_cold_context

    @property
    def speedup_warm(self) -> float:
        return self.grid_no_context / self.grid_warm_context

    @property
    def speedup_single(self) -> float:
        return self.single_no_context / self.single_warm_context

    @property
    def supervision_overhead(self) -> float:
        """Fractional warm-grid slowdown of supervision (0 = unmeasured)."""
        if not self.grid_warm_supervised or not self.grid_warm_unsupervised:
            return 0.0
        return self.grid_warm_supervised / self.grid_warm_unsupervised - 1.0

    def trace_speedup(self, kernel: str) -> float:
        timings = self.trace_single[kernel]
        return timings["reference"] / timings["array"]

    @property
    def best_trace_speedup(self) -> float:
        """The largest per-kernel array-engine speedup (0 when unmeasured)."""
        if not self.trace_single:
            return 0.0
        return max(self.trace_speedup(k) for k in self.trace_single)

    @property
    def steal_speedup(self) -> float:
        """Static / stealing wall time on the imbalance grid (0 unmeasured)."""
        static_s = float(self.imbalance.get("static_s") or 0.0)
        steal_s = float(self.imbalance.get("steal_s") or 0.0)
        if not static_s or not steal_s:
            return 0.0
        return static_s / steal_s

    def column_speedup(self, kernel: str, level: str = "counts") -> float:
        """Per-budget / ladder on one column level (counts, trace, evaluate)."""
        timings = self.budget_column[kernel]
        return timings[f"{level}_per_budget"] / timings[f"{level}_ladder"]

    @property
    def best_column_speedup(self) -> float:
        """The largest per-kernel miss-count ladder speedup (0 unmeasured)."""
        if not self.budget_column:
            return 0.0
        return max(self.column_speedup(k) for k in self.budget_column)

    def to_dict(self) -> dict:
        grid = perf_grid(self.quick)
        return {
            "bench": BENCH_NUMBER,
            "name": "work-stealing dispatch",
            "quick": self.quick,
            "grid": {
                "kernels": list(grid.kernels),
                "allocators": list(grid.allocators),
                "budgets": list(grid.budgets),
                "points": self.points,
            },
            "seconds": {
                "grid_no_context": self.grid_no_context,
                "grid_cold_context": self.grid_cold_context,
                "grid_warm_context": self.grid_warm_context,
                "single_point_no_context": self.single_no_context,
                "single_point_warm_context": self.single_warm_context,
                "grid_warm_supervised": self.grid_warm_supervised,
                "grid_warm_unsupervised": self.grid_warm_unsupervised,
                "imbalance_static": float(
                    self.imbalance.get("static_s") or 0.0
                ),
                "imbalance_steal": float(
                    self.imbalance.get("steal_s") or 0.0
                ),
            },
            "speedup": {
                "grid_cold_vs_no_context": self.speedup_cold,
                "grid_warm_vs_no_context": self.speedup_warm,
                "single_point_warm_vs_no_context": self.speedup_single,
                # ~1.0 when supervision is free; shrinks as its
                # happy-path overhead grows, so the compare gate
                # catches a bookkeeping regression host-independently.
                "supervised_vs_unsupervised": (
                    self.grid_warm_unsupervised / self.grid_warm_supervised
                    if self.grid_warm_supervised else 0.0
                ),
                "steal_vs_static_imbalance": self.steal_speedup,
            },
            "imbalance": dict(self.imbalance, speedup=self.steal_speedup),
            "trace_single": {
                kernel: {
                    "reference_s": timings["reference"],
                    "array_s": timings["array"],
                    "speedup": self.trace_speedup(kernel),
                }
                for kernel, timings in self.trace_single.items()
            },
            "budget_column": {
                kernel: {
                    "counts_per_budget_s": timings["counts_per_budget"],
                    "counts_ladder_s": timings["counts_ladder"],
                    "trace_per_budget_s": timings["trace_per_budget"],
                    "trace_ladder_s": timings["trace_ladder"],
                    "trace_speedup": self.column_speedup(kernel, "trace"),
                    "evaluate_per_budget_s": timings["evaluate_per_budget"],
                    "evaluate_ladder_s": timings["evaluate_ladder"],
                    "evaluate_speedup": self.column_speedup(
                        kernel, "evaluate"
                    ),
                    "speedup": self.column_speedup(kernel),
                }
                for kernel, timings in self.budget_column.items()
            },
            "single_repeats": self.single_repeats,
            "identical": self.identical,
            "context_stats": dict(self.context_stats),
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "system": platform.system(),
            },
        }


def _time_grid(
    space: ExplorationSpace,
    context: "bool | EvalContext",
    supervise: bool = True,
) -> "tuple[float, ResultSet]":
    started = time.perf_counter()
    results = Executor(jobs=1, context=context, supervise=supervise).run(space)
    return time.perf_counter() - started, results


def _time_single(
    query: DesignQuery,
    context: "bool | EvalContext",
    repeats: int,
    trace_engine: str = "array",
) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        evaluate_query(query, context=context, trace_engine=trace_engine)
        best = min(best, time.perf_counter() - started)
    return best


def _time_trace_engines(
    kernels: "tuple[str, ...]", repeats: int
) -> "dict[str, dict[str, float]]":
    """Cold single-point seconds per trace engine, per window kernel.

    Context off, so every repeat pays the full per-kernel analysis —
    the cost the array engine exists to cut.  One throwaway evaluation
    first warms the process kernel memo both engines share, so neither
    engine is charged for kernel construction.
    """
    timings: dict[str, dict[str, float]] = {}
    for kernel in kernels:
        query = DesignQuery(kernel=kernel, allocator="CPA-RA", budget=16)
        evaluate_query(query, context=False)
        timings[kernel] = {
            engine: _time_single(
                query, False, repeats, trace_engine=engine
            )
            for engine in ("reference", "array")
        }
    return timings


def _window_stream(kernel_name: str) -> "tuple[object, object, np.ndarray]":
    """(kernel, window group, flat access stream) of one window kernel."""
    from repro.analysis.groups import build_groups
    from repro.scalar.coverage import GroupCoverage

    kernel = DesignQuery(
        kernel=kernel_name, allocator="NO-SR", budget=1
    ).build_kernel()
    groups = build_groups(kernel)
    group = next(
        g for g in groups if GroupCoverage(kernel, g).kind == "window"
    )
    grids = kernel.nest.meshgrids()
    stream = np.broadcast_to(
        group.ref.flat_address_grid(grids), kernel.nest.trip_counts()
    ).reshape(-1)
    return kernel, group, stream


def _time_budget_column(
    kernels: "tuple[str, ...]", budgets: "tuple[int, ...]", repeats: int
) -> "dict[str, dict[str, float]]":
    """Cold full-budget-column seconds, per budget vs ladder, per kernel.

    Three levels per window kernel, every one a real consumer path and
    bit-identical across modes:

    * ``counts`` — LRU miss counts of the window stream at every grid
      budget: one :func:`~repro.sim.residency.lru_misses` replay per
      budget vs a single stack-distance histogram + suffix-sum pass
      (:func:`~repro.sim.residency.lru_miss_counts`), the
      ``residency_study`` path;
    * ``trace`` — the window coverage result at every budget: a fresh
      :class:`~repro.scalar.coverage.GroupCoverage` per mode, ladder
      off (one Belady trace per budget) vs on (one stack-distance pass
      for the whole column, a threshold comparison per budget);
    * ``evaluate`` — the end-to-end CPA-RA design column under a fresh
      :class:`EvalContext` per timing (cold in the sense that matters:
      no coverage or trace plane carried over), with a throwaway
      evaluation first warming the process kernel memo so neither mode
      is charged for kernel construction.
    """
    from repro.scalar.coverage import GroupCoverage
    from repro.sim.residency import lru_miss_counts, lru_misses

    timings: dict[str, dict[str, float]] = {}
    for kernel_name in kernels:
        kernel, group, stream = _window_stream(kernel_name)
        per_mode: dict[str, float] = {}

        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for budget in budgets:
                lru_misses(stream, budget).sum()
            best = min(best, time.perf_counter() - started)
        per_mode["counts_per_budget"] = best
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            lru_miss_counts(stream, budgets)
            best = min(best, time.perf_counter() - started)
        per_mode["counts_ladder"] = best

        for mode, ladder in (("trace_per_budget", False), ("trace_ladder", True)):
            best = float("inf")
            for _ in range(repeats):
                coverage = GroupCoverage(kernel, group, ladder=ladder)
                started = time.perf_counter()
                for budget in budgets:
                    coverage.result(budget)
                best = min(best, time.perf_counter() - started)
            per_mode[mode] = best

        queries = [
            DesignQuery(kernel=kernel_name, allocator="CPA-RA", budget=budget)
            for budget in budgets
        ]
        evaluate_query(queries[0], context=False)
        for mode, ladder in (
            ("evaluate_per_budget", False),
            ("evaluate_ladder", True),
        ):
            best = float("inf")
            for _ in range(repeats):
                ctx = EvalContext()
                started = time.perf_counter()
                for query in queries:
                    evaluate_query(query, context=ctx, ladder=ladder)
                best = min(best, time.perf_counter() - started)
            per_mode[mode] = best
        timings[kernel_name] = per_mode
    return timings


def _imbalance_queries(quick: bool) -> "list[DesignQuery]":
    """The heterogeneous dispatch-comparison grid, in query order."""
    kernels = QUICK_IMBALANCE_KERNELS if quick else IMBALANCE_KERNELS
    queries = [
        DesignQuery(kernel=kernel, allocator=allocator, budget=budget)
        for kernel in kernels
        for allocator in IMBALANCE_ALLOCATORS
        for budget in IMBALANCE_BUDGETS
    ]
    opt_kernels = ("pat",) if quick else ("pat", "mat")
    queries += [
        DesignQuery(kernel=kernel, allocator="OPT-RA", budget=budget)
        for kernel in opt_kernels
        for budget in (8, 16)
    ]
    return queries


def _time_imbalance(quick: bool) -> "dict[str, object]":
    """Static LPT chunks vs the work-stealing lease queue at ``jobs=4``.

    The grid mixes cheap allocator columns with an OPT-RA column, then
    pins a ``slow`` fault on *every* point of the kernel with the
    smallest static-prior group cost — the one kernel the kernel-major
    packer keeps whole in a single chunk (its predicted share is far
    below one chunk's ideal).  The cost model cannot see the injected
    latency, which is the point: static dispatch commits that kernel to
    one worker and serializes ``slow_points x slow_seconds`` behind it,
    while the lease queue hands the same points out one at a time to
    whichever worker frees up.  Both sweeps run supervised, cache-less
    and context-on; the returned ``identical`` verdict compares them
    record for record.
    """
    from repro.explore.faults import FaultPlan
    from repro.explore.schedule import static_cost

    queries = _imbalance_queries(quick)
    group_cost: dict[str, float] = {}
    for query in queries:
        group_cost[query.kernel] = (
            group_cost.get(query.kernel, 0.0) + static_cost(query)
        )
    slow_kernel = min(group_cost.items(), key=lambda kv: (kv[1], kv[0]))[0]
    slow_queries = [q for q in queries if q.kernel == slow_kernel]
    slow_seconds = IMBALANCE_SLOW_SECONDS[0] if quick else (
        IMBALANCE_SLOW_SECONDS[1]
    )
    plan = FaultPlan.targeting(
        "slow", slow_queries, slow_seconds=slow_seconds
    )

    def sweep(stealing: bool) -> "tuple[float, ResultSet]":
        executor = Executor(
            jobs=IMBALANCE_JOBS, context=True, supervise=True,
            faults=plan, stealing=stealing,
        )
        started = time.perf_counter()
        results = executor.run(list(queries))
        return time.perf_counter() - started, results

    static_seconds, static = sweep(stealing=False)
    steal_seconds, stolen = sweep(stealing=True)
    stats = stolen.stats
    return {
        "jobs": IMBALANCE_JOBS,
        "points": len(queries),
        "kernels": sorted(group_cost),
        "slow_kernel": slow_kernel,
        "slow_points": len(slow_queries),
        "slow_seconds": slow_seconds,
        "static_s": static_seconds,
        "steal_s": steal_seconds,
        "leases": stats.leases if stats is not None else 0,
        "steals": stats.steals if stats is not None else 0,
        "affinity_hits": stats.affinity_hits if stats is not None else 0,
        "identical": tuple(static) == tuple(stolen),
    }


def run_perf(quick: bool = False, single_repeats: int = 5) -> PerfReport:
    """Run the full harness at ``jobs=1``; pure measurement, no I/O.

    Context runs use explicit fresh :class:`EvalContext` instances (never
    the process-global one), so cold really means cold even inside a
    long-lived process, and the no-context baseline is never polluted by
    artifacts another phase built.
    """
    space = perf_grid(quick)

    base_seconds, base = _time_grid(space, context=False)
    ctx = EvalContext()
    cold_seconds, cold = _time_grid(space, context=ctx)
    warm_seconds, warm = _time_grid(space, context=ctx)
    identical = tuple(base) == tuple(cold) and tuple(base) == tuple(warm)

    # Supervision overhead: the same warm grid, supervised (the
    # default drive loop) vs bare, best-of so one scheduler hiccup
    # cannot fake a regression.  Also part of the equivalence verdict:
    # supervision must not change a single record.
    sup_seconds = unsup_seconds = float("inf")
    for _ in range(min(single_repeats, 3)):
        seconds, supervised = _time_grid(space, context=ctx, supervise=True)
        sup_seconds = min(sup_seconds, seconds)
        identical = identical and tuple(base) == tuple(supervised)
        seconds, bare = _time_grid(space, context=ctx, supervise=False)
        unsup_seconds = min(unsup_seconds, seconds)
        identical = identical and tuple(base) == tuple(bare)

    single_base = _time_single(SINGLE_POINT, False, single_repeats)
    single_ctx = EvalContext()
    # Prime, then time: every repeat after the first runs warm anyway.
    evaluate_query(SINGLE_POINT, context=single_ctx)
    single_warm = _time_single(SINGLE_POINT, single_ctx, single_repeats)

    trace_single = _time_trace_engines(
        QUICK_TRACE_KERNELS if quick else TRACE_KERNELS, single_repeats
    )
    # The column benchmark always measures the FULL budget axis — its
    # ratios must be comparable between quick and full reports (the CI
    # smoke gates against the committed full run) — and a column is
    # ~|budgets| points per timing, so a couple of repeats keep the
    # harness's runtime sane without losing the best-of floor.
    budget_column = _time_budget_column(
        QUICK_TRACE_KERNELS if quick else TRACE_KERNELS,
        GRID_BUDGETS,
        min(single_repeats, 2),
    )
    imbalance = _time_imbalance(quick)
    identical = identical and bool(imbalance.pop("identical"))

    return PerfReport(
        quick=quick,
        points=space.size,
        grid_no_context=base_seconds,
        grid_cold_context=cold_seconds,
        grid_warm_context=warm_seconds,
        single_no_context=single_base,
        single_warm_context=single_warm,
        single_repeats=single_repeats,
        identical=identical,
        grid_warm_supervised=sup_seconds,
        grid_warm_unsupervised=unsup_seconds,
        context_stats=ctx.stats.as_dict(),
        trace_single=trace_single,
        budget_column=budget_column,
        imbalance=imbalance,
    )


def render_perf(report: PerfReport) -> str:
    """Human-readable summary of one harness run."""
    lines = [
        f"perf: {report.points}-point grid at jobs=1"
        + (" (quick)" if report.quick else ""),
        f"  no-context    {report.grid_no_context:8.2f}s   (baseline)",
        f"  cold context  {report.grid_cold_context:8.2f}s   "
        f"{report.speedup_cold:5.2f}x",
        f"  warm context  {report.grid_warm_context:8.2f}s   "
        f"{report.speedup_warm:5.2f}x",
        f"  single point  {report.single_no_context * 1e3:8.2f}ms -> "
        f"{report.single_warm_context * 1e3:.2f}ms warm "
        f"({report.speedup_single:.2f}x, best of {report.single_repeats})",
    ]
    if report.grid_warm_supervised:
        lines.append(
            f"  supervision   {report.grid_warm_supervised:8.2f}s vs "
            f"{report.grid_warm_unsupervised:.2f}s bare "
            f"({report.supervision_overhead:+.1%} overhead, warm grid)"
        )
    for kernel, timings in report.trace_single.items():
        lines.append(
            f"  trace {kernel:<7} {timings['reference'] * 1e3:8.2f}ms -> "
            f"{timings['array'] * 1e3:.2f}ms array "
            f"({report.trace_speedup(kernel):.2f}x cold, context off)"
        )
    for kernel, timings in report.budget_column.items():
        lines.append(
            f"  column {kernel:<6} counts "
            f"{timings['counts_per_budget'] * 1e3:8.2f}ms -> "
            f"{timings['counts_ladder'] * 1e3:.2f}ms "
            f"({report.column_speedup(kernel):.2f}x), trace "
            f"{report.column_speedup(kernel, 'trace'):.2f}x, evaluate "
            f"{report.column_speedup(kernel, 'evaluate'):.2f}x "
            f"(full budget axis, one ladder pass vs per budget)"
        )
    if report.imbalance:
        lines.append(
            f"  imbalance     {report.imbalance['static_s']:8.2f}s static -> "
            f"{report.imbalance['steal_s']:.2f}s stealing "
            f"({report.steal_speedup:.2f}x at jobs="
            f"{report.imbalance['jobs']}, {report.imbalance['slow_points']} "
            f"slow points pinned on {report.imbalance['slow_kernel']})"
        )
    lines.append(f"  records bit-identical: {report.identical}")
    return "\n".join(lines)


def write_report(report: PerfReport, out: "Path | str") -> Path:
    """Write the JSON document the perf trajectory tracks."""
    path = Path(out)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


# -- report comparison ---------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    """One metric of two reports side by side.

    ``kind`` is ``"ratio"`` for speedups (bigger is better) or
    ``"seconds"`` for absolute timings (smaller is better); ``gates``
    says whether this row can fail the comparison (see
    :func:`compare_reports` for the rule) — non-gating rows print as
    information only.
    """

    metric: str
    old: float
    new: float
    kind: str
    gates: bool = True

    @property
    def change(self) -> float:
        """new/old for ratios, old/new for seconds — both >1 = better."""
        if self.kind == "ratio":
            return self.new / self.old if self.old else float("inf")
        return self.old / self.new if self.new else float("inf")

    def regressed(self, threshold: float) -> bool:
        return self.gates and self.change * threshold < 1.0


def _flat_ratios(doc: dict) -> "dict[str, float]":
    """Every gating ratio metric of one report document, flattened."""
    ratios = {
        f"speedup.{key}": float(value)
        for key, value in (doc.get("speedup") or {}).items()
    }
    for section in ("trace_single", "budget_column"):
        for kernel, timings in (doc.get(section) or {}).items():
            for key, value in timings.items():
                if key == "speedup" or key.endswith("_speedup"):
                    ratios[f"{section}.{kernel}.{key}"] = float(value)
    return ratios


def compare_reports(
    old: dict, new: dict, threshold: float = COMPARE_THRESHOLD
) -> "tuple[list[CompareRow], list[CompareRow]]":
    """Diff two report documents; returns ``(rows, regressions)``.

    Ratio metrics present in *both* documents are compared; a ratio
    only the *new* report has (the harness grows new sections over
    time — ``BENCH_4.json`` has no trace-engine block, ``BENCH_5.json``
    no budget-column block) still prints, as a non-gating info row with
    no old value.  A metric regresses when the new report is more than
    ``threshold`` times worse; which metrics *gate* depends on whether
    the two reports measured the same grid (identical ``grid`` blocks):

    * **same grid** — the committed ``BENCH_<n>.json`` trajectory:
      absolute **seconds** gate (the honest comparison on one host) and
      the speedup ratios print as information, because a ratio deflates
      whenever its *baseline* gets faster — exactly what a perf PR
      does — without anything having regressed;
    * **different grids** (e.g. a ``--quick`` CI run vs the committed
      full run): only the host-independent **ratio** metrics gate, and
      the threshold should stay loose — grid shape shifts ratios too.

    A report with no ``grid`` block at all cannot claim to share a grid
    with anything — two grid-less reports may come from unrelated
    hosts, and gating absolute seconds across hosts is meaningless.
    Missing grids therefore fall back to ratio-only gating, with a
    warning naming the defect.
    """
    rows: list[CompareRow] = []
    old_grid, new_grid = old.get("grid"), new.get("grid")
    if old_grid is None or new_grid is None:
        which = " and ".join(
            label
            for label, grid in (("old", old_grid), ("new", new_grid))
            if grid is None
        )
        warnings.warn(
            f"perf compare: {which} report missing its 'grid' block; "
            "cannot prove the reports measured the same grid on the "
            "same host — absolute seconds will not gate (ratio-only "
            "comparison)",
            stacklevel=2,
        )
        same_grid = False
    else:
        same_grid = old_grid == new_grid
    old_ratios, new_ratios = _flat_ratios(old), _flat_ratios(new)
    for metric in sorted(old_ratios.keys() & new_ratios.keys()):
        rows.append(
            CompareRow(
                metric, old_ratios[metric], new_ratios[metric], "ratio",
                gates=not same_grid,
            )
        )
    for metric in sorted(new_ratios.keys() - old_ratios.keys()):
        # New-only sections (harness growth) cannot regress anything,
        # but their ratios are the headline of a perf PR — show them.
        rows.append(
            CompareRow(
                metric, float("nan"), new_ratios[metric], "ratio",
                gates=False,
            )
        )
    old_seconds = old.get("seconds") or {}
    new_seconds = new.get("seconds") or {}
    for key in sorted(old_seconds.keys() & new_seconds.keys()):
        rows.append(
            CompareRow(
                f"seconds.{key}",
                float(old_seconds[key]),
                float(new_seconds[key]),
                "seconds",
                gates=same_grid,
            )
        )
    regressions = [row for row in rows if row.regressed(threshold)]
    return rows, regressions


def render_compare(
    rows: "list[CompareRow]",
    old_label: str,
    new_label: str,
    threshold: float = COMPARE_THRESHOLD,
) -> str:
    """Human-readable regression/speedup table for two reports.

    Verdicts are derived from ``threshold`` directly, so they cannot
    disagree with the threshold printed in the title.
    """
    from repro.bench.formatting import render_table

    regressions = [row for row in rows if row.regressed(threshold)]
    body = []
    for row in rows:
        verdict = "REGRESSED" if row.regressed(threshold) else (
            "ok" if row.gates else "info"
        )
        # New-only metrics carry NaN for the missing old value; render
        # them as '-' (and skip the meaningless change factor).
        new_only = math.isnan(row.old)
        body.append([
            row.metric,
            "-" if new_only else f"{row.old:.4g}",
            f"{row.new:.4g}",
            "-" if new_only else f"{row.change:.2f}x",
            verdict,
        ])
    table = render_table(
        ["Metric", old_label, new_label, "Change", "Verdict"],
        body,
        title=f"perf compare (threshold {threshold:.2f}x on gated metrics)",
    )
    if regressions:
        names = ", ".join(row.metric for row in regressions)
        return table + f"\nperf: FAIL — regressed beyond {threshold:.2f}x: {names}"
    return table + "\nperf: no regressions on gated metrics"
