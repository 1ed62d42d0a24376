"""The shared-artifact evaluation plane: equivalence, memos, chunking.

The contract under test is the one the perf work stands on: evaluation
with an :class:`EvalContext` (shared DFGs, coverage structures, pattern
makespans, critical graphs, knapsack tables, whole cycle reports) is
**bit-identical** to evaluation without one, across the whole grid shape
the paper's experiments use — while the memos actually hit, the
kernel-major chunk planner keeps sub-grids together, and the LRU bound
holds.
"""

import dataclasses

import pytest

from repro.core.pipeline import allocator_by_name
from repro.explore import (
    DesignQuery,
    EvalContext,
    ExplorationSpace,
    Executor,
    plan_chunks_by_kernel,
    run_queries,
)
from repro.explore.context import (
    DEFAULT_KERNEL_MEMO,
    process_context,
    reset_process_context,
    resolve_context,
)
from repro.explore.evaluate import evaluate_query
from repro.kernels.registry import KERNEL_FACTORIES


GRID = ExplorationSpace(
    kernels=tuple(sorted(KERNEL_FACTORIES)),
    allocators=("NO-SR", "FR-RA", "PR-RA", "CPA-RA", "KS-RA"),
    budgets=(4, 12, 64),
)


def _assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        # Dataclass equality already excludes bookkeeping (seconds,
        # stages); compare field-by-field for a readable failure.
        for f in dataclasses.fields(type(a)):
            if not f.compare:
                continue
            assert getattr(a, f.name) == getattr(b, f.name), (
                f"{a.query.describe()}: field {f.name} diverged"
            )


class TestGridEquivalence:
    def test_full_registered_grid_bit_identical(self):
        """Every kernel x allocator x budget point: context == no-context.

        The 4-register budget is deliberately below several kernels'
        mandatory floor, so failed records are part of the equivalence
        too.
        """
        reference = Executor(jobs=1, context=False).run(GRID)
        ctx = EvalContext()
        contexted = Executor(jobs=1, context=ctx).run(GRID)
        rerun = Executor(jobs=1, context=ctx).run(GRID)  # fully warm
        _assert_records_identical(tuple(reference), tuple(contexted))
        _assert_records_identical(tuple(reference), tuple(rerun))
        # The plane must actually be shared, not silently bypassed.
        assert ctx.stats.kernel_hits > 0
        assert ctx.stats.coverage_hits > 0
        # Counts price repeated patterns through the cost table (the
        # schedule memo only sees each table's first sighting).
        assert ctx.stats.cost_hits > 0
        assert ctx.stats.cycles_hits > 0
        assert ctx.stats.critical_hits > 0
        assert ctx.stats.knapsack_hits > 0

    def test_unbatched_grid_bit_identical(self):
        """The context composes with the unbatched reference path too."""
        space = ExplorationSpace(
            kernels=("fir", "pat"), allocators=("CPA-RA", "KS-RA"),
            budgets=(8, 24),
        )
        reference = Executor(jobs=1, batch=False, context=False).run(space)
        contexted = Executor(jobs=1, batch=False, context=EvalContext()).run(
            space
        )
        _assert_records_identical(tuple(reference), tuple(contexted))

    def test_parallel_context_matches_inline(self):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("FR-RA", "CPA-RA"), budgets=(8, 16),
        )
        inline = Executor(jobs=1, context=True).run(space)
        pooled = Executor(jobs=2, context=True).run(space)
        _assert_records_identical(tuple(inline), tuple(pooled))

    def test_cycle_report_memo_is_batch_keyed(self):
        """A batched report must never answer an unbatched count."""
        ctx = EvalContext()
        query = DesignQuery(kernel="fir", allocator="CPA-RA", budget=16)
        evaluate_query(query, batch=True, context=ctx)
        misses_before = ctx.stats.cycles_misses
        evaluate_query(query, batch=False, context=ctx)
        # The unbatched pass re-counts (same results, different path):
        # its counts are memo misses, never answered by batched reports.
        assert ctx.stats.cycles_misses > misses_before


class TestForeignArtifactSafety:
    def test_cycle_report_memo_declines_foreign_dfg(self):
        """A caller-supplied DFG neither poisons nor reads the memo."""
        from repro.core.pipeline import allocator_by_name
        from repro.dfg.build import build_dfg
        from repro.dfg.latency import LatencyModel
        from repro.sim.cycles import count_cycles

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)
        allocation = allocator_by_name("FR-RA").allocate(kernel, 16, groups)
        model = LatencyModel.realistic(ram_latency=2)

        foreign_dfg = build_dfg(kernel, groups)  # equal, not canonical
        foreign = count_cycles(
            kernel, groups, allocation, model, dfg=foreign_dfg, context=ctx
        )
        canonical = count_cycles(
            kernel, groups, allocation, model, context=ctx
        )
        again = count_cycles(kernel, groups, allocation, model, context=ctx)
        assert foreign == canonical == again
        # The foreign-DFG count was never stored: the canonical count
        # missed, and only the canonical repeat hit.
        assert ctx.stats.cycles_misses == 1
        assert ctx.stats.cycles_hits == 1


class TestAllocatorArtifactReuse:
    def test_ksra_dp_table_shared_across_budgets(self):
        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("mat", None)
        allocator = allocator_by_name("KS-RA")
        plain = [
            allocator_by_name("KS-RA").allocate(kernel, budget, groups)
            for budget in range(6, 40, 2)
        ]
        shared = [
            allocator.allocate(kernel, budget, groups, context=ctx)
            for budget in range(6, 40, 2)
        ]
        assert plain == shared
        # One DP solve (at the all-items capacity) serves the whole
        # ascending ladder.
        assert ctx.stats.knapsack_misses == 1
        assert ctx.stats.knapsack_hits == len(plain) - 1

    def test_cpara_critical_graphs_shared_across_budgets(self):
        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("pat", None)
        allocator = allocator_by_name("CPA-RA")
        budgets = range(6, 30, 2)
        plain = [
            allocator_by_name("CPA-RA").allocate(kernel, budget, groups)
            for budget in budgets
        ]
        shared = [
            allocator.allocate(kernel, budget, groups, context=ctx)
            for budget in budgets
        ]
        assert plain == shared
        assert ctx.stats.critical_hits > 0
        assert ctx.stats.dfg_hits > 0


class TestContextBookkeeping:
    def test_kernel_memo_lru_bound(self):
        ctx = EvalContext(kernel_memo_size=2)
        for name in ("fir", "mat", "pat"):
            ctx.kernel_and_groups(name, None)
        assert len(ctx._bundles) == 2
        # "fir" was evicted: touching it again is a miss.
        misses = ctx.stats.kernel_misses
        ctx.kernel_and_groups("fir", None)
        assert ctx.stats.kernel_misses == misses + 1

    def test_kernel_memo_size_validated(self):
        with pytest.raises(ValueError):
            EvalContext(kernel_memo_size=0)
        assert DEFAULT_KERNEL_MEMO >= 1

    def test_resolve_context(self):
        assert resolve_context(False) is None
        assert resolve_context(None) is None
        assert resolve_context(True) is process_context()
        ctx = EvalContext()
        assert resolve_context(ctx) is ctx

    def test_reset_process_context(self):
        old = process_context()
        fresh = reset_process_context(kernel_memo_size=3)
        try:
            assert process_context() is fresh
            assert fresh is not old
            assert fresh.kernel_memo_size == 3
        finally:
            reset_process_context()

    def test_foreign_groups_decline_memoization(self):
        """Artifact APIs never mix memos across inconsistent groupings."""
        from repro.analysis.groups import build_groups

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)
        other_groups = build_groups(kernel)  # equal, different identity
        assert other_groups is not groups
        foreign = ctx.coverages(kernel, other_groups, batch=True)
        canonical = ctx.coverages(kernel, groups, batch=True)
        assert foreign is not canonical
        assert ctx.coverages(kernel, groups, batch=True) is canonical

    def test_stage_profile_aggregated(self):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("CPA-RA",), budgets=(8, 16),
        )
        results = Executor(jobs=1).run(space)
        stages = results.stats.stage_seconds
        for key in ("kernel", "alloc", "dfg_schedule", "cycles", "other"):
            assert key in stages and stages[key] >= 0.0
        text = results.stats.profile()
        assert "cycle count" in text and "allocation" in text

    def test_run_queries_context_passthrough(self):
        queries = [DesignQuery(kernel="fir", allocator="FR-RA", budget=8)]
        with_ctx = run_queries(queries, context=EvalContext())
        without = run_queries(queries, context=False)
        _assert_records_identical(tuple(with_ctx), tuple(without))


class TestKernelMajorChunking:
    @staticmethod
    def _queries(spec):
        """[(kernel, cost)] -> query-shaped items with a cost lookup."""
        items = []
        costs = {}
        for kernel, cost in spec:
            index = len(items)
            items.append((index, kernel))
            costs[index] = cost
        return items, lambda item: costs[item[0]]

    def test_single_kernel_splits_for_parallelism(self):
        items, cost = self._queries([("fir", 1.0)] * 8)
        chunks = plan_chunks_by_kernel(
            items, cost, bins=4, key=lambda item: item[1]
        )
        assert len(chunks) == 4
        assert sorted(i for chunk in chunks for i, _ in chunk) == list(
            range(8)
        )

    def test_kernels_stay_whole_when_they_fit(self):
        spec = [("a", 1.0)] * 4 + [("b", 1.0)] * 4 + [("c", 1.0)] * 4
        items, cost = self._queries(spec)
        chunks = plan_chunks_by_kernel(
            items, cost, bins=3, key=lambda item: item[1]
        )
        assert len(chunks) == 3
        for chunk in chunks:
            assert len({kernel for _, kernel in chunk}) == 1

    def test_small_kernels_merge_lpt_style(self):
        """Kernels that cannot fill a chunk share one (plain-LPT fallback)."""
        spec = [("big", 4.0)] * 4 + [("s1", 0.5), ("s2", 0.5)]
        items, cost = self._queries(spec)
        chunks = plan_chunks_by_kernel(
            items, cost, bins=2, key=lambda item: item[1]
        )
        assert sorted(i for chunk in chunks for i, _ in chunk) == list(
            range(len(spec))
        )
        # The small kernels do not fill a chunk of their own: plain-LPT
        # fallback merges each into a chunk another kernel occupies.
        assert len(chunks) == 2
        for small in ("s1", "s2"):
            (chunk,) = [
                c for c in chunks if small in {kernel for _, kernel in c}
            ]
            assert {kernel for _, kernel in chunk} != {small}

    def test_deterministic(self):
        spec = [("a", 2.0), ("b", 1.0)] * 6
        items, cost = self._queries(spec)
        first = plan_chunks_by_kernel(
            items, cost, bins=3, key=lambda item: item[1]
        )
        second = plan_chunks_by_kernel(
            items, cost, bins=3, key=lambda item: item[1]
        )
        assert first == second

    def test_executor_plans_kernel_major_with_context(self):
        space = ExplorationSpace(
            kernels=("fir", "pat"), allocators=("FR-RA", "CPA-RA"),
            budgets=(8, 16, 24),
        )
        pending = list(enumerate(space.expand()))
        executor = Executor(jobs=2, context=True)
        chunks = executor._plan(pending, timings=None)
        # Every chunk is a concatenation of whole single-kernel runs:
        # within a chunk, each kernel appears in one contiguous block.
        for chunk in chunks:
            seen = []
            for _, query in chunk:
                if not seen or seen[-1] != query.kernel:
                    assert query.kernel not in seen
                    seen.append(query.kernel)


class TestStatsExactAccounting:
    """The stats counters are an auditable ledger: a scripted call
    sequence must produce exactly the hits and misses it implies."""

    def test_direct_memo_sequence(self):
        from repro.dfg.latency import LatencyModel

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)

        shared = ctx.coverages(kernel)
        assert ctx.coverages(kernel) is shared
        assert (ctx.stats.coverage_misses, ctx.stats.coverage_hits) == (1, 1)
        # A different ladder flag is a different key, not a hit.
        ctx.coverages(kernel, ladder=False)
        assert (ctx.stats.coverage_misses, ctx.stats.coverage_hits) == (2, 1)

        dfg = ctx.dfg(kernel)
        assert ctx.dfg(kernel) is dfg
        assert (ctx.stats.dfg_misses, ctx.stats.dfg_hits) == (1, 1)

        model = LatencyModel.realistic(ram_latency=2)
        costs = ctx.pattern_costs(kernel, groups, dfg, model, 1, 1)
        assert ctx.pattern_costs(kernel, groups, dfg, model, 1, 1) is costs
        first = costs[0]
        assert costs[0] == first
        assert (ctx.stats.cost_misses, ctx.stats.cost_hits) == (1, 1)
        # A different overhead is a different table, not a hit.
        assert ctx.pattern_costs(kernel, groups, dfg, model, 1, 0) is not costs

        params = ("fp", 1, 1, True, "array", True)
        entry = {"budget": 16, "total": 9, "registers": (), "cycles": 1}
        assert ctx.optra_lookup(kernel, groups, params, 16) is None
        ctx.optra_store(kernel, groups, params, entry)
        # Certified at 16 with total 9: answers every budget in [9, 16].
        assert ctx.optra_lookup(kernel, groups, params, 16) == entry
        assert ctx.optra_lookup(kernel, groups, params, 9) == entry
        assert ctx.optra_lookup(kernel, groups, params, 8) is None
        assert (ctx.stats.optra_misses, ctx.stats.optra_hits) == (2, 2)

    def test_optra_query_sequence(self):
        """OPT-RA at budgets (16, 16, 15, 8): the 16-budget optimum is
        certified with total 15, so the repeat and the 15-budget query
        answer from the memo while 8 falls below the certified interval
        and recomputes.  Every counter is pinned — the evaluation plane
        is deterministic, so this ledger is too.

        Pattern values are priced through the context's cost table,
        which replaced the per-pattern schedule memo: ``cost_misses``
        are the 8 distinct values, each scheduled once (formerly
        ``schedule_misses``), and every later sighting is one of the
        ``cost_hits`` (formerly 899 ``schedule_hits``; there are more
        now because every anchor combination is priced on the shared
        base instead of being answered by a whole-report memo hit).
        The anchor search no longer
        counts each combination through the report memo: a design
        point with anchor candidates makes one lookup under its
        best-anchor key, so ``cycles_hits`` fell from 39 to 20.
        The winner's report is built from the classification the
        search already made instead of a second ``count_cycles``: each
        of the 91 searches drops one report lookup under the winning
        anchors (``cycles_misses`` 183 -> 92; none of those lookups
        ever hit) and one re-pricing of the winner's pattern values
        (``cost_hits`` 1335 -> 899)."""
        ctx = EvalContext()
        for budget in (16, 16, 15, 8):
            record = evaluate_query(
                DesignQuery(kernel="fir", allocator="OPT-RA", budget=budget),
                context=ctx,
            )
            assert record.error is None
        assert ctx.stats.as_dict() == {
            "kernel_hits": 3, "kernel_misses": 1,
            "dfg_hits": 7, "dfg_misses": 1,
            "coverage_hits": 5, "coverage_misses": 1,
            "critical_hits": 1, "critical_misses": 1,
            "knapsack_hits": 1, "knapsack_misses": 1,
            "cost_hits": 899, "cost_misses": 8,
            "cycles_hits": 20, "cycles_misses": 92,
            "optra_hits": 2, "optra_misses": 2,
        }
