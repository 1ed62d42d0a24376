"""The shared-artifact evaluation plane: equivalence and memos.

The contract under test is the one the perf work stands on: evaluation
on a warm :class:`EvalContext` (shared DFGs, coverage structures,
pattern makespans, critical graphs, knapsack tables, whole cycle
reports) is **bit-identical** to evaluation on a fresh one, across the
whole grid shape the paper's experiments use — while the memos actually
hit, foreign artifacts never enter them, and the LRU bound holds.
"""

import dataclasses

import pytest

from repro.core.pipeline import allocator_by_name
from repro.explore import (
    DesignQuery,
    EvalContext,
    ExplorationSpace,
    Executor,
)
from repro.explore.context import (
    DEFAULT_KERNEL_MEMO,
    process_context,
    reset_process_context,
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
        """Every kernel x allocator x budget point: a shared context
        answers exactly what a fresh context per point computes.

        The 4-register budget is deliberately below several kernels'
        mandatory floor, so failed records are part of the equivalence
        too.
        """
        reference = [
            evaluate_query(query, context=EvalContext())
            for query in GRID.expand()
        ]
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

    def test_parallel_context_matches_inline(self):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("FR-RA", "CPA-RA"), budgets=(8, 16),
        )
        inline = Executor(jobs=1, context=EvalContext()).run(space)
        pooled = Executor(jobs=2).run(space)
        _assert_records_identical(tuple(inline), tuple(pooled))


class TestStandaloneEntries:
    @pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
    def test_evaluate_kernel_shares_one_context(self, name, monkeypatch):
        """``evaluate_kernel`` runs every allocator on one context, and
        each design is bit-identical to a per-algorithm ``allocate`` +
        ``build_design`` on fresh contexts."""
        import repro.explore.context as context_module
        from repro.analysis.groups import build_groups
        from repro.core.pipeline import _ALLOCATORS, evaluate_kernel
        from repro.kernels.registry import get_kernel
        from repro.synth.estimate import build_design

        kernel = get_kernel(name)
        algorithms = tuple(sorted(_ALLOCATORS))
        built = []

        class CountingContext(EvalContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(context_module, "EvalContext", CountingContext)
        shared = evaluate_kernel(kernel, algorithms=algorithms)
        monkeypatch.undo()
        assert len(built) == 1

        groups = build_groups(kernel)
        for tag in algorithms:
            allocation = allocator_by_name(tag).allocate(
                kernel, shared.budget, groups, context=EvalContext()
            )
            design = build_design(
                kernel, allocation, groups=groups, context=EvalContext()
            )
            assert shared.design(tag) == design, tag


class TestForeignArtifactSafety:
    def test_cycle_report_memo_declines_foreign_dfg(self):
        """A caller-supplied DFG neither poisons nor reads the memo."""
        from repro.core.pipeline import allocator_by_name
        from repro.dfg.build import build_dfg
        from repro.dfg.latency import LatencyModel
        from repro.sim.cycles import count_cycles
        from repro.synth.estimate import Objective

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)
        allocation = allocator_by_name("FR-RA").allocate(kernel, 16, groups)
        objective = Objective(
            LatencyModel.realistic(ram_latency=2), ram_ports=1,
            overhead_per_iteration=0,
        )

        foreign_dfg = build_dfg(kernel, groups)  # equal, not canonical
        foreign = count_cycles(
            kernel, groups, allocation, objective, dfg=foreign_dfg,
            context=ctx,
        )
        canonical = count_cycles(
            kernel, groups, allocation, objective, context=ctx
        )
        again = count_cycles(
            kernel, groups, allocation, objective, context=ctx
        )
        assert foreign == canonical == again
        # The foreign-DFG count was never stored: the canonical count
        # missed, and only the canonical repeat hit.
        assert ctx.stats.cycles_misses == 1
        assert ctx.stats.cycles_hits == 1

    def test_cycle_report_memo_declines_foreign_coverages(self):
        """Reference coverage neither poisons nor reads the memo, so a
        differential count never answers from the path under test."""
        from coverage_oracle import reference_coverages
        from repro.dfg.latency import LatencyModel
        from repro.sim.cycles import count_cycles
        from repro.synth.estimate import Objective

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("pat", None)
        allocation = allocator_by_name("PR-RA").allocate(kernel, 16, groups)
        objective = Objective(
            LatencyModel.realistic(ram_latency=2), ram_ports=1,
            overhead_per_iteration=0,
        )
        canonical = count_cycles(
            kernel, groups, allocation, objective, context=ctx
        )
        foreign = count_cycles(
            kernel, groups, allocation, objective, context=ctx,
            coverages=reference_coverages(kernel, groups),
        )
        assert foreign == canonical
        assert (ctx.stats.cycles_misses, ctx.stats.cycles_hits) == (1, 0)


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
        foreign = ctx.coverages(kernel, other_groups)
        canonical = ctx.coverages(kernel, groups)
        assert foreign is not canonical
        assert ctx.coverages(kernel, groups) is canonical

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
        explicit = Executor(context=EvalContext()).run(queries)
        process = Executor().run(queries)
        _assert_records_identical(tuple(explicit), tuple(process))


class TestStatsExactAccounting:
    """The stats counters are an auditable ledger: a scripted call
    sequence must produce exactly the hits and misses it implies."""

    def test_direct_memo_sequence(self):
        from repro.dfg.latency import LatencyModel
        from repro.synth.estimate import Objective

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)

        shared = ctx.coverages(kernel)
        assert ctx.coverages(kernel) is shared
        assert (ctx.stats.coverage_misses, ctx.stats.coverage_hits) == (1, 1)

        dfg = ctx.dfg(kernel)
        assert ctx.dfg(kernel) is dfg
        assert (ctx.stats.dfg_misses, ctx.stats.dfg_hits) == (1, 1)

        model = LatencyModel.realistic(ram_latency=2)
        objective = Objective(model, ram_ports=1, overhead_per_iteration=1)
        costs = ctx.pattern_costs(kernel, groups, dfg, objective)
        assert ctx.pattern_costs(kernel, groups, dfg, objective) is costs
        # design_for builds a fresh model per point: an equal objective
        # on a distinct model object is the same table.
        twin = Objective(
            LatencyModel.realistic(ram_latency=2), ram_ports=1,
            overhead_per_iteration=1,
        )
        assert twin.model is not model
        assert ctx.pattern_costs(kernel, groups, dfg, twin) is costs
        first = costs[0]
        assert costs[0] == first
        assert (ctx.stats.cost_misses, ctx.stats.cost_hits) == (1, 1)
        # A different overhead is a different table, not a hit.
        assert ctx.pattern_costs(
            kernel, groups, dfg, Objective(model, 1, 0)
        ) is not costs
        # So is a different port count.
        assert ctx.pattern_costs(
            kernel, groups, dfg, Objective(model, 2, 1)
        ) is not costs

    def test_optra_query_sequence(self):
        """OPT-RA at budgets (16, 16, 15, 8) in one context: every query
        runs its own search, and every counter is pinned — the
        evaluation plane is deterministic, so this ledger is too.

        Each query looks its kernel up once, the DFG three times and the
        coverage computers twice; its CPA-RA and KS-RA seeds make one
        critical-graph and one knapsack lookup, which miss on the first
        query only.  The cycle-report memo sees each search's seed
        vectors, the leaves the search evaluates and the final design:
        22 lookups, 10 of them new reports: the meet bound and the
        sibling pre-check cut most leaves before they reach that memo.
        The pre-checks classify through the same cost table: 563
        pattern lookups over the 8 distinct values, each scheduled
        once."""
        ctx = EvalContext()
        for budget in (16, 16, 15, 8):
            record = evaluate_query(
                DesignQuery(kernel="fir", allocator="OPT-RA", budget=budget),
                context=ctx,
            )
            assert record.error is None
        assert ctx.stats.as_dict() == {
            "kernel_hits": 3, "kernel_misses": 1,
            "dfg_hits": 11, "dfg_misses": 1,
            "coverage_hits": 7, "coverage_misses": 1,
            "critical_hits": 3, "critical_misses": 1,
            "knapsack_hits": 3, "knapsack_misses": 1,
            "cost_hits": 555, "cost_misses": 8,
            "cycles_hits": 12, "cycles_misses": 10,
        }
