"""Tests for the allocators beyond the paper's worked example."""

import pytest

from repro.analysis import build_groups
from repro.core.allocation import Allocation
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.knapsack import KnapsackAllocator
from repro.core.naive import NaiveAllocator
from repro.core.pipeline import allocator_by_name
from repro.core.prra import PartialReuseAllocator
from repro.dfg.latency import LatencyModel
from repro.errors import AllocationError, ReproError
from repro.kernels import build_fir, build_mat
from repro.synth.estimate import Objective


class TestAllocationType:
    def test_total_and_leftover(self, example_kernel):
        alloc = NaiveAllocator().allocate(example_kernel, 64)
        assert alloc.total_registers == 5
        assert alloc.leftover == 59

    def test_rejects_zero_registers(self):
        with pytest.raises(AllocationError):
            Allocation("k", "X", 4, {"g": 0}, {"g": 1})

    def test_rejects_over_budget(self):
        with pytest.raises(AllocationError):
            Allocation("k", "X", 2, {"g": 3}, {"g": 3})

    def test_registers_for_unknown_group(self, example_kernel):
        alloc = NaiveAllocator().allocate(example_kernel, 64)
        with pytest.raises(AllocationError):
            alloc.registers_for("nope")

    def test_hits_map(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = FullReuseAllocator().allocate(example_kernel, 64, groups)
        hits = alloc.hits_map(groups)
        assert hits["a[k]"] and hits["c[j]"]
        assert not hits["d[i][k]"] and not hits["e[i][j][k]"]


class TestBudgets:
    def test_budget_below_group_count_rejected(self, example_kernel):
        with pytest.raises(AllocationError):
            FullReuseAllocator().allocate(example_kernel, 4)

    def test_minimal_budget_gives_baselines(self, example_kernel):
        alloc = FullReuseAllocator().allocate(example_kernel, 5)
        assert all(r == 1 for r in alloc.registers.values())

    def test_huge_budget_covers_everything(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = FullReuseAllocator().allocate(example_kernel, 10_000, groups)
        for g in groups:
            assert alloc.registers[g.name] == g.full_registers

    @pytest.mark.parametrize("budget", [5, 10, 33, 64, 100, 700])
    def test_never_exceeds_budget(self, example_kernel, budget):
        for cls in (FullReuseAllocator, PartialReuseAllocator,
                    CriticalPathAwareAllocator, KnapsackAllocator):
            alloc = cls().allocate(example_kernel, budget)
            assert alloc.total_registers <= budget

    @pytest.mark.parametrize("budget", [5, 20, 64])
    def test_never_exceeds_beta(self, example_kernel, budget):
        groups = build_groups(example_kernel)
        betas = {g.name: g.full_registers for g in groups}
        for cls in (FullReuseAllocator, PartialReuseAllocator,
                    CriticalPathAwareAllocator, KnapsackAllocator):
            alloc = cls().allocate(example_kernel, budget, groups)
            for name, count in alloc.registers.items():
                assert count <= max(betas[name], 1)


class TestPRRASaturation:
    def test_overflow_to_next_candidate(self):
        # Small FIR: budget allows c fully plus more than x's full need.
        kern = build_fir(n=16, taps=4)
        groups = build_groups(kern)
        alloc = PartialReuseAllocator().allocate(kern, 64, groups)
        by = alloc.registers
        assert by["c[j]"] == 4
        assert by["x[i + j]"] == 4  # saturated at beta, not above


class TestKnapsack:
    def test_beats_or_ties_fr_on_saved_accesses(self, example_kernel):
        groups = build_groups(example_kernel)
        profiles = {g.name: g.profile for g in groups}

        def saved(alloc):
            return sum(
                profiles[name].saved(min(r, profiles[name].full_registers))
                for name, r in alloc.registers.items()
            )

        fr = FullReuseAllocator().allocate(example_kernel, 64, groups)
        ks = KnapsackAllocator().allocate(example_kernel, 64, groups)
        assert saved(ks) >= saved(fr)

    def test_optimal_on_example(self, example_kernel):
        groups = build_groups(example_kernel)
        ks = KnapsackAllocator().allocate(example_kernel, 64, groups)
        # Optimal 0/1 choice within 59 extra: a (29) + d (29) saves
        # 2370+2280 = 4650 > c+a (2380+2370 = 4750? c19+a29=48, +d over
        # budget).  Verify against brute force.
        import itertools

        items = [(g.name, g.full_registers - 1, g.full_saved)
                 for g in groups if g.has_reuse]
        best = 0
        for size in range(len(items) + 1):
            for combo in itertools.combinations(items, size):
                weight = sum(w for _, w, _ in combo)
                if weight <= 59:
                    best = max(best, sum(v for _, _, v in combo))
        chosen_saved = sum(
            g.full_saved for g in groups
            if g.has_reuse and ks.registers[g.name] == g.full_registers
        )
        assert chosen_saved == best


class TestCPARA:
    def test_stops_without_viable_cuts(self):
        # MAT with enough budget for A and C but critical path pinned by B?
        kern = build_mat(n=4)
        groups = build_groups(kern)
        alloc = CriticalPathAwareAllocator().allocate(kern, 1000, groups)
        # With an unlimited budget every reuse group saturates.
        for g in groups:
            if g.has_reuse:
                assert alloc.registers[g.name] == g.full_registers

    def test_trace_records_rounds(self, example_kernel):
        alloc = CriticalPathAwareAllocator().allocate(example_kernel, 64)
        assert any("round 1" in line for line in alloc.trace)

    @pytest.mark.parametrize(
        "model,makespans",
        [(LatencyModel.realistic, (4, 5, 6, 7)), (LatencyModel.tmem, (1, 2, 3, 4))],
        ids=["realistic", "tmem"],
    )
    def test_cg_follows_the_objective_model(self, model, makespans):
        # The Critical Graph is extracted under the model the design is
        # reported under: each extra cycle of RAM latency lengthens
        # fir's critical path (one RAM read deep) by one.
        kern = build_fir()
        for ram_latency, makespan in zip((1, 2, 3, 4), makespans):
            objective = Objective.resolve(model=model(ram_latency=ram_latency))
            alloc = CriticalPathAwareAllocator().allocate(kern, 32, objective=objective)
            round1 = next(line for line in alloc.trace if line.startswith("round 1:"))
            assert round1.startswith(f"round 1: CG makespan {makespan},")


class TestRegistry:
    def test_allocator_by_name(self):
        assert allocator_by_name("FR-RA").name == "FR-RA"
        assert allocator_by_name("CPA-RA").name == "CPA-RA"
        with pytest.raises(ReproError):
            allocator_by_name("XX-RA")
