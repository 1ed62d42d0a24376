"""Tests for the iteration scheduler and the whole-nest cycle counter."""

import pytest

from repro.analysis import build_groups
from repro.core import (
    CriticalPathAwareAllocator,
    FullReuseAllocator,
    NaiveAllocator,
)
from repro.dfg import LatencyModel, build_dfg
from repro.errors import SimulationError
from repro.sim import count_cycles, schedule_iteration
from repro.synth.estimate import Objective

#: Figure 2(c) units: memory-only latencies, one port, no overhead.
TMEM = Objective(LatencyModel.tmem(), ram_ports=1, overhead_per_iteration=0)


class TestScheduler:
    def test_example_all_ram_tmem(self, example_kernel):
        dfg = build_dfg(example_kernel)
        sched = schedule_iteration(dfg, LatencyModel.tmem(), hit={})
        # Serial chain b -> d -> e with a,c overlapping: 3 memory cycles.
        assert sched.makespan == 3
        assert sched.memory_cycles == 3

    def test_example_d_covered(self, example_kernel):
        groups = build_groups(example_kernel)
        dfg = build_dfg(example_kernel, groups)
        d_uid = next(n.uid for n in dfg.writes() if n.site.array_name == "d")
        sched = schedule_iteration(dfg, LatencyModel.tmem(), hit={d_uid: True})
        assert sched.makespan == 2

    def test_parallel_reads_one_cycle(self, example_kernel):
        groups = build_groups(example_kernel)
        dfg = build_dfg(example_kernel, groups)
        hits = {
            n.uid: n.site.array_name in ("d",)
            for n in dfg.memory_nodes()
        }
        sched = schedule_iteration(dfg, LatencyModel.tmem(), hit=hits)
        # a, b, c read concurrently (distinct RAMs), then e write: 2.
        assert sched.makespan == 2

    def test_same_array_serializes(self):
        from repro.ir import INT16, KernelBuilder

        b = KernelBuilder("twice")
        i = b.loop("i", 4)
        a = b.array("a", (8,), INT16)
        out = b.array("o", (4,), INT16, role="output")
        b.assign(out[i], a[i] + a[i + 1])
        kern = b.build()
        dfg = build_dfg(kern)
        sched = schedule_iteration(dfg, LatencyModel.tmem(), hit={})
        # two reads of array a on one port + out write: 2 then 1 -> 3.
        assert sched.makespan == 3

    def test_dual_port_overlaps(self):
        from repro.ir import INT16, KernelBuilder

        b = KernelBuilder("twice")
        i = b.loop("i", 4)
        a = b.array("a", (8,), INT16)
        out = b.array("o", (4,), INT16, role="output")
        b.assign(out[i], a[i] + a[i + 1])
        kern = b.build()
        dfg = build_dfg(kern)
        sched = schedule_iteration(dfg, LatencyModel.tmem(), hit={}, ram_ports=2)
        assert sched.makespan == 2

    def test_bad_ports(self, example_kernel):
        dfg = build_dfg(example_kernel)
        with pytest.raises(SimulationError):
            schedule_iteration(dfg, LatencyModel.tmem(), hit={}, ram_ports=3)

    def test_realistic_latencies_stack(self, example_kernel):
        dfg = build_dfg(example_kernel)
        sched = schedule_iteration(dfg, LatencyModel.realistic(), hit={})
        # a/b read (1) -> mul (2) -> d write (1) -> mul (2) -> e write (1).
        assert sched.makespan == 7


class TestCycleCounter:
    def test_naive_tmem_counts_three_per_iteration(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = NaiveAllocator().allocate(example_kernel, 64, groups)
        report = count_cycles(example_kernel, groups, alloc, TMEM)
        assert report.in_loop_cycles == 3 * example_kernel.iteration_count

    def test_overhead_added_per_iteration(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = NaiveAllocator().allocate(example_kernel, 64, groups)
        base = count_cycles(example_kernel, groups, alloc, TMEM)
        plus = count_cycles(
            example_kernel, groups, alloc,
            Objective(LatencyModel.tmem(), ram_ports=1, overhead_per_iteration=1),
        )
        assert (
            plus.in_loop_cycles - base.in_loop_cycles
            == example_kernel.iteration_count
        )

    def test_pattern_counts_partition_space(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = CriticalPathAwareAllocator().allocate(example_kernel, 64, groups)
        report = count_cycles(example_kernel, groups, alloc, TMEM)
        assert (
            sum(count for _, count, _ in report.pattern_counts)
            == example_kernel.iteration_count
        )

    def test_ram_accesses_match_coverage(self, example_kernel):
        from repro.scalar.coverage import GroupCoverage

        groups = build_groups(example_kernel)
        alloc = FullReuseAllocator().allocate(example_kernel, 64, groups)
        report = count_cycles(example_kernel, groups, alloc, TMEM)
        for group in groups:
            cov = GroupCoverage(example_kernel, group)
            assert report.ram_accesses[group.name] == cov.ram_accesses(
                alloc.registers_for(group.name)
            )

    def test_more_registers_never_increase_memory_cycles(self, example_kernel):
        groups = build_groups(example_kernel)
        previous = None
        for budget in (5, 20, 40, 64, 120):
            alloc = CriticalPathAwareAllocator().allocate(
                example_kernel, budget, groups
            )
            report = count_cycles(example_kernel, groups, alloc, TMEM)
            if previous is not None:
                assert report.in_loop_cycles <= previous
            previous = report.in_loop_cycles

    def test_epilogue_cycles_scale_with_latency(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = CriticalPathAwareAllocator().allocate(example_kernel, 64, groups)
        one = count_cycles(
            example_kernel, groups, alloc, Objective(LatencyModel.tmem(1), 1, 0)
        )
        two = count_cycles(
            example_kernel, groups, alloc, Objective(LatencyModel.tmem(2), 1, 0)
        )
        assert two.epilogue_cycles == 2 * one.epilogue_cycles
