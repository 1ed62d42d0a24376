"""Tests for the synthesis estimators and design evaluation."""

import pytest

from repro.analysis import build_groups
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.naive import NaiveAllocator
from repro.core.prra import PartialReuseAllocator
from repro.dfg import build_dfg
from repro.hw import XCV1000
from repro.scalar.coverage import GroupCoverage
from repro.synth.area import estimate_area
from repro.synth.estimate import build_design, classify_operand_storage
from repro.synth.timing import estimate_clock


class TestTiming:
    def test_more_registers_slower_clock(self, example_kernel):
        dfg = build_dfg(example_kernel)
        fast = estimate_clock(dfg, XCV1000, 4, 0, 0)
        slow = estimate_clock(dfg, XCV1000, 64, 0, 0)
        assert slow.period_ns > fast.period_ns

    def test_partial_and_mixed_penalties(self, example_kernel):
        dfg = build_dfg(example_kernel)
        base = estimate_clock(dfg, XCV1000, 16, 0, 0)
        partial = estimate_clock(dfg, XCV1000, 16, 2, 0)
        mixed = estimate_clock(dfg, XCV1000, 16, 0, 2)
        assert partial.period_ns > base.period_ns
        assert mixed.period_ns > base.period_ns

    def test_frequency_inverse(self, example_kernel):
        dfg = build_dfg(example_kernel)
        est = estimate_clock(dfg, XCV1000, 8, 0, 0)
        assert est.frequency_mhz == pytest.approx(1000 / est.period_ns)

    def test_penalties_are_modest(self, example_kernel):
        """A full 64-register design should lose < 15% clock (paper ~8%)."""
        dfg = build_dfg(example_kernel)
        fast = estimate_clock(dfg, XCV1000, 4, 0, 0)
        slow = estimate_clock(dfg, XCV1000, 64, 2, 1)
        assert (slow.period_ns / fast.period_ns - 1) < 0.15


class TestArea:
    def test_registers_add_slices(self, example_kernel):
        dfg = build_dfg(example_kernel)
        small = estimate_area(example_kernel, dfg, {"a": (1, 16)}, 0)
        big = estimate_area(example_kernel, dfg, {"a": (64, 16)}, 0)
        assert big.total_slices > small.total_slices
        assert big.register_slices == 64 * 16 // 2

    def test_partial_groups_add_control(self, example_kernel):
        dfg = build_dfg(example_kernel)
        none = estimate_area(example_kernel, dfg, {}, 0)
        two = estimate_area(example_kernel, dfg, {}, 2)
        assert two.control_slices > none.control_slices

    def test_depth_scales_control(self, example_kernel, small_fir):
        dfg3 = build_dfg(example_kernel)
        dfg2 = build_dfg(small_fir)
        deep = estimate_area(example_kernel, dfg3, {}, 0)
        shallow = estimate_area(small_fir, dfg2, {}, 0)
        assert deep.control_slices > shallow.control_slices


class TestStorageClassification:
    def test_classes(self, example_kernel):
        groups = {g.name: g for g in build_groups(example_kernel)}
        cov = {n: GroupCoverage(example_kernel, g) for n, g in groups.items()}
        assert classify_operand_storage(groups["a[k]"], cov["a[k]"], 30) == "reg"
        assert classify_operand_storage(groups["a[k]"], cov["a[k]"], 12) == "both"
        assert classify_operand_storage(groups["a[k]"], cov["a[k]"], 1) == "ram"
        assert (
            classify_operand_storage(groups["e[i][j][k]"], cov["e[i][j][k]"], 1)
            == "ram"
        )


class TestBuildDesign:
    def test_design_fields(self, example_kernel):
        alloc = FullReuseAllocator().allocate(example_kernel, 64)
        design = build_design(example_kernel, alloc)
        assert design.total_cycles > 0
        assert design.clock_ns > 20
        assert design.wall_clock_us == pytest.approx(
            design.total_cycles * design.clock_ns / 1000
        )
        assert 0 < design.slices < XCV1000.slices
        assert design.ram_blocks >= 1

    def test_fully_covered_inputs_leave_ram(self, example_kernel):
        # FR-RA covers a and c fully: both become register-initialized.
        alloc = FullReuseAllocator().allocate(example_kernel, 64)
        design = build_design(example_kernel, alloc)
        assert "a" not in design.binding.ram_arrays
        assert "c" not in design.binding.ram_arrays
        assert "e" in design.binding.ram_arrays

    def test_speedup_relations(self, example_kernel):
        naive = build_design(
            example_kernel, NaiveAllocator().allocate(example_kernel, 64)
        )
        cpa = build_design(
            example_kernel,
            CriticalPathAwareAllocator().allocate(example_kernel, 64),
        )
        assert cpa.speedup_over(naive) > 1.0
        assert cpa.cycle_reduction_vs(naive) > 0.0

    def test_anchor_search_improves_decfir(self):
        """The coverage-placement pass must align c with x on Dec-FIR."""
        from repro.kernels import build_decfir

        kern = build_decfir(n=32, taps=16, decimation=2)
        groups = build_groups(kern)
        alloc = CriticalPathAwareAllocator().allocate(kern, 18, groups)
        design = build_design(kern, alloc, groups=groups)
        naive = build_design(
            kern, NaiveAllocator().allocate(kern, 18, groups), groups=groups
        )
        assert design.total_cycles < naive.total_cycles
