"""Tests for the scalar-replacement transform plan."""

import pytest

from repro.analysis import build_groups
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.naive import NaiveAllocator
from repro.core.prra import PartialReuseAllocator
from repro.scalar.replace import plan_transform, render_transform


class TestPlan:
    def test_banks_match_allocation(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = FullReuseAllocator().allocate(example_kernel, 64, groups)
        plan = plan_transform(example_kernel, alloc, groups)
        by = {b.group_name: b for b in plan.banks}
        assert by["a[k]"].registers == 30
        assert by["a[k]"].policy == "pinned"
        assert by["a[k]"].covered == 30
        assert by["b[k][j]"].policy == "buffer"
        assert by["e[i][j][k]"].policy == "buffer"

    def test_prologue_loads_for_pinned_reads(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = FullReuseAllocator().allocate(example_kernel, 64, groups)
        plan = plan_transform(example_kernel, alloc, groups)
        by = {b.group_name: b for b in plan.banks}
        assert by["a[k]"].prologue_loads == 30
        assert by["c[j]"].prologue_loads == 20
        # Written groups do not prefetch.
        assert by["d[i][k]"].prologue_loads == 0

    def test_writebacks_per_region(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = CriticalPathAwareAllocator().allocate(example_kernel, 64, groups)
        plan = plan_transform(example_kernel, alloc, groups)
        d = {b.group_name: b for b in plan.banks}["d[i][k]"]
        assert d.policy == "pinned"
        assert d.regions == 4       # one per i iteration
        assert d.writebacks_per_region == 30

    def test_partial_coverage_described(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = PartialReuseAllocator().allocate(example_kernel, 64, groups)
        plan = plan_transform(example_kernel, alloc, groups)
        d = {b.group_name: b for b in plan.banks}["d[i][k]"]
        assert d.covered == 12
        assert "rank < 12" in d.steady_state

    def test_window_bank(self, small_fir):
        groups = build_groups(small_fir)
        alloc = CriticalPathAwareAllocator().allocate(small_fir, 7, groups)
        plan = plan_transform(small_fir, alloc, groups)
        x = {b.group_name: b for b in plan.banks}["x[i + j]"]
        assert x.policy == "window"
        assert "rotating window" in x.steady_state

    def test_naive_plan_has_no_banks_working(self, example_kernel):
        alloc = NaiveAllocator().allocate(example_kernel, 64)
        plan = plan_transform(example_kernel, alloc)
        assert all(b.policy == "buffer" for b in plan.banks)
        assert plan.total_prologue_loads == 0
        assert plan.total_writebacks == 0


class TestRendering:
    def test_render_contains_sections(self, example_kernel):
        alloc = FullReuseAllocator().allocate(example_kernel, 64)
        text = render_transform(plan_transform(example_kernel, alloc))
        assert "/* prologue */" in text
        assert "/* steady state (per iteration) */" in text
        assert "/* epilogue (per region) */" in text
        assert "a[k]_bank[30]" in text
