"""Tests for the behavioral VHDL emitter."""

import pytest

from repro.analysis import build_groups
from repro.codegen import generate_vhdl
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.naive import NaiveAllocator
from repro.kernels import build_fir, paper_kernels


class TestStructure:
    def test_entity_and_architecture(self, example_kernel):
        alloc = FullReuseAllocator().allocate(example_kernel, 64)
        vhdl = generate_vhdl(example_kernel, alloc)
        assert "entity example_fr_ra is" in vhdl
        assert "architecture behavioral of example_fr_ra is" in vhdl
        assert vhdl.count("end entity") == 1
        assert vhdl.count("end architecture") == 1

    def test_register_banks_match_allocation(self, example_kernel):
        groups = build_groups(example_kernel)
        alloc = FullReuseAllocator().allocate(example_kernel, 64, groups)
        vhdl = generate_vhdl(example_kernel, alloc, groups)
        # a[k] got 30 registers -> bank indices 0..29.
        assert "array (0 to 29)" in vhdl   # a[k]
        assert "array (0 to 19)" in vhdl   # c[j]

    def test_ram_ports_for_uncovered_arrays(self, example_kernel):
        alloc = NaiveAllocator().allocate(example_kernel, 64)
        vhdl = generate_vhdl(example_kernel, alloc)
        for array in ("a", "b", "c", "d", "e"):
            assert f"{array}_addr" in vhdl
            assert f"{array}_din" in vhdl

    def test_fully_covered_inputs_have_no_ports(self, example_kernel):
        # FR-RA covers a and c fully: they become register-initialized.
        alloc = FullReuseAllocator().allocate(example_kernel, 64)
        vhdl = generate_vhdl(example_kernel, alloc)
        assert "a_addr" not in vhdl
        assert "c_addr" not in vhdl
        assert "b_addr" in vhdl  # uncovered stays on RAM

    def test_fsm_states_cover_statements(self, example_kernel):
        alloc = NaiveAllocator().allocate(example_kernel, 64)
        vhdl = generate_vhdl(example_kernel, alloc)
        assert "S_STMT0" in vhdl and "S_STMT1" in vhdl
        assert "S_PROLOGUE" in vhdl and "S_WRITEBACK" in vhdl

    def test_loop_counters_declared(self, example_kernel):
        alloc = NaiveAllocator().allocate(example_kernel, 64)
        vhdl = generate_vhdl(example_kernel, alloc)
        for var in ("i", "j", "k"):
            assert f"{var}_ctr" in vhdl

    def test_comparison_kernel_emits_helper(self):
        from repro.kernels import build_pat

        kern = build_pat(text_len=32, pattern_len=4)
        alloc = NaiveAllocator().allocate(kern, 16)
        vhdl = generate_vhdl(kern, alloc)
        assert "bool_to_signed" in vhdl


class TestAllKernels:
    @pytest.mark.parametrize("kernel", paper_kernels(), ids=lambda k: k.name)
    def test_generation_succeeds(self, kernel):
        groups = build_groups(kernel)
        alloc = CriticalPathAwareAllocator().allocate(kernel, 64, groups)
        vhdl = generate_vhdl(kernel, alloc, groups)
        assert "rising_edge(clk)" in vhdl
        # Balanced process block.
        assert vhdl.count("process") == 2  # open + end

    def test_different_allocations_differ(self):
        kernel = build_fir(n=32, taps=8)
        groups = build_groups(kernel)
        naive = NaiveAllocator().allocate(kernel, 16, groups)
        cpa = CriticalPathAwareAllocator().allocate(kernel, 16, groups)
        assert generate_vhdl(kernel, naive, groups) != generate_vhdl(
            kernel, cpa, groups
        )
