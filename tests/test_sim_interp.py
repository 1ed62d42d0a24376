"""Tests for the functional interpreters: semantics and register soundness."""

import numpy as np
import pytest

from repro.analysis import build_groups
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.naive import NaiveAllocator
from repro.core.prra import PartialReuseAllocator
from repro.scalar.coverage import GroupCoverage
from repro.sim.interp import random_inputs, run_kernel, run_scalar_replaced


class TestRunKernel:
    def test_copy_kernel_semantics(self, copy_kernel):
        inputs = random_inputs(copy_kernel, seed=5)
        mem = run_kernel(copy_kernel, inputs)
        for i in range(6):
            assert np.array_equal(mem["out"][i], inputs["src"])

    def test_accumulator_semantics(self, small_fir):
        inputs = random_inputs(small_fir, seed=2)
        mem = run_kernel(small_fir, inputs)
        from repro.kernels import fir_reference

        expected = fir_reference(inputs["x"], inputs["c"])
        assert np.array_equal(mem["y"], expected)

    def test_wrapping_behaviour(self):
        from repro.ir import INT8, KernelBuilder

        b = KernelBuilder("wrap")
        i = b.loop("i", 2)
        a = b.array("a", (2,), INT8)
        out = b.array("o", (2,), INT8, role="output")
        b.assign(out[i], a[i] * 2)
        kern = b.build()
        mem = run_kernel(kern, {"a": np.array([100, -100])})
        assert mem["o"].tolist() == [INT8.wrap(np.int64(200)), INT8.wrap(np.int64(-200))]

    def test_shape_mismatch_rejected(self, copy_kernel):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            run_kernel(copy_kernel, {"src": np.zeros(3)})


ALLOCATORS = [
    NaiveAllocator,
    FullReuseAllocator,
    PartialReuseAllocator,
    CriticalPathAwareAllocator,
]


class TestScalarReplacedEquivalence:
    """The keystone property: any allocation preserves semantics exactly,
    and the interpreter's RAM traffic matches the coverage accounting."""

    @pytest.mark.parametrize("allocator_cls", ALLOCATORS)
    @pytest.mark.parametrize("budget", [6, 12, 24, 64])
    def test_example_kernel(self, tiny_example_kernel, allocator_cls, budget):
        self._check(tiny_example_kernel, allocator_cls, budget)

    @pytest.mark.parametrize("allocator_cls", ALLOCATORS)
    @pytest.mark.parametrize("budget", [4, 7, 12])
    def test_fir(self, small_fir, allocator_cls, budget):
        self._check(small_fir, allocator_cls, budget)

    @pytest.mark.parametrize("allocator_cls", ALLOCATORS)
    def test_mat(self, small_mat, allocator_cls):
        self._check(small_mat, allocator_cls, 16)

    def _check(self, kernel, allocator_cls, budget):
        groups = build_groups(kernel)
        if budget < len(groups):
            pytest.skip("budget below feasibility")
        allocation = allocator_cls().allocate(kernel, budget, groups)
        inputs = random_inputs(kernel, seed=42)
        golden = run_kernel(kernel, inputs)
        run = run_scalar_replaced(kernel, groups, allocation, inputs)
        for name, expected in golden.items():
            assert np.array_equal(run.memory[name], expected), (
                f"{allocator_cls.__name__} budget {budget} corrupted {name}"
            )
        for group in groups:
            cov = GroupCoverage(kernel, group)
            expected_accesses = cov.ram_accesses(
                allocation.registers_for(group.name)
            )
            assert run.ram_accesses[group.name] == expected_accesses

    def test_high_anchor_equivalence(self, tiny_example_kernel):
        groups = build_groups(tiny_example_kernel)
        allocation = PartialReuseAllocator().allocate(
            tiny_example_kernel, 12, groups
        )
        inputs = random_inputs(tiny_example_kernel, seed=9)
        golden = run_kernel(tiny_example_kernel, inputs)
        anchors = {g.name: "high" for g in groups}
        run = run_scalar_replaced(
            tiny_example_kernel, groups, allocation, inputs, anchors=anchors
        )
        for name, expected in golden.items():
            assert np.array_equal(run.memory[name], expected)


class TestCapacityEnforcement:
    @pytest.mark.parametrize("budget", [5, 8, 16, 40])
    def test_high_water_within_covered(self, tiny_example_kernel, budget):
        groups = build_groups(tiny_example_kernel)
        allocation = CriticalPathAwareAllocator().allocate(
            tiny_example_kernel, budget, groups
        )
        inputs = random_inputs(tiny_example_kernel, seed=1)
        run = run_scalar_replaced(tiny_example_kernel, groups, allocation, inputs)
        for group in groups:
            cov = GroupCoverage(tiny_example_kernel, group)
            covered = cov.covered(allocation.registers_for(group.name))
            assert run.register_high_water[group.name] <= max(covered, 0) + 0
