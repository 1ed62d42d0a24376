"""Property-based end-to-end tests: random small kernels through the flow.

Generates random (but valid) two-deep kernels with a mix of invariant,
windowed and no-reuse references, then checks the load-bearing invariants:

* every allocator stays within budget and beta;
* scalar-replaced execution is bit-identical to direct execution for
  every allocator;
* interpreter RAM traffic equals the coverage accounting;
* more budget never increases memory cycles (CPA-RA).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_groups
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.prra import PartialReuseAllocator
from repro.dfg import LatencyModel
from repro.ir import INT16, INT32, KernelBuilder
from repro.scalar.coverage import GroupCoverage
from repro.sim.cycles import count_cycles
from repro.sim.interp import random_inputs, run_kernel, run_scalar_replaced
from repro.synth.estimate import Objective


@st.composite
def random_kernel(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 6))
    offset = draw(st.integers(0, 2))
    window = draw(st.booleans())
    accumulate = draw(st.booleans())

    b = KernelBuilder("randk")
    i = b.loop("i", n)
    j = b.loop("j", m)
    inv = b.array("inv", (m + offset,), INT16)
    win = b.array("win", (n + m,), INT16)
    out = b.array("out", (n, m), INT32, role="output")
    acc = b.array("acc", (n,), INT32, role="output")

    source = win[i + j] if window else inv[j + offset]
    if accumulate:
        b.assign(acc[i], acc[i] + inv[j + offset] * source)
    else:
        b.assign(out[i, j], inv[j + offset] * source)
    return b.build()


ALLOCATORS = (FullReuseAllocator, PartialReuseAllocator, CriticalPathAwareAllocator)


@given(random_kernel(), st.integers(3, 20), st.sampled_from(ALLOCATORS))
@settings(max_examples=60, deadline=None)
def test_allocations_within_bounds(kernel, budget, allocator_cls):
    groups = build_groups(kernel)
    if budget < len(groups):
        return
    allocation = allocator_cls().allocate(kernel, budget, groups)
    assert allocation.total_registers <= budget
    for group in groups:
        assert 1 <= allocation.registers_for(group.name)
        assert allocation.registers_for(group.name) <= max(
            group.full_registers, 1
        )


@given(random_kernel(), st.integers(4, 24), st.sampled_from(ALLOCATORS))
@settings(max_examples=40, deadline=None)
def test_semantic_equivalence_and_traffic(kernel, budget, allocator_cls):
    groups = build_groups(kernel)
    if budget < len(groups):
        return
    allocation = allocator_cls().allocate(kernel, budget, groups)
    inputs = random_inputs(kernel, seed=13)
    golden = run_kernel(kernel, inputs)
    run = run_scalar_replaced(kernel, groups, allocation, inputs)
    for name, expected in golden.items():
        assert np.array_equal(run.memory[name], expected)
    for group in groups:
        cov = GroupCoverage(kernel, group)
        assert run.ram_accesses[group.name] == cov.ram_accesses(
            allocation.registers_for(group.name)
        )


@given(random_kernel())
@settings(max_examples=25, deadline=None)
def test_memory_cycles_monotone_in_budget(kernel):
    groups = build_groups(kernel)
    tmem = Objective(LatencyModel.tmem(), ram_ports=1, overhead_per_iteration=0)
    previous = None
    for budget in (len(groups), len(groups) + 3, len(groups) + 8, 40):
        allocation = CriticalPathAwareAllocator().allocate(kernel, budget, groups)
        report = count_cycles(kernel, groups, allocation, tmem)
        if previous is not None:
            assert report.in_loop_cycles <= previous
        previous = report.in_loop_cycles
