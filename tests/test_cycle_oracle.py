"""Differential test of the cycle objective against the reference counter.

The production counter packs miss masks into ``uint8``/``uint16``/
``uint32`` planes, prices patterns through shared cost tables and runs
the anchor search on a shared base (:mod:`repro.sim.cycles`).  Every
report it produces must equal the straightforward classifier in
``cycle_oracle.py`` field for field: in-loop, epilogue and memory
cycles, per-group RAM accesses and the pattern rows.  The sample covers
register vectors at budgets 16-64 on every registered kernel, the fuzz
corpus, and wide kernels whose layouts need 16- and 32-bit patterns.
"""

from __future__ import annotations

import random

import pytest

from cycle_oracle import (
    reference_best_anchors,
    reference_count_cycles,
    reference_coverages,
)
from fuzz_kernels import random_case
from repro.analysis.groups import build_groups
from repro.core.allocation import Allocation
from repro.dfg.build import build_dfg
from repro.dfg.latency import LatencyModel
from repro.explore.context import EvalContext
from repro.ir import INT16, INT32, KernelBuilder
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.sim.cycles import PatternLayout, count_cycles
from repro.synth.estimate import classify_operand_storage, count_with_best_anchors

MODEL = LatencyModel.realistic(ram_latency=2)
REGISTERED = sorted(KERNEL_FACTORIES)
BUDGETS = (16, 24, 32, 48, 64)
VECTORS_PER_BUDGET = 3


def sample_vectors(groups, budget, count, seed):
    """``count`` feasible register vectors at ``budget``, deterministic.

    Each vector visits the groups in a random order and gives each a
    random share of the remaining extra registers, capped at its beta.
    """
    rng = random.Random(seed)
    vectors = []
    for _ in range(count):
        registers = {g.name: 1 for g in groups}
        spare = budget - len(groups)
        for group in rng.sample(list(groups), len(groups)):
            extra = rng.randint(0, max(0, min(group.full_registers - 1, spare)))
            registers[group.name] += extra
            spare -= extra
        vectors.append(registers)
    return vectors


def _allocation(kernel, groups, registers, budget):
    return Allocation(
        kernel_name=kernel.name,
        algorithm="ORACLE",
        budget=budget,
        registers=dict(registers),
        betas={g.name: g.full_registers for g in groups},
    )


def _objective(kernel, groups, allocation, context):
    """``count_with_best_anchors`` exactly as the pipeline calls it."""
    if context is not None:
        dfg = context.dfg(kernel, groups)
        coverages = context.coverages(kernel, groups)
    else:
        dfg = build_dfg(kernel, groups)
        coverages = reference_coverages(kernel, groups)
    storage = {
        g.name: classify_operand_storage(
            g, coverages[g.name], allocation.registers_for(g.name)
        )
        for g in groups
    }
    return count_with_best_anchors(
        kernel, groups, allocation, MODEL, 1, 1, dfg, coverages, storage,
        context=context,
    )


def check_against_reference(kernel, groups, vectors, budget, context):
    """Production reports (with and without ``context``) == reference."""
    reference = reference_coverages(kernel, groups)
    for registers in vectors:
        allocation = _allocation(kernel, groups, registers, budget)
        want = reference_best_anchors(
            kernel, groups, allocation, MODEL, 1, 1, coverages=reference
        )
        for ctx in (context, None):
            got = _objective(kernel, groups, allocation, ctx)
            assert got == want, (kernel.name, registers, ctx is not None)
            assert got.total_cycles == want.total_cycles
        low = count_cycles(
            kernel, groups, allocation, MODEL, overhead_per_iteration=1,
            context=context,
        )
        assert low == reference_count_cycles(
            kernel, groups, allocation, MODEL, 1, 1, coverages=reference
        ), (kernel.name, registers)


@pytest.fixture(scope="module")
def shared_context():
    return EvalContext(kernel_memo_size=8)


@pytest.mark.oracle
@pytest.mark.parametrize("name", REGISTERED)
def test_objective_matches_reference_on_registered_kernels(
    name, shared_context
):
    kernel, groups = shared_context.kernel_and_groups(name, None)
    for budget in BUDGETS:
        vectors = sample_vectors(
            groups, budget, VECTORS_PER_BUDGET,
            seed=budget * 1009 + REGISTERED.index(name),
        )
        check_against_reference(kernel, groups, vectors, budget, shared_context)


@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_objective_matches_reference_on_fuzz_kernels(seed, shared_context):
    case = random_case(seed)
    vectors = sample_vectors(case.groups, case.budget, 4, seed=seed)
    check_against_reference(
        case.kernel, case.groups, vectors, case.budget, shared_context
    )


def wide_kernel(inputs: int):
    """``y[i] += a0[i + j] + ... + a{n-1}[i + j]``: one read channel per
    input plus the accumulator's read and write."""
    b = KernelBuilder(f"wide{inputs}")
    i = b.loop("i", 6)
    j = b.loop("j", 4)
    y = b.array("y", (6,), INT32, role="output")
    value = None
    for index in range(inputs):
        load = b.array(f"a{index}", (9,), INT16)[i + j]
        value = load if value is None else value + load
    b.assign(y[i], y[i] + value)
    return b.build()


@pytest.mark.oracle
@pytest.mark.parametrize("inputs, dtype", [(3, "uint8"), (9, "uint16"), (17, "uint32")])
def test_objective_matches_reference_on_wide_layouts(inputs, dtype):
    kernel = wide_kernel(inputs)
    groups = build_groups(kernel)
    context = EvalContext()
    layout = PatternLayout(groups, context.dfg(kernel, groups))
    assert layout.dtype.__name__ == dtype
    budget = len(groups) + 2 * inputs
    vectors = sample_vectors(groups, budget, 4, seed=inputs)
    check_against_reference(kernel, groups, vectors, budget, context)


def test_sample_vectors_are_feasible_and_deterministic():
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    first = sample_vectors(groups, 40, 5, seed=7)
    assert first == sample_vectors(groups, 40, 5, seed=7)
    for registers in first:
        assert sum(registers.values()) <= 40
        for group in groups:
            assert 1 <= registers[group.name] <= group.full_registers
