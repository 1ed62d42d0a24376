"""Differential oracle: every heuristic pinned against OPT-RA.

The exact allocator's contract comes in three parts, each tested here:

* **exactness** — OPT-RA is bit-identical (register vector, not just
  cycles) to a brute-force enumeration of every feasible register
  assignment on all registered kernels at small budgets;
* **dominance** — at every feasible (kernel, budget) grid point, OPT-RA
  is at most every heuristic's cycle count (it is seeded with their
  allocations, so this holds even truncated);
* **provenance** — runs truncated by ``node_limit`` return a certified
  anytime bracket instead of raising, deterministically, and are never
  written to the result cache as exact.
"""

from __future__ import annotations

import itertools
import re

import pytest

from fuzz_kernels import oracle_case
from repro.core.allocation import Allocation
from repro.core.base import AllocationState
from repro.core.optra import DEFAULT_NODE_LIMIT, OptimalAllocator, _Search
from repro.core.pipeline import _ALLOCATORS, allocator_by_name
from repro.dfg.build import build_dfg
from repro.dfg.latency import LatencyModel
from repro.errors import AllocationError, ReproError
from repro.explore.cache import ResultCache
from repro.explore.context import EvalContext
from repro.explore.evaluate import design_for
from repro.explore.executor import Executor
from repro.explore.query import DesignQuery, DesignRecord
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.analysis.groups import build_groups
from repro.scalar.coverage import GroupCoverage
from repro.synth.estimate import classify_operand_storage, count_with_best_anchors

MODEL = LatencyModel.realistic(ram_latency=2)
HEURISTICS = ("FR-RA", "PR-RA", "CPA-RA", "KS-RA", "NO-SR")
REGISTERED = sorted(KERNEL_FACTORIES)
SMALL_BUDGETS = (6, 9, 12)
BOUND_BUDGETS = (8, 12, 16, 24)


def objective_cycles(kernel, groups, registers, budget, context=None):
    """The pipeline's authoritative objective for one register vector."""
    allocation = Allocation(
        kernel_name=kernel.name,
        algorithm="ORACLE",
        budget=budget,
        registers=dict(registers),
        betas={g.name: g.full_registers for g in groups},
    )
    if context is not None:
        dfg = context.dfg(kernel, groups)
        coverages = context.coverages(kernel, groups)
    else:
        dfg = build_dfg(kernel, groups)
        coverages = {g.name: GroupCoverage(kernel, g) for g in groups}
    storage = {
        g.name: classify_operand_storage(
            g, coverages[g.name], registers[g.name]
        )
        for g in groups
    }
    report = count_with_best_anchors(
        kernel, groups, allocation, MODEL, 1, 1, dfg, coverages, storage,
        context=context,
    )
    return report.total_cycles


def brute_force_optimum(kernel, groups, budget, context=None):
    """Subset-enumeration reference: every feasible register vector.

    Returns ``(cycles, registers)`` minimizing the same tie-break key
    OPT-RA uses — (cycles, total registers, vector in group order) — so
    a comparison against it checks the chosen *vector*, not just the
    cycle count.
    """
    extra = budget - len(groups)
    assert extra >= 0
    ranges = [
        range(1, min(g.full_registers, 1 + extra) + 1) for g in groups
    ]
    best_key, best_registers = None, None
    for combo in itertools.product(*ranges):
        if sum(combo) > budget:
            continue
        registers = {g.name: r for g, r in zip(groups, combo)}
        cycles = objective_cycles(kernel, groups, registers, budget, context)
        key = (cycles, sum(combo), combo)
        if best_key is None or key < best_key:
            best_key, best_registers = key, registers
    return best_key[0], best_registers


@pytest.fixture(scope="module")
def shared_context():
    return EvalContext(kernel_memo_size=8)


def _tuned_opt(**kwargs):
    opt = OptimalAllocator(**kwargs)
    return opt.tune(model=MODEL, ram_ports=1, overhead_per_iteration=1)


# -- exactness ----------------------------------------------------------------


@pytest.mark.oracle
@pytest.mark.parametrize("name", REGISTERED)
def test_optra_matches_brute_force_on_registered_kernels(
    name, shared_context
):
    """Bit-identical to exhaustive enumeration at budgets <= 12."""
    kernel = get_kernel(name)
    groups = build_groups(kernel)
    budgets = sorted({len(groups), *SMALL_BUDGETS})
    for budget in budgets:
        if budget < len(groups):
            continue
        want_cycles, want_registers = brute_force_optimum(
            kernel, groups, budget, context=shared_context
        )
        allocation = _tuned_opt().allocate(
            kernel, budget, groups, context=shared_context
        )
        got = {g.name: allocation.registers_for(g.name) for g in groups}
        assert got == want_registers, (
            f"{name} B={budget}: OPT-RA chose {got}, "
            f"brute force {want_registers}"
        )
        assert allocation.certified
        assert allocation.lower_bound == want_cycles


@pytest.mark.slow
@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(120))
def test_optra_matches_brute_force_on_fuzz_kernels(seed):
    """Spot-check exactness on random kernels too (tight oracle budgets)."""
    case = oracle_case(seed)
    want_cycles, want_registers = brute_force_optimum(
        case.kernel, case.groups, case.budget
    )
    allocation = _tuned_opt().allocate(case.kernel, case.budget, case.groups)
    got = {g.name: allocation.registers_for(g.name) for g in case.groups}
    assert got == want_registers, f"seed {seed}: {got} != {want_registers}"
    assert allocation.certified and allocation.lower_bound == want_cycles


# -- admissibility ------------------------------------------------------------


def assert_bounds_admissible(kernel, groups, budget, context=None):
    """OPT-RA's bounds never exceed what they bound, by enumeration.

    Every feasible vector is priced with the objective.  Each leaf's
    sibling pre-check must not exceed its leaf, and the meet bound at
    the root and at every depth-1 prefix must not exceed the
    brute-force minimum over that prefix's completions.
    """
    state = AllocationState(kernel, groups, budget, context=context)
    search = _Search(state, MODEL, 1, 1)
    fixed = {g.name: 1 for g in groups if g.full_registers <= 1}
    ranges = [range(search.caps[g.name]) for g in search.order]
    best_below: "dict[tuple[int, ...], int]" = {}
    for extras in itertools.product(*ranges):
        if sum(extras) > search.extra_budget:
            continue
        registers = dict(fixed)
        for group, extra in zip(search.order, extras):
            registers[group.name] = 1 + extra
        cycles = objective_cycles(kernel, groups, registers, budget, context)
        if extras:
            floor = search._sibling_floor(extras, registers)
            assert floor <= cycles, (
                f"{kernel.name} B={budget} {registers}: pre-check {floor} "
                f"above the leaf's {cycles} cycles"
            )
        for head in ((), extras[:1]):
            best_below[head] = min(cycles, best_below.get(head, cycles))
    for head, best in best_below.items():
        decided = dict(fixed)
        for group, extra in zip(search.order, head):
            decided[group.name] = 1 + extra
        bound = search._relaxed_bound(decided, search.extra_budget - sum(head))
        assert bound <= best, (
            f"{kernel.name} B={budget} prefix {head}: meet bound {bound} "
            f"above the best completion's {best} cycles"
        )


@pytest.mark.oracle
@pytest.mark.parametrize("name", REGISTERED)
def test_optra_bounds_admissible_on_registered_kernels(name, shared_context):
    kernel = get_kernel(name)
    groups = build_groups(kernel)
    for budget in BOUND_BUDGETS:
        if budget >= len(groups):
            assert_bounds_admissible(kernel, groups, budget, shared_context)


@pytest.mark.slow
@pytest.mark.oracle
def test_optra_bounds_admissible_on_fuzz_kernels():
    for seed in range(120):
        case = oracle_case(seed)
        assert_bounds_admissible(case.kernel, case.groups, case.budget)


# -- dominance ----------------------------------------------------------------


@pytest.mark.oracle
@pytest.mark.parametrize("name", REGISTERED)
def test_optra_dominates_heuristics_on_registered_kernels(
    name, shared_context
):
    kernel = get_kernel(name)
    groups = build_groups(kernel)
    for budget in sorted({len(groups), 12, 24}):
        if budget < len(groups):
            continue
        opt = _tuned_opt().allocate(
            kernel, budget, groups, context=shared_context
        )
        opt_cycles = objective_cycles(
            kernel, groups, dict(opt.registers), budget, shared_context
        )
        assert opt.lower_bound == opt_cycles
        for heuristic in HEURISTICS:
            allocation = allocator_by_name(heuristic).allocate(
                kernel, budget, groups, context=shared_context
            )
            cycles = objective_cycles(
                kernel, groups, dict(allocation.registers), budget,
                shared_context,
            )
            assert opt_cycles <= cycles, (
                f"{name} B={budget}: OPT-RA {opt_cycles} worse than "
                f"{heuristic} {cycles}"
            )


# -- determinism --------------------------------------------------------------


@pytest.mark.oracle
def test_optra_deterministic_across_runs_and_contexts():
    """Same vector from repeated runs, fresh/shared/absent contexts."""
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    baseline = _tuned_opt().allocate(kernel, 12, groups)
    ctx = EvalContext()
    for allocation in (
        _tuned_opt().allocate(kernel, 12, groups),
        _tuned_opt().allocate(kernel, 12, groups, context=ctx),
        _tuned_opt().allocate(kernel, 12, groups, context=ctx),  # warm
        _tuned_opt().allocate(kernel, 12, groups, context=EvalContext()),
    ):
        assert allocation.registers == baseline.registers
        assert allocation.certified
        assert allocation.lower_bound == baseline.lower_bound


#: The search counters (nodes, leaves evaluated, meet-bound cuts,
#: sibling pre-check cuts) of two pinned points.  A change to the branch
#: order or to either bound tier moves them.
PINNED_COUNTERS = {
    ("fir", 64): (576, 33, 15, 510),
    ("imi", 64): (976, 465, 29, 451),
}


def _certified_line(query, context):
    design, _ = design_for(query, context=context)
    (line,) = [
        text for text in design.allocation.trace
        if text.startswith("opt-ra: certified optimum")
    ]
    return line


def test_optra_search_counters_in_trace():
    """The decision trace reports the search's counters; they are pinned,
    and they are a property of the search alone: the context a jobs=1
    sweep evaluated in and a fresh context give the same line for
    fir@64."""
    swept = EvalContext()
    Executor(jobs=1, context=swept).run([
        DesignQuery.from_kernel(get_kernel("fir"), allocator, budget)
        for allocator in ("OPT-RA", "KS-RA")
        for budget in (16, 32, 64)
    ])
    fir = DesignQuery.from_kernel(get_kernel("fir"), "OPT-RA", 64)
    assert _certified_line(fir, swept) == _certified_line(fir, EvalContext())
    for (name, budget), pinned in PINNED_COUNTERS.items():
        query = DesignQuery.from_kernel(get_kernel(name), "OPT-RA", budget)
        line = _certified_line(query, EvalContext())
        counts = re.search(
            r"after (\d+) nodes \((\d+) leaves evaluated; cut (\d+) by the "
            r"meet bound, (\d+) leaves by the sibling pre-check\)$",
            line,
        )
        assert counts is not None, line
        nodes, leaves, meet, sibling = map(int, counts.groups())
        assert (nodes, leaves, meet, sibling) == pinned, (name, budget, line)
        assert leaves + sibling <= nodes


@pytest.mark.oracle
def test_optra_records_identical_jobs1_vs_jobs2():
    queries = [
        DesignQuery.from_kernel(get_kernel(name), "OPT-RA", budget)
        for name in ("fir", "mat")
        for budget in (8, 12)
    ]
    serial = Executor(jobs=1).run(queries)
    parallel = Executor(jobs=2).run(queries)
    for left, right in zip(serial, parallel):
        assert left == right  # full record equality (seconds excluded)
        assert left.certified is True
        assert left.opt_lower_bound == left.cycles


# -- infeasibility agreement --------------------------------------------------


@pytest.mark.oracle
def test_optra_agrees_on_infeasible_budgets():
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    floor = len(groups)
    for name in ("OPT-RA",) + HEURISTICS:
        with pytest.raises(AllocationError):
            allocator_by_name(name).allocate(kernel, floor - 1, groups)


# -- error paths and provenance ----------------------------------------------


def test_allocator_by_name_unknown():
    with pytest.raises(ReproError, match="unknown allocator"):
        allocator_by_name("OPT-RA-2")


def test_optra_rejects_bad_boxes():
    with pytest.raises(ReproError, match="node_limit"):
        OptimalAllocator(node_limit=0)


def test_optra_node_box_returns_anytime_bound():
    """Truncation yields an incumbent + bracket, never an exception."""
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    first = _tuned_opt(node_limit=1).allocate(kernel, 64, groups)
    again = _tuned_opt(node_limit=1).allocate(kernel, 64, groups)
    assert not first.certified
    assert first.lower_bound is not None
    cycles = objective_cycles(kernel, groups, dict(first.registers), 64)
    assert first.lower_bound <= cycles
    # Seeded from the heuristics: never worse than any of them.
    for heuristic in HEURISTICS:
        allocation = allocator_by_name(heuristic).allocate(
            kernel, 64, groups
        )
        assert cycles <= objective_cycles(
            kernel, groups, dict(allocation.registers), 64
        )
    # The node box is deterministic, unlike a wall clock.
    assert again.registers == first.registers
    assert again.lower_bound == first.lower_bound
    # The exact run at the same budget brackets inside the bound.
    exact = _tuned_opt().allocate(kernel, 64, groups)
    assert first.lower_bound <= exact.lower_bound <= cycles


def test_optra_truncated_never_enters_context_memo():
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    ctx = EvalContext()
    truncated = _tuned_opt(node_limit=1).allocate(
        kernel, 64, groups, context=ctx
    )
    assert not truncated.certified
    # A later exact solve must not be answered by the truncated run.
    exact = _tuned_opt().allocate(kernel, 64, groups, context=ctx)
    assert exact.certified
    fresh = _tuned_opt().allocate(kernel, 64, groups)
    assert exact.registers == fresh.registers


def test_cache_refuses_truncated_records(tmp_path):
    cache = ResultCache(tmp_path)
    query = DesignQuery(kernel="fir", allocator="OPT-RA", budget=64)
    record = DesignRecord(
        query=query, cycles=1, certified=False, opt_lower_bound=0
    )
    with pytest.raises(ReproError, match="truncated"):
        cache.put(record)
    assert len(cache) == 0


def test_executor_skips_caching_truncated_records(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.core.optra.DEFAULT_NODE_LIMIT", 1)
    cache = ResultCache(tmp_path)
    queries = [
        DesignQuery(kernel="fir", allocator="OPT-RA", budget=64),
        DesignQuery(kernel="fir", allocator="CPA-RA", budget=64),
    ]
    results = Executor(jobs=1, cache=cache).run(queries)
    opt, cpa = results[0], results[1]
    assert opt.ok and opt.truncated and opt.opt_lower_bound <= opt.cycles
    assert not cpa.truncated
    # Only the heuristic record was persisted.
    assert len(cache) == 1
    assert cache.get(queries[1]) == cpa
    assert cache.get(queries[0]) is None


def test_design_record_serializes_provenance_only_for_optra(tmp_path):
    cache = ResultCache(tmp_path)
    records = Executor(jobs=1, cache=cache).run(
        [
            DesignQuery(kernel="mat", allocator="OPT-RA", budget=8),
            DesignQuery(kernel="mat", allocator="KS-RA", budget=8),
        ]
    )
    opt, ks = records[0], records[1]
    assert opt.certified is True and opt.opt_lower_bound == opt.cycles
    assert ks.certified is None and ks.opt_lower_bound is None
    assert "certified" in opt.to_dict()
    assert "certified" not in ks.to_dict()  # heuristic docs unchanged
    for query, record in zip(
        (q for q in (records[0].query, records[1].query)), records
    ):
        assert DesignRecord.from_dict(record.to_dict()) == record
        assert cache.get(query) == record  # round-trips through disk


def test_optra_registered_in_pipeline():
    assert "OPT-RA" in _ALLOCATORS
    allocator = allocator_by_name("OPT-RA")
    assert isinstance(allocator, OptimalAllocator)
    assert allocator.name == "OPT-RA"
    assert DEFAULT_NODE_LIMIT >= 10_000
