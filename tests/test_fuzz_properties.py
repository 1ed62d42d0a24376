"""Property/fuzz tests: allocator invariants over random affine kernels.

Each seed builds a random kernel (see :mod:`fuzz_kernels`) and asserts,
at a feasible random budget:

* every allocator allocates without error at/above the mandatory floor;
* NO-SR is the RAM-access worst case, and every allocator's cycle count
  is no worse than NO-SR's (scalar replacement only removes accesses);
* the exact knapsack saves at least as many accesses as the greedy
  full-reuse allocator (same 0/1 decision space, DP optimum);
* KS-RA's knapsack objective dominates every allocator's fully-replaced
  set (each such set is a feasible 0/1 solution);
* the batched production evaluation is bit-identical to the unbatched
  reference coverage of ``coverage_oracle.py``: coverage masks per
  group, the whole cycle report, and (sampled) the full design record —
  on the random corpus and on the six registered kernels.

The Belady row-memoized trace is additionally fuzzed directly on random
address streams against ``residency_oracle.py``, including row lengths
that do not match any steady state.
"""

import numpy as np
import pytest
import residency_oracle

from coverage_oracle import ReferenceCoverage, reference_coverages
from fuzz_kernels import (
    oracle_case,
    random_case,
    random_kernel,
    random_stream,
    random_tiled_stream,
)
from repro.analysis.groups import build_groups
from repro.core.optra import OptimalAllocator
from repro.core.pipeline import allocator_by_name
from repro.dfg.latency import LatencyModel
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.scalar.coverage import GroupCoverage
from repro.sim.cycles import count_cycles
from repro.sim.residency import (
    OptTraceLadder,
    lru_miss_counts,
    lru_misses,
    opt_trace,
    pinned_misses,
)
from repro.synth.estimate import Objective, build_design

ALGORITHMS = ("FR-RA", "PR-RA", "CPA-RA", "KS-RA", "NO-SR")
SEEDS = range(120)
MODEL = LatencyModel.realistic(ram_latency=2)
OBJECTIVE = Objective(MODEL, ram_ports=1, overhead_per_iteration=1)


def _reports(case, coverages=None):
    reports = {}
    for algorithm in ALGORITHMS:
        allocation = allocator_by_name(algorithm).allocate(
            case.kernel, case.budget, case.groups
        )
        reports[algorithm] = (
            allocation,
            count_cycles(
                case.kernel, case.groups, allocation, OBJECTIVE,
                coverages=coverages,
            ),
        )
    return reports


def _full_set_objective(allocation, groups) -> int:
    return sum(
        group.full_saved
        for group in groups
        if group.has_reuse
        and allocation.registers_for(group.name) >= group.full_registers
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_allocator_invariants(seed):
    case = random_case(seed)
    reports = _reports(case)
    naive_alloc, naive = reports["NO-SR"]

    assert _full_set_objective(naive_alloc, case.groups) == 0
    ks_objective = _full_set_objective(reports["KS-RA"][0], case.groups)
    for algorithm, (allocation, report) in reports.items():
        assert allocation.total_registers <= case.budget, (
            f"seed {seed}: {algorithm} overflowed the budget"
        )
        # NO-SR worst case: replacement only ever removes RAM accesses.
        assert report.total_ram_accesses <= naive.total_ram_accesses, (
            f"seed {seed}: {algorithm} performs more RAM accesses than NO-SR"
        )
        assert report.total_cycles <= naive.total_cycles, (
            f"seed {seed}: {algorithm} is slower than NO-SR"
        )
        # KS-RA objective dominance over every feasible 0/1 full set.
        assert ks_objective >= _full_set_objective(allocation, case.groups), (
            f"seed {seed}: KS-RA objective beaten by {algorithm}"
        )

    saved_ks = (
        naive.total_ram_accesses - reports["KS-RA"][1].total_ram_accesses
    )
    saved_fr = (
        naive.total_ram_accesses - reports["FR-RA"][1].total_ram_accesses
    )
    assert saved_ks >= saved_fr, (
        f"seed {seed}: knapsack saved {saved_ks} < greedy's {saved_fr}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_batched_equals_unbatched(seed):
    """The whole cycle report over production coverage == over the
    unbatched per-count reference coverage (``coverage_oracle.py``)."""
    case = random_case(seed)
    batched = _reports(case)
    reference = _reports(case, reference_coverages(case.kernel, case.groups))
    for algorithm in ALGORITHMS:
        allocation, report = batched[algorithm]
        _, expected = reference[algorithm]
        assert report == expected, (
            f"seed {seed}: {algorithm} batched cycle report diverged"
        )
        # Coverage masks are the ground the report stands on — compare
        # them directly too, at the allocated register counts.
        for group in case.groups:
            registers = allocation.registers_for(group.name)
            for anchor in ("low", "high"):
                _assert_coverage_equal(
                    GroupCoverage(case.kernel, group).result(
                        registers, anchor=anchor
                    ),
                    ReferenceCoverage(case.kernel, group).result(
                        registers, anchor=anchor
                    ),
                )


def _assert_coverage_equal(fast, slow):
    assert fast.kind == slow.kind
    assert np.array_equal(fast.read_miss, slow.read_miss)
    assert np.array_equal(fast.write_miss, slow.write_miss)
    assert fast.writeback_stores == slow.writeback_stores
    if fast.window_inserted is not None or slow.window_inserted is not None:
        assert np.array_equal(fast.window_inserted, slow.window_inserted)
        assert np.array_equal(fast.window_evicted, slow.window_evicted)
        assert np.array_equal(fast.window_freed, slow.window_freed)


REGISTERED = sorted(KERNEL_FACTORIES)


@pytest.mark.parametrize("kernel_name", REGISTERED)
def test_registered_kernels_count_like_reference_coverage(kernel_name):
    """The whole-record differential on the six registered kernels:
    every allocator at three budgets, production coverage vs the
    reference coverage, full CycleReport equality."""
    from repro.errors import AllocationError

    kernel = get_kernel(kernel_name)
    groups = build_groups(kernel)
    reference = reference_coverages(kernel, groups)
    for algorithm in ALGORITHMS:
        for budget in (8, 24, 64):
            try:
                allocation = allocator_by_name(algorithm).allocate(
                    kernel, budget, groups
                )
            except AllocationError:
                continue
            want = count_cycles(
                kernel, groups, allocation, OBJECTIVE, coverages=reference
            )
            got = count_cycles(kernel, groups, allocation, OBJECTIVE)
            assert got == want, f"{kernel_name} {algorithm}@{budget}"


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_fuzz_full_design_batched_equals_unbatched(seed):
    """End-to-end spot checks: whole HardwareDesign metrics, both paths."""
    case = random_case(seed)
    for algorithm in ("CPA-RA", "PR-RA"):
        allocation = allocator_by_name(algorithm).allocate(
            case.kernel, case.budget, case.groups
        )
        fast = build_design(case.kernel, allocation, groups=case.groups)
        slow = build_design(
            case.kernel, allocation, groups=case.groups,
            coverages=reference_coverages(case.kernel, case.groups),
        )
        assert fast.cycles == slow.cycles
        assert fast.total_cycles == slow.total_cycles
        assert fast.clock_ns == slow.clock_ns
        assert fast.wall_clock_us == slow.wall_clock_us
        assert fast.slices == slow.slices


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_fuzz_context_equals_no_context(seed):
    """Shared-artifact evaluation is bit-identical on random kernels:
    the shared context answers what a fresh context per point computes.

    One :class:`EvalContext` is reused across all seeds on purpose: the
    embedded-JSON kernel keys, the LRU and the per-kernel artifact
    bundles must never leak one random kernel's artifacts into
    another's records.
    """
    import dataclasses

    from repro.explore import DesignQuery, EvalContext
    from repro.explore.evaluate import evaluate_query

    ctx = _shared_fuzz_context()
    case = random_case(seed)
    for algorithm in ALGORITHMS:
        query = DesignQuery.from_kernel(case.kernel, algorithm, case.budget)
        reference = evaluate_query(query, context=EvalContext())
        contexted = evaluate_query(query, context=ctx)
        rerun = evaluate_query(query, context=ctx)  # warm artifacts
        for record in (contexted, rerun):
            for f in dataclasses.fields(type(reference)):
                if not f.compare:
                    continue
                assert getattr(record, f.name) == getattr(reference, f.name), (
                    f"seed {seed}/{algorithm}: context diverged on {f.name}"
                )


def _shared_fuzz_context():
    from repro.explore import EvalContext

    global _FUZZ_CONTEXT
    if _FUZZ_CONTEXT is None:
        _FUZZ_CONTEXT = EvalContext(kernel_memo_size=4)
    return _FUZZ_CONTEXT


_FUZZ_CONTEXT = None


def _objective_cycles(case, allocation, ctx):
    """The authoritative design objective (anchor-minimized cycles)."""
    from repro.synth.estimate import count_with_best_anchors

    dfg = ctx.dfg(case.kernel, case.groups)
    coverages = ctx.coverages(case.kernel, case.groups)
    return count_with_best_anchors(
        case.kernel, case.groups, allocation, OBJECTIVE, dfg, coverages,
        context=ctx,
    ).total_cycles


def _optra(case, budget, context=None, node_limit=None):
    return OptimalAllocator(node_limit=node_limit).allocate(
        case.kernel, budget, case.groups, context=context,
        objective=OBJECTIVE,
    )


@pytest.mark.oracle
@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_optra_differential(seed):
    """OPT-RA's contract on the 120-seed corpus.

    Dominance over every heuristic, infeasibility agreement below the
    mandatory floor, budget monotonicity of the certified optimum, and
    the truncated (certified-gap) run bracketing the heuristics.
    """
    from repro.errors import AllocationError

    case = oracle_case(seed)
    ctx = _shared_fuzz_context()
    opt = _optra(case, case.budget, context=ctx)
    assert opt.certified, f"seed {seed}: default box truncated a tiny search"
    opt_cycles = _objective_cycles(case, opt, ctx)
    assert opt.lower_bound == opt_cycles, (
        f"seed {seed}: certified bound {opt.lower_bound} != achieved "
        f"{opt_cycles}"
    )

    heuristic_cycles = {}
    for algorithm in ALGORITHMS:
        allocation = allocator_by_name(algorithm).allocate(
            case.kernel, case.budget, case.groups, context=ctx
        )
        heuristic_cycles[algorithm] = _objective_cycles(case, allocation, ctx)
        assert opt_cycles <= heuristic_cycles[algorithm], (
            f"seed {seed}: OPT-RA {opt_cycles} worse than "
            f"{algorithm} {heuristic_cycles[algorithm]}"
        )

    # Infeasibility agreement: below the mandatory floor, everyone
    # raises the same error type.
    for algorithm in ("OPT-RA",) + ALGORITHMS:
        with pytest.raises(AllocationError):
            allocator_by_name(algorithm).allocate(
                case.kernel, len(case.groups) - 1, case.groups
            )

    # Budget monotonicity: the optimum never worsens as budget grows.
    floor_alloc = _optra(case, len(case.groups), context=ctx)
    assert opt_cycles <= _objective_cycles(case, floor_alloc, ctx), (
        f"seed {seed}: optimum worsened as the budget grew"
    )

    # Certified-gap runs: a node-boxed search still brackets the
    # optimum and every heuristic, deterministically.
    boxed = _optra(case, case.budget, node_limit=1)
    boxed_cycles = _objective_cycles(case, boxed, ctx)
    assert boxed.lower_bound <= opt_cycles <= boxed_cycles, (
        f"seed {seed}: anytime bracket [{boxed.lower_bound}, "
        f"{boxed_cycles}] misses the optimum {opt_cycles}"
    )
    assert boxed_cycles <= min(heuristic_cycles.values()), (
        f"seed {seed}: truncated OPT-RA lost to a heuristic seed"
    )


def test_fuzz_generator_is_deterministic():
    for seed in (0, 7, 42):
        assert random_kernel(seed) == random_kernel(seed)
        assert random_case(seed).budget == random_case(seed).budget
        assert oracle_case(seed).budget == oracle_case(seed).budget


def test_fuzz_opt_trace_row_memoization():
    """Row-batched Belady is bit-identical on 200 random streams."""
    for seed in range(200):
        addresses, capacity, row_len = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        plain = opt_trace(stream, capacity)
        rowed = opt_trace(stream, capacity, periods=(row_len,))
        for left, right in zip(plain, rowed):
            assert np.array_equal(left, right), (
                f"stream seed {seed} (capacity {capacity}, row {row_len})"
            )


def _assert_traces_equal(expected, got, label):
    for name, left, right in zip(
        ("misses", "inserted", "evicted", "freed"), expected, got
    ):
        assert np.array_equal(left, right), f"{label}: {name} diverged"


def test_fuzz_trace_engines_bit_identical():
    """Production vs reference simulator: all four trace arrays, every mode.

    Covers plain spans, the single-row memo, period ladders, and the
    non-divisor period fallback, on 150 random streams.
    """
    for seed in range(150):
        addresses, capacity, row_len = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        reference = residency_oracle.opt_trace(stream, capacity)
        variants = (
            {},
            {"periods": (row_len,)},
            {"periods": (row_len, max(1, row_len // 2))},
            {"periods": (row_len + 1,)},  # non-divisor: plain fallback
            {"periods": (row_len, row_len + 1, 1)},  # broken chain pruned
        )
        for kwargs in variants:
            got = opt_trace(stream, capacity, **kwargs)
            _assert_traces_equal(
                reference, got,
                f"seed {seed} (capacity {capacity}, {kwargs})",
            )
        rowed = residency_oracle.opt_trace(stream, capacity, row_len=row_len)
        _assert_traces_equal(
            reference, rowed, f"seed {seed} reference rowed"
        )


def test_fuzz_tiled_streams_ladder_bit_identical():
    """Inner-tile-periodic streams whose outer rows never repeat.

    The case the period ladder exists for: the row-level memo cannot
    replay anything, the tile level can — and the output must equal the
    reference plain simulation exactly.
    """
    for seed in range(120):
        addresses, capacity, periods = random_tiled_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        reference = residency_oracle.opt_trace(stream, capacity)
        for kwargs in (
            {"periods": periods},
            {"periods": periods[:1]},
            {"periods": periods[1:]},
        ):
            got = opt_trace(stream, capacity, **kwargs)
            _assert_traces_equal(
                reference, got, f"tiled seed {seed} ({kwargs})"
            )


def test_fuzz_budget_ladder_miss_counts_bit_identical():
    """The whole-axis ladder == per-capacity calls on random streams.

    ``lru_miss_counts`` (one histogram + suffix sum) must agree with the
    per-capacity API at every rung, including capacity 0 and capacities
    past the footprint.
    """
    for seed in SEEDS:
        addresses, capacity, _ = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        footprint = len(set(addresses))
        rungs = sorted({0, 1, 2, capacity, footprint, footprint + 7})
        lru_ladder = lru_miss_counts(stream, rungs)
        for rung in rungs:
            assert lru_ladder[rung] == int(lru_misses(stream, rung).sum()), (
                f"lru ladder seed {seed} capacity {rung}"
            )


def test_fuzz_trace_plane_shared_across_capacities():
    """One ``OptTraceLadder`` plane, many capacities == fresh traces.

    Tiled streams exercise the period memo; interleaving small and
    large capacities on the same plane checks that nothing capacity-
    dependent leaks into the shared links or levels.
    """
    for seed in range(60):
        addresses, capacity, periods = random_tiled_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        plane = OptTraceLadder(stream, periods=periods)
        for rung in (capacity, 0, capacity + 5, 1, capacity):
            fresh = opt_trace(stream, rung, periods=periods)
            _assert_traces_equal(
                fresh, plane.trace(rung), f"plane seed {seed} cap {rung}"
            )


def test_fuzz_lru_and_pinned_engines_agree():
    """Stack-distance LRU and first-touch pinned == the reference loops."""
    import random as _random

    for seed in range(120):
        addresses, _, _ = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        for capacity in (0, 1, 2, 3, 5, 9, 64):
            fast = lru_misses(stream, capacity)
            slow = residency_oracle.lru_misses(stream, capacity)
            assert np.array_equal(fast, slow), (
                f"lru seed {seed} capacity {capacity}"
            )
        rng = _random.Random(seed)
        universe = sorted(set(addresses)) or [0]
        pinned = set(rng.sample(universe, rng.randint(0, len(universe))))
        fast = pinned_misses(stream, pinned)
        slow = residency_oracle.pinned_misses(stream, pinned)
        assert np.array_equal(fast, slow), f"pinned seed {seed}"


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_fuzz_coverage_engines_equal(seed):
    """Production coverage masks and placements == the reference
    coverage, at registers past every clamp edge."""
    case = random_case(seed)
    for group in case.groups:
        fast = GroupCoverage(case.kernel, group)
        slow = ReferenceCoverage(case.kernel, group)
        for registers in {0, 1, 2, case.budget, group.full_registers}:
            for anchor in ("low", "high"):
                _assert_coverage_equal(
                    fast.result(registers, anchor=anchor),
                    slow.result(registers, anchor=anchor),
                )
