"""Budget-ladder pins: every budget of an axis from one shared pass.

The LRU miss-count ladder (:func:`~repro.sim.residency.lru_miss_counts`)
and the capacity-shared trace plane (:class:`~repro.sim.residency.OptTraceLadder`) are pinned
white-box against per-capacity simulation; coverage's
:meth:`~repro.scalar.coverage.GroupCoverage.ram_access_ladder` and its
masks are pinned against the per-count reference coverage of
``coverage_oracle.py``; and the profile's trace stage survives worker
pools.
"""

import numpy as np
import pytest
import residency_oracle

from coverage_oracle import ReferenceCoverage
from fuzz_kernels import random_case, random_stream
from repro.errors import AnalysisError, SimulationError
from repro.explore import (
    DesignQuery,
    EvalContext,
    Executor,
    reset_process_context,
)
from repro.scalar.coverage import GroupCoverage
from repro.sim.residency import (
    OptTraceLadder,
    lru_miss_counts,
    lru_misses,
    opt_trace,
)


# -- miss-count ladders: white-box histogram / suffix-sum pins ----------------


def test_lru_miss_counts_matches_brute_force_simulation():
    for seed in range(80):
        addresses, _, _ = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        footprint = len(set(addresses))
        capacities = sorted({0, 1, 2, 3, 7, footprint, footprint + 5, 256})
        ladder = lru_miss_counts(stream, capacities)
        assert sorted(ladder) == capacities
        for capacity in capacities:
            want = int(residency_oracle.lru_misses(stream, capacity).sum())
            assert ladder[capacity] == want, f"seed {seed} cap {capacity}"
            # ... and the per-access API agrees with its own histogram.
            assert int(lru_misses(stream, capacity).sum()) == want


def test_lru_miss_counts_edges():
    empty = np.asarray([], dtype=np.int64)
    assert lru_miss_counts(empty, [0, 1, 4]) == {0: 0, 1: 0, 4: 0}
    stream = np.asarray([5, 5, 5], dtype=np.int64)
    assert lru_miss_counts(stream, [0, 1]) == {0: 3, 1: 1}
    with pytest.raises(SimulationError):
        lru_miss_counts(stream, [-1])


# -- the capacity-shared trace plane ------------------------------------------


def _assert_traces_equal(expected, got, label):
    for name, left, right in zip(
        ("misses", "inserted", "evicted", "freed"), expected, got
    ):
        assert np.array_equal(left, right), f"{label}: {name} diverged"


@pytest.mark.parametrize("engine", ("array", "reference"))
def test_trace_plane_is_bit_identical_across_shared_capacities(engine):
    """One plane, many capacities in adversarial order == fresh traces:
    fresh production traces (``array``) and the reference simulator."""
    for seed in range(40):
        addresses, capacity, row_len = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        capacities = [capacity, 1, capacity + 7, 2, capacity, 0, 64]
        plane = OptTraceLadder(stream, periods=(row_len,))
        for c in capacities:
            if engine == "array":
                fresh = opt_trace(stream, c, periods=(row_len,))
            else:
                fresh = residency_oracle.opt_trace(stream, c, row_len=row_len)
            _assert_traces_equal(
                fresh, plane.trace(c), f"seed {seed} cap {c} ({engine})"
            )


def test_opt_trace_ladder_convenience_matches_opt_trace():
    for seed in range(20):
        addresses, capacity, row_len = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        capacities = sorted({0, 1, capacity, capacity + 3})
        plane = OptTraceLadder(stream, periods=(row_len,))
        for c in capacities:
            _assert_traces_equal(
                opt_trace(stream, c, periods=(row_len,)), plane.trace(c),
                f"seed {seed}/{c}",
            )


def test_trace_plane_validation():
    plane = OptTraceLadder(np.asarray([1, 2, 1], dtype=np.int64))
    with pytest.raises(SimulationError):
        plane.trace(-1)
    misses, inserted, evicted, freed = plane.trace(0)
    assert misses.all() and not inserted.any()
    assert (evicted == -1).all() and not freed.any()


# -- coverage: the pinned rank-histogram budget axis --------------------------


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_ram_access_ladder_matches_per_count_results(seed):
    case = random_case(seed)
    values = sorted({0, 1, 2, 3, case.budget, case.budget + 4})
    for group in case.groups:
        for anchor in ("low", "high"):
            fast = GroupCoverage(case.kernel, group)
            slow = ReferenceCoverage(case.kernel, group)
            ladder = fast.ram_access_ladder(values, anchor=anchor)
            for registers in values:
                want = slow.result(registers, anchor=anchor).total_ram_accesses
                assert ladder[registers] == want, (
                    f"seed {seed} group {group.name} r={registers} {anchor}"
                )
    with pytest.raises(AnalysisError):
        GroupCoverage(case.kernel, case.groups[0]).ram_access_ladder(
            [1], anchor="middle"
        )
    with pytest.raises(AnalysisError):
        GroupCoverage(case.kernel, case.groups[0]).ram_access_ladder([-1])


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_fuzz_coverage_ladder_masks_equal(seed):
    """Full coverage masks agree with the per-count reference."""
    case = random_case(seed)
    for group in case.groups:
        for registers in {0, 2, case.budget, group.full_registers}:
            for anchor in ("low", "high"):
                fast = GroupCoverage(case.kernel, group).result(
                    registers, anchor=anchor
                )
                slow = ReferenceCoverage(case.kernel, group).result(
                    registers, anchor=anchor
                )
                assert np.array_equal(fast.read_miss, slow.read_miss)
                assert np.array_equal(fast.write_miss, slow.write_miss)
                assert fast.writeback_stores == slow.writeback_stores


# -- profile -----------------------------------------------------------------


def test_profile_trace_stage_survives_worker_pools():
    """Stage seconds are jobs-invariant: the trace clock folds worker-side.

    Before the fix, ``--profile`` undercounted the trace stage under
    ``--jobs N>1``: the fold ran in the parent, after the worker's
    stage dict had already been pickled.
    """
    queries = [
        DesignQuery(kernel="fir", allocator="PR-RA", budget=budget)
        for budget in (8, 12, 16, 24)
    ]
    solo = Executor(jobs=1, context=EvalContext()).run(queries)
    # Workers fork the parent's process context: start them cold so
    # they do the trace work themselves.
    reset_process_context()
    pooled = Executor(jobs=2).run(queries)
    for results in (solo, pooled):
        stages = results.stats.stage_seconds
        assert "trace" in stages and stages["trace"] > 0.0
    # Which point of a worker pays the kernel's (memoized) trace work
    # depends on the lease order; the stage set of the sweep does not.
    assert set(solo.stats.stage_seconds) == set(pooled.stats.stage_seconds)
