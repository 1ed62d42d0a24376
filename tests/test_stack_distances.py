"""The one-pass OPT stack distances behind window coverage.

``opt_stack_distances`` claims that one pass over a window group's
address stream answers every capacity of the production
Belady-with-bypass trace: the access at position ``i`` misses at
capacity ``c`` exactly when ``distances[i] > c``.  These tests hold it
to the per-capacity ``opt_trace`` miss flags and to the reference
simulator of ``residency_oracle.py``, on every registered window group
and on fuzz streams, and check that the coverage results built from it
(masks, counts and the lazily traced placement arrays) equal the
per-count reference coverage of ``coverage_oracle.py`` field for field.
"""

import dataclasses
import random

import numpy as np
import pytest
import residency_oracle

from coverage_oracle import ReferenceCoverage
from fuzz_kernels import random_case, random_stream, random_tiled_stream
from repro.analysis.groups import build_groups
from repro.core.allocation import Allocation
from repro.errors import SimulationError
from repro.kernels.registry import KERNEL_FACTORIES, get_kernel
from repro.scalar.coverage import GroupCoverage
from repro.sim.interp import random_inputs, run_kernel, run_scalar_replaced
from repro.sim.residency import (
    OptTraceLadder,
    opt_stack_distances,
    opt_trace,
)
from repro.spans import collect

PLACEMENT = ("window_inserted", "window_evicted", "window_freed")


def _assert_matches_traces(stream, max_capacity, periods=None, label=""):
    """Distances vs per-capacity trace misses (production and reference
    simulator), capacities 0..max."""
    stream = np.asarray(stream, dtype=np.int64)
    distances = opt_stack_distances(stream, max_capacity, periods)
    assert distances.shape == stream.shape
    assert distances.min(initial=1) >= 1
    assert distances.max(initial=1) <= max_capacity + 1
    plane = OptTraceLadder(stream, periods=periods)
    row_len = periods[0] if periods else None
    for capacity in range(max_capacity + 1):
        misses = plane.trace(capacity)[0]
        assert np.array_equal(distances > capacity, misses), (
            f"{label} capacity={capacity}"
        )
        reference = residency_oracle.opt_trace(stream, capacity, row_len)[0]
        assert np.array_equal(distances > capacity, reference), (
            f"{label} reference capacity={capacity}"
        )
    return distances


def _window_groups():
    for name in sorted(KERNEL_FACTORIES):
        kernel = get_kernel(name)
        for group in build_groups(kernel):
            coverage = GroupCoverage(kernel, group)
            if coverage.kind == "window":
                yield name, kernel, group, coverage


WINDOW_GROUPS = [(name, group.name) for name, _, group, _ in _window_groups()]


# -- opt_stack_distances vs per-capacity traces --------------------------------


@pytest.mark.parametrize("kernel_name, group_name", WINDOW_GROUPS)
def test_registered_window_groups_match_traces(kernel_name, group_name):
    """Every registered window stream, capacities 0 to beta + 2."""
    (kernel, group, coverage), = [
        (k, g, c) for name, k, g, c in _window_groups()
        if (name, g.name) == (kernel_name, group_name)
    ]
    stream = coverage._window_stream()
    periods = coverage._window_periods()
    distances = _assert_matches_traces(
        stream, coverage.beta + 2, periods, label=f"{kernel_name}:{group_name}"
    )
    # The coverage computer's own pass (truncated at beta) agrees on
    # every capacity it is asked about.
    own = coverage._window_distances()
    for capacity in range(coverage.beta + 1):
        assert np.array_equal(own > capacity, distances > capacity)


def test_registered_window_groups_include_the_2d_window():
    assert ("bic", "I[r + u][c + v]") in WINDOW_GROUPS
    assert len(WINDOW_GROUPS) >= 4


def _fuzz_streams():
    rng = random.Random(1307)
    # Periodic with shifts (row memo and fixpoint runs).
    for seed in range(40):
        addresses, capacity, row_len = random_stream(seed)
        yield f"periodic-{seed}", addresses, capacity + 2, (row_len,)
    # Tile-periodic rows that never repeat (the period ladder).
    for seed in range(20):
        addresses, capacity, periods = random_tiled_stream(seed)
        yield f"tiled-{seed}", addresses, capacity + 2, periods
        # Short periods on a small stack: every ladder level is walked.
        yield f"tiled-fine-{seed}", addresses, 2, periods
    # Random streams over small and large address ranges.
    for index in range(40):
        span = rng.choice((2, 3, 5, 12, 40))
        length = rng.randint(1, 60)
        addresses = [rng.randint(0, span) for _ in range(length)]
        yield f"random-{index}", addresses, rng.randint(0, 9), None
    # Never-reused addresses: every access misses at every capacity.
    yield "never-reused", list(range(50)), 6, (10, 5)
    # Length 1 and length 0.
    yield "length-1", [7], 3, None
    yield "empty", [], 3, None
    # Capacity 0: every access misses.
    yield "capacity-0", [1, 2, 1, 2, 1], 0, None
    # Non-divisor periods are dropped, as in opt_trace.
    yield "non-divisor", [0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 0], 4, (4, 3)
    # The hole case: b is bypassed at capacity 1 (a's next use is
    # sooner), then a is freed at its last use while b waits below it.
    # The freed slot must stay a hole: b only hits at capacity 2.
    yield "hole", [0, 1, 0, 1], 3, None
    yield "hole-deep", [0, 1, 2, 0, 2, 1, 3, 1, 3], 4, None


@pytest.mark.parametrize(
    "label, addresses, max_capacity, periods",
    list(_fuzz_streams()),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_fuzz_streams_match_traces(label, addresses, max_capacity, periods):
    _assert_matches_traces(addresses, max_capacity, periods, label=label)


def test_hole_is_not_filled_from_below():
    """b waits one slot below a freed value: it hits only at two registers."""
    distances = opt_stack_distances(np.array([0, 1, 0, 1]), 3)
    assert distances.tolist() == [4, 4, 1, 2]


def test_edge_cases():
    assert opt_stack_distances(np.array([], dtype=np.int64), 4).shape == (0,)
    assert opt_stack_distances(np.array([5, 5, 5]), 0).tolist() == [1, 1, 1]
    assert opt_stack_distances(np.array([3]), 2).tolist() == [3]
    never = opt_stack_distances(np.arange(20), 5)
    assert (never == 6).all()
    with pytest.raises(SimulationError):
        opt_stack_distances(np.array([1]), -1)


def test_plane_shares_links_with_traces():
    """The plane method and the function agree, and traces still work."""
    stream = np.array([0, 1, 2, 0, 1, 2, 1, 2, 3, 1, 2, 3], dtype=np.int64)
    plane = OptTraceLadder(stream, periods=(6, 3))
    distances = plane.stack_distances(4)
    assert np.array_equal(distances, opt_stack_distances(stream, 4, (6, 3)))
    for capacity in range(5):
        assert np.array_equal(
            plane.trace(capacity)[0], opt_trace(stream, capacity)[0]
        )


# -- coverage results: distance pass vs the per-count reference ---------------


def _assert_results_equal(fast, slow, label):
    for f in dataclasses.fields(fast):
        if not f.compare:
            continue
        left, right = getattr(fast, f.name), getattr(slow, f.name)
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            assert np.array_equal(left, right), f"{label}: {f.name}"
        else:
            assert left == right, f"{label}: {f.name}"
    for name in PLACEMENT + ("ram_reads", "write_misses", "total_ram_accesses"):
        left, right = getattr(fast, name), getattr(slow, name)
        if left is None or right is None:
            assert left is right, f"{label}: {name}"
        else:
            assert np.array_equal(left, right), f"{label}: {name}"


def _assert_group_twins(kernel, group, registers_values, label):
    fast = GroupCoverage(kernel, group)
    reference = ReferenceCoverage(kernel, group)
    ladder = fast.ram_access_ladder(registers_values)
    for registers in registers_values:
        result = fast.result(registers)
        _assert_results_equal(
            result, reference.result(registers), f"{label} r={registers}"
        )
        assert ladder[registers] == result.total_ram_accesses


@pytest.mark.parametrize("kernel_name, group_name", WINDOW_GROUPS)
def test_registered_window_results_equal_their_twins(kernel_name, group_name):
    kernel = get_kernel(kernel_name)
    (group,) = [g for g in build_groups(kernel) if g.name == group_name]
    beta = group.full_registers
    # Every budget of the sweeps plus the clamp edges around beta.
    values = sorted(
        {0, 1, 2, 3, 4, 8, 12, 16, 24, 32, 48, 64, beta - 1, beta, beta + 2}
    )
    _assert_group_twins(kernel, group, values, f"{kernel_name}:{group_name}")


@pytest.mark.parametrize("seed", range(0, 60, 5))
def test_fuzz_kernel_results_equal_their_twins(seed):
    case = random_case(seed)
    for group in case.groups:
        values = sorted(
            {0, 1, 2, 3, case.budget, group.full_registers,
             group.full_registers + 2}
        )
        _assert_group_twins(
            case.kernel, group, values, f"seed {seed} {group.name}"
        )


def test_placement_is_traced_lazily_and_charged_to_the_trace_span():
    kernel = get_kernel("bic")
    (group,) = [g for g in build_groups(kernel) if g.name == "I[r + u][c + v]"]
    coverage = GroupCoverage(kernel, group)
    result = coverage.result(20)
    traced = []
    real = coverage._plane().trace

    def spy(capacity):
        traced.append(capacity)
        return real(capacity)

    coverage._window_plane.trace = spy
    assert result.ram_reads > 0  # masks need no placement trace
    assert traced == []
    with collect() as stages:
        inserted = result.window_inserted
    assert traced == [20]
    assert stages["trace"] > 0.0
    # Read once, kept: the other arrays come from the same trace.
    assert result.window_evicted is not None
    assert result.window_freed is not None
    assert result.window_inserted is inserted
    assert traced == [20]


def test_distance_pass_is_charged_to_the_trace_span():
    kernel = get_kernel("fir")
    (group,) = [
        g for g in build_groups(kernel)
        if GroupCoverage(kernel, g).kind == "window"
    ]
    with collect() as stages:
        GroupCoverage(kernel, group).result(8)
    assert stages["trace"] > 0.0


# -- interpreter replay --------------------------------------------------------


def test_bic_replays_through_the_interpreter_at_a_partial_window():
    """The 2-D window has no steady state; its lazily traced placement
    must still replay exactly, with the RAM traffic the masks claim."""
    kernel = get_kernel("bic")
    groups = build_groups(kernel)
    registers = {g.name: 1 for g in groups}
    window = "I[r + u][c + v]"
    registers[window] = 20  # well below its beta of 64
    allocation = Allocation(
        kernel_name=kernel.name,
        algorithm="manual",
        budget=sum(registers.values()),
        registers=registers,
        betas={g.name: g.full_registers for g in groups},
    )
    inputs = random_inputs(kernel, seed=13)
    golden = run_kernel(kernel, inputs)
    run = run_scalar_replaced(kernel, groups, allocation, inputs)
    for name, expected in golden.items():
        assert np.array_equal(run.memory[name], expected), name
    for group in groups:
        expected = GroupCoverage(kernel, group).ram_accesses(
            allocation.registers_for(group.name)
        )
        assert run.ram_accesses[group.name] == expected, group.name
    assert 0 < run.register_high_water[window] <= 20
