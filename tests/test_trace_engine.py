"""The trace engine: its stage in the profile and its period ladder.

The profile splits the residency share out into its own ``trace``
stage, and the period ladder actually replays tiles when outer rows
never repeat (bit-identical to the reference simulator of
``residency_oracle.py``).
"""

import time

import numpy as np
import residency_oracle as oracle

from repro.explore import DesignQuery, EvalContext, Executor
from repro.explore.evaluate import evaluate_query
from repro.sim import residency
from repro.sim.residency import OptTraceLadder, opt_trace
from repro.synth import estimate


def test_profile_splits_out_a_trace_stage():
    results = Executor(context=EvalContext()).run(
        [DesignQuery(kernel="fir", allocator="PR-RA", budget=16)]
    )
    stages = results.stats.stage_seconds
    assert "trace" in stages and stages["trace"] > 0.0
    assert stages.get("cycles", 0.0) >= 0.0
    assert "trace engine" in results.stats.profile()


def test_trace_inside_allocation_is_not_taken_from_cycles(monkeypatch):
    """OPT-RA runs the window distance pass inside ``allocate`` (on a
    fresh context): that time is charged to ``trace`` alone, and the
    cycle count keeps its own."""
    distances = OptTraceLadder.stack_distances
    count = estimate.count_with_best_anchors

    def slow_distances(self, *args, **kwargs):
        time.sleep(0.05)
        return distances(self, *args, **kwargs)

    def slow_count(*args, **kwargs):
        time.sleep(0.03)
        return count(*args, **kwargs)

    monkeypatch.setattr(OptTraceLadder, "stack_distances", slow_distances)
    # build_design's call only: OPT-RA's leaves import the function.
    monkeypatch.setattr(estimate, "count_with_best_anchors", slow_count)
    record = evaluate_query(
        DesignQuery(kernel="fir", allocator="OPT-RA", budget=16),
        context=EvalContext(),
    )
    assert record.ok
    assert record.stages["trace"] >= 0.05
    assert record.stages["cycles"] >= 0.03


def test_ladder_replays_tiles_when_rows_never_repeat(monkeypatch):
    """White-box: the tile level cuts per-access simulation work.

    The stream's rows never repeat (per-row tile stride grows), so a
    row-only memo simulates every row; with the tile period on the
    ladder, only the first tile of each distinct (state, pattern) class
    is simulated and the rest replay.
    """
    pattern = (0, 1, 0, 1)
    addresses = []
    for row in range(4):
        stride = 10 * (row + 1)  # rows are never shift-equal
        for tile in range(3):
            base = 1000 * row + tile * stride
            addresses.extend(base + offset for offset in pattern)
    stream = np.asarray(addresses, dtype=np.int64)

    spans = []
    real = residency._StackWalk._step

    def spy(walk, positions, *args, **kwargs):
        spans.append(len(positions))
        return real(walk, positions, *args, **kwargs)

    reference = oracle.opt_trace(stream, 2)
    monkeypatch.setattr(residency._StackWalk, "_step", spy)

    spans.clear()
    row_only = opt_trace(stream, 2, periods=(12,))
    row_only_accesses = sum(spans)

    spans.clear()
    laddered = opt_trace(stream, 2, periods=(12, 4))
    ladder_accesses = sum(spans)

    for left, mid, right in zip(reference, row_only, laddered):
        assert np.array_equal(left, mid)
        assert np.array_equal(left, right)
    # Row-only simulates all 48 accesses; the ladder simulates one tile.
    assert ladder_accesses < row_only_accesses
    assert ladder_accesses <= len(pattern)
