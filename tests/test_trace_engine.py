"""The trace engine: its stage in the profile and its period ladder.

The profile splits the residency share out into its own ``trace``
stage, and the period ladder actually replays tiles when outer rows
never repeat (bit-identical to the reference simulator of
``residency_oracle.py``).
"""

import numpy as np
import residency_oracle as oracle

from repro.explore import DesignQuery, EvalContext, run_queries
from repro.sim import residency
from repro.sim.residency import opt_trace


def test_profile_splits_out_a_trace_stage():
    results = run_queries([DesignQuery(kernel="fir", allocator="PR-RA",
                                       budget=16)], context=EvalContext())
    stages = results.stats.stage_seconds
    assert "trace" in stages and stages["trace"] > 0.0
    assert stages.get("cycles", 0.0) >= 0.0
    assert "trace engine" in results.stats.profile()


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
