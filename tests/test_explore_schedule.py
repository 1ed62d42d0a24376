"""Lease dispatch through the executor (`repro.explore.schedule`).

The lease queue must be invisible in the results (the fault matrix of
``test_explore_faults.py`` runs every fault kind through it at jobs 1
and 2).  These tests pin the lease planner (deterministic, fixed-size,
single-kernel leases in query order), the lease count a pooled sweep
submits, read-only-cache degradation and shard-stitch resume under
lease dispatch, and the ``--dry-run`` planner surface.  The sweep
helpers and the fault-free baseline are the fault matrix's own.
"""

import pytest

from repro.cli import main
from repro.explore import (
    DesignQuery,
    ExplorationSpace,
    Executor,
    FaultPlan,
    ResultCache,
    plan_leases,
)
from test_explore_faults import (  # noqa: F401 (baseline is a fixture)
    FAST,
    QUERIES,
    SPACE,
    TARGET,
    baseline,
    docs,
    plan_for,
    sweep,
)


class TestAdaptiveExecutor:
    def test_warm_cache_schedules_identically_to_cold(self, tmp_path):
        # Dispatch changes lease shapes only, never results: a second
        # executor on the same cache, re-evaluating everything,
        # reproduces the cold run's records exactly.
        cold = Executor(jobs=2, cache=tmp_path).run(SPACE)
        warm = Executor(jobs=2, cache=tmp_path, reuse_cache=False).run(SPACE)
        assert [r.to_dict() for r in cold] == [r.to_dict() for r in warm]
        assert warm.stats.evaluated == 4


def test_executor_submits_the_planned_leases():
    """A jobs=2 sweep submits exactly the planned leases (24 points of
    one kernel: 24 singleton leases); jobs=1 dispatches none."""
    queries = [
        DesignQuery(kernel="fir", allocator="NO-SR", budget=b)
        for b in range(4, 52, 2)
    ]
    planned = plan_leases(
        list(enumerate(queries)), jobs=2, key=lambda item: item[1].kernel
    )
    assert [len(lease.items) for lease in planned] == [1] * 24
    serial = Executor(jobs=1).run(queries)
    parallel = Executor(jobs=2).run(queries)
    assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]
    assert parallel.stats.leases == len(planned)
    assert serial.stats.leases == 0
    assert "scheduler: 24 leases, 0 steals, 0 affinity hits" in (
        parallel.stats.profile()
    )


# -- read-only cache degradation under lease dispatch -------------------------


def test_enospc_read_only_degradation_under_leases(baseline, tmp_path):
    with pytest.warns(UserWarning, match="read-only"):
        result = sweep(
            jobs=2, faults=plan_for("enospc"), cache=tmp_path / "cache"
        )
    assert result.stats.cache_read_only
    assert docs(result) == docs(baseline)


# -- lease planner ------------------------------------------------------------


def test_plan_leases_deterministic_and_single_kernel():
    """Leases are deterministic, single-kernel, in query order and of
    the fixed size ``min(8, ceil(n / (jobs * 16)))``."""
    queries = ExplorationSpace(
        kernels=("fir", "mat", "imi"), allocators=("FR-RA", "NO-SR"),
        budgets=tuple(range(4, 104, 4)),
    ).expand()
    items = list(enumerate(queries))  # 150 points, kernel-major
    key = lambda item: item[1].kernel  # noqa: E731
    for jobs, size in ((1, 8), (2, 5), (4, 3), (16, 1)):
        first = plan_leases(items, jobs=jobs, key=key)
        assert first == plan_leases(items, jobs=jobs, key=key)
        # Query order: concatenating the leases gives the input back.
        assert [i for lease in first for i in lease.items] == items
        for lease in first:
            assert {item[1].kernel for item in lease.items} == {lease.key}
        # Fixed size: a kernel's 50 points cut into full leases and one
        # remainder.
        for kernel in ("fir", "mat", "imi"):
            sizes = [len(l.items) for l in first if l.key == kernel]
            full, rest = divmod(50, size)
            assert sizes == [size] * full + ([rest] if rest else [])
    assert plan_leases([], jobs=2, key=key) == []


# -- shard + resume stay bit-identical under lease dispatch --------------------


def test_shard_stitch_resume_under_leases(tmp_path, baseline):
    cache = tmp_path / "cache"
    for shard in ("1/2", "2/2"):
        part = sweep(jobs=2, cache=cache, shard=shard)
        assert 0 < len(part) < len(QUERIES)
    stitched = sweep(jobs=2, cache=cache)
    assert stitched.stats.cache_hits == len(QUERIES)
    assert stitched.stats.evaluated == 0
    assert docs(stitched) == docs(baseline)


# -- dry run ------------------------------------------------------------------


def test_dry_run_plans_without_evaluating(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    plan = FaultPlan.targeting("slow", [TARGET])
    executor = Executor(jobs=2, cache=cache, faults=plan, **FAST)
    text = executor.dry_run(SPACE)
    assert f"dry run: {len(QUERIES)} points, 0 cache hits" in text
    assert "queue: 4 leases in query order (pulled on demand, jobs=2)" in text
    assert "[inject: slow]" in text
    assert "predicted" not in text
    assert len(cache) == 0  # nothing was evaluated or written

    # Warm the cache; the next dry run reports an empty queue.
    sweep(cache=cache)
    warm = executor.dry_run(SPACE)
    assert f"{len(QUERIES)} cache hits" in warm
    assert "queue: empty — everything is cached" in warm


def test_dry_run_inline_listing():
    inline = Executor(jobs=1, **FAST).dry_run(SPACE)
    assert "queue: inline (jobs=1)" in inline


def test_cli_dry_run(capsys, tmp_path):
    code = main([
        "explore", "--kernels", "fir", "--allocators", "FR-RA", "NO-SR",
        "--budgets", "8", "16", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"), "--dry-run",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "dry run: 4 points" in out
    assert "leases in query order (pulled on demand, jobs=2)" in out
    assert ResultCache(tmp_path / "cache").backend.entries() == []
