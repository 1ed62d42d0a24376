"""Work-stealing dispatcher tests.

The lease queue must be invisible in the results (the fault matrix of
``test_explore_faults.py`` runs every fault kind through it at jobs 1
and 2).  These tests pin the lease planner's determinism, a
deterministically-forced steal split, the soft-affinity counter,
read-only-cache degradation and shard-stitch resume under stealing,
and the ``--dry-run`` planner surface.
"""

import pytest

from repro.explore import (
    DeadlinePolicy,
    DesignQuery,
    Executor,
    ExplorationSpace,
    FaultPlan,
    Lease,
    ResultCache,
    RetryPolicy,
    plan_leases,
)
from repro.cli import main

SPACE = ExplorationSpace(
    kernels=("fir", "mat"), allocators=("FR-RA", "NO-SR"), budgets=(8,)
)
QUERIES = SPACE.expand()
TARGET = next(
    q for q in QUERIES if q.kernel == "fir" and q.allocator == "FR-RA"
)

FAST = dict(
    deadlines=DeadlinePolicy(timeout_factor=1.0, floor=2.5, ceiling=2.5),
)


def sweep(jobs=1, faults=None, cache=None, max_retries=2, space=SPACE,
          **kwargs):
    return Executor(
        jobs=jobs,
        cache=cache,
        faults=faults,
        retry=RetryPolicy(max_retries=max_retries, backoff=0.0),
        **FAST,
        **kwargs,
    ).run(space)


def plan_for(kind, fires=1):
    return FaultPlan.targeting(
        kind, [TARGET], fires=fires, hang_seconds=8.0, slow_seconds=0.01
    )


def docs(result):
    return [record.to_dict() for record in result.records]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free jobs=1 sweep every matrix entry compares against."""
    return sweep()


# -- read-only cache degradation under stealing ------------------------------


def test_enospc_read_only_degradation_under_stealing(baseline, tmp_path):
    with pytest.warns(UserWarning, match="read-only"):
        result = sweep(
            jobs=2, faults=plan_for("enospc"), cache=tmp_path / "cache"
        )
    assert result.stats.cache_read_only
    assert docs(result) == docs(baseline)


# -- forced steal: split is deterministic when workers would idle -------------


def test_steal_split_and_counters():
    """One 24-point lease at jobs=2: the first feed sees more free slots
    than queued leases and must split — exactly once, since splitting
    leaves only singletons behind."""
    queries = [
        DesignQuery(kernel="fir", allocator="NO-SR", budget=b)
        for b in range(4, 52, 2)
    ]
    assert len(queries) == 24
    reference = sweep(jobs=1, space=queries)
    result = sweep(jobs=2, space=queries, lease_points=24)
    assert docs(result) == docs(reference)
    stats = result.stats
    assert stats.steals == 1
    assert stats.leases == 24  # every point fed as its own stolen lease
    # All leases share one kernel; once a worker has evaluated anything,
    # its resident fingerprint matches every queued lease.
    assert stats.affinity_hits >= 1
    # The jobs=1 path never touches the scheduler counters.
    assert reference.stats.leases == 0
    assert reference.stats.steals == 0
    assert reference.stats.affinity_hits == 0


# -- lease planner ------------------------------------------------------------


def test_plan_leases_deterministic_and_single_kernel():
    queries = list(SPACE.expand()) * 3  # 12 items, 2 kernels
    items = list(enumerate(queries))
    cost = lambda item: 1.0 + item[0] * 0.01  # noqa: E731
    key = lambda item: item[1].kernel  # noqa: E731
    first = plan_leases(items, cost=cost, jobs=2, key=key, max_points=4)
    second = plan_leases(items, cost=cost, jobs=2, key=key, max_points=4)
    assert first == second
    assert first == sorted(first, key=lambda lease: (-lease.cost, lease.seq))
    for lease in first:
        assert len({item[1].kernel for item in lease.items}) == 1
        assert len(lease.items) <= 4
    covered = sorted(i for lease in first for i, _ in lease.items)
    assert covered == list(range(len(items)))


def test_plan_leases_isolates_predicted_expensive_points():
    items = list(range(20))
    # Item 7 holds half the predicted mass: it must ride alone.
    cost = lambda item: 100.0 if item == 7 else 1.0  # noqa: E731
    leases = plan_leases(
        items, cost=cost, jobs=2, key=lambda item: "k", max_points=8
    )
    singleton = next(l for l in leases if l.items == (7,))
    assert singleton.costs == (100.0,)
    # Longest first: the expensive singleton leads the queue.
    assert leases[0] is singleton


def test_lease_split_preserves_order_and_sequencing():
    lease = Lease(seq=0, key="k", items=(10, 11, 12), costs=(3.0, 2.0, 1.0))
    singles = lease.split(next_seq=5)
    assert [l.items for l in singles] == [(10,), (11,), (12,)]
    assert [l.seq for l in singles] == [5, 6, 7]
    assert [l.cost for l in singles] == [3.0, 2.0, 1.0]
    assert all(l.key == "k" for l in singles)


# -- shard + resume stay bit-identical under stealing -------------------------


def test_shard_stitch_resume_under_stealing(tmp_path, baseline):
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
    plan = FaultPlan.targeting("slow", [TARGET], slow_seconds=0.01)
    executor = Executor(jobs=2, cache=cache, faults=plan, **FAST)
    text = executor.dry_run(SPACE)
    assert f"dry run: {len(QUERIES)} points, 0 cache hits" in text
    assert "cost model: cold" in text
    assert "work-stealing, jobs=2" in text
    assert "[inject: slow]" in text
    assert "total predicted:" in text
    assert len(cache) == 0  # nothing was evaluated or written

    # Warm the cache; the next dry run predicts in seconds and reports
    # an empty queue.
    sweep(cache=cache)
    warm = executor.dry_run(SPACE)
    assert f"{len(QUERIES)} cache hits" in warm
    assert "cost model: fitted" in warm
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
    assert "work-stealing, jobs=2" in out
    assert not (tmp_path / "cache").exists() or not any(
        (tmp_path / "cache").glob("*.json")
    )
