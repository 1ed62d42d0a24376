"""Lease dispatch through the executor (`repro.explore.schedule`)."""

from repro.explore import DesignQuery, ExplorationSpace, Executor, plan_leases


class TestAdaptiveExecutor:
    def test_warm_cache_schedules_identically_to_cold(self, tmp_path):
        # Dispatch changes lease shapes only, never results: a second
        # executor on the same cache, re-evaluating everything,
        # reproduces the cold run's records exactly.
        space = ExplorationSpace(
            kernels=("fir", "mat"),
            allocators=("FR-RA", "NO-SR"),
            budgets=(8,),
        )
        cold = Executor(jobs=2, cache=tmp_path).run(space)
        warm = Executor(jobs=2, cache=tmp_path, reuse_cache=False).run(space)
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
