"""Fault tolerance: a crashing point must never kill a sweep.

The headline scenario: a registered pseudo-kernel whose factory raises a
plain ``RuntimeError`` (not a :class:`~repro.errors.ReproError`) is swept
alongside healthy kernels.  The sweep must complete, surface the bad
point as a *crash* record (traceback attached, counted in
``ExploreStats.errors``), cache every healthy point, and behave
identically at ``jobs=1`` and ``jobs=2``.
"""

import multiprocessing

import pytest

from repro.errors import ReproError
from repro.explore import (
    CacheCorruptionWarning,
    DesignQuery,
    DesignRecord,
    ExplorationSpace,
    Executor,
    ResultCache,
    evaluate_query,
    evaluate_query_safe,
)
from repro.kernels.registry import KERNEL_FACTORIES

CRASH_KERNEL = "crashk"

#: The in-test registry registration only reaches pool workers when they
#: fork from this process; under spawn they would re-import a registry
#: without it and report unknown-kernel failures instead of crashes.
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash-kernel registration requires fork-started workers",
)


def _crashing_factory():
    raise RuntimeError("synthetic worker crash")


@pytest.fixture()
def crash_kernel():
    """Temporarily register a pseudo-kernel whose evaluation crashes.

    Worker processes fork from the test process, so the registration is
    visible inside ``jobs>1`` pools too.
    """
    KERNEL_FACTORIES[CRASH_KERNEL] = _crashing_factory
    try:
        yield CRASH_KERNEL
    finally:
        KERNEL_FACTORIES.pop(CRASH_KERNEL, None)


def space_with_crash():
    return ExplorationSpace(
        kernels=("fir", CRASH_KERNEL),
        allocators=("FR-RA", "NO-SR"),
        budgets=(8,),
    )


class TestEvaluateQuerySafe:
    def test_unexpected_exception_becomes_crash_record(self, crash_kernel):
        query = DesignQuery(kernel=crash_kernel, allocator="FR-RA", budget=8)
        record = evaluate_query_safe(query)
        assert not record.ok and record.crash
        assert record.error_type == "RuntimeError"
        assert "synthetic worker crash" in record.error
        assert "RuntimeError" in record.traceback
        assert record.seconds is not None and record.seconds >= 0
        # The strict work unit still propagates, for callers that want it.
        with pytest.raises(RuntimeError):
            evaluate_query(query)

    def test_domain_failures_are_not_crashes(self):
        # An infeasible budget is an expected failure: no traceback.
        query = DesignQuery(kernel="imi", allocator="NO-SR", budget=4)
        record = evaluate_query_safe(query)
        assert not record.ok and not record.crash
        assert record.seconds is not None

    def test_successful_records_are_timed(self):
        record = evaluate_query_safe(
            DesignQuery(kernel="fir", allocator="NO-SR", budget=8)
        )
        assert record.ok and record.seconds > 0

    def test_crash_record_raise_error_rebuilds_builtin_type(self, crash_kernel):
        record = evaluate_query_safe(
            DesignQuery(kernel=crash_kernel, allocator="FR-RA", budget=8)
        )
        with pytest.raises(RuntimeError, match="worker traceback"):
            record.raise_error()

    def test_raise_error_survives_multiarg_builtin_types(self):
        # UnicodeDecodeError's constructor needs five arguments; the
        # re-raise must degrade to ReproError, not die with a TypeError.
        record = DesignRecord(
            query=DesignQuery(kernel="fir", allocator="FR-RA", budget=8),
            error="boom", error_type="UnicodeDecodeError", traceback="tb",
        )
        with pytest.raises(ReproError, match="UnicodeDecodeError"):
            record.raise_error()

    def test_crash_record_survives_dict_roundtrip(self, crash_kernel):
        record = evaluate_query_safe(
            DesignQuery(kernel=crash_kernel, allocator="FR-RA", budget=8)
        )
        rebuilt = DesignRecord.from_dict(record.to_dict())
        assert rebuilt.crash and rebuilt.traceback == record.traceback


class TestCrashingSweep:
    @pytest.mark.parametrize(
        "jobs", [1, pytest.param(2, marks=forked_workers)]
    )
    def test_sweep_completes_around_crashes(self, crash_kernel, jobs, tmp_path):
        cache = ResultCache(tmp_path)
        results = Executor(jobs=jobs, cache=cache).run(space_with_crash())

        assert len(results) == 4
        crashes = results.crashes()
        assert len(crashes) == 2  # crashk x {FR-RA, NO-SR}
        assert all(r.error_type == "RuntimeError" for r in crashes)
        assert results.stats.errors == 2
        assert results.stats.failures == 0
        assert "crashed" in results.stats.summary()

        # Every healthy point was evaluated, recorded, and cached.
        healthy = results.ok()
        assert len(healthy) == 2
        for record in healthy:
            assert cache.lookup(record.query)[1] == "hit"
        # Crash records are not cached: resumes retry them.
        for record in crashes:
            assert cache.lookup(record.query) == (None, "miss")

    @forked_workers
    def test_jobs_do_not_change_crash_behavior(self, crash_kernel):
        serial = Executor(jobs=1).run(space_with_crash())
        parallel = Executor(jobs=2).run(space_with_crash())
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.query == b.query
            assert (a.ok, a.crash, a.error_type) == (b.ok, b.crash, b.error_type)
            if a.ok:
                assert a.to_dict() == b.to_dict()

    def test_resume_retries_only_the_crashed_points(self, crash_kernel, tmp_path):
        Executor(jobs=1, cache=tmp_path).run(space_with_crash())
        resumed = Executor(jobs=1, cache=tmp_path).run(space_with_crash())
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.evaluated == 2  # the two crash points retried
        assert resumed.stats.errors == 2

    def test_crashes_render_and_export(self, crash_kernel):
        results = Executor(jobs=1).run(space_with_crash())
        assert "RuntimeError" in results.render()
        assert "RuntimeError" in results.to_csv()
        import json

        doc = json.loads(results.to_json())
        assert doc["stats"]["errors"] == 2
        crash_docs = [d for d in doc["records"] if "traceback" in d]
        assert len(crash_docs) == 2


class TestExecutorValidation:
    def test_point_timeout_zero_rejected_like_jobs_zero(self):
        with pytest.raises(ReproError, match="point_timeout"):
            Executor(point_timeout=0)
        with pytest.raises(ReproError, match="point_timeout"):
            Executor(point_timeout=-3)
        assert Executor(point_timeout=0.5).point_timeout == 0.5


class TestCorruptAccounting:
    def test_corrupt_entries_are_counted_and_reevaluated(self, tmp_path):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("FR-RA", "NO-SR"), budgets=(8,)
        )
        first = Executor(jobs=1, cache=tmp_path).run(space)
        assert first.stats.corrupt == 0
        victim = space.expand()[0]
        ResultCache(tmp_path).backend.write(victim.digest(), "{not json")
        with pytest.warns(CacheCorruptionWarning):
            resumed = Executor(jobs=1, cache=tmp_path).run(space)
        assert resumed.stats.corrupt == 1
        assert resumed.stats.cache_hits == 1
        assert resumed.stats.evaluated == 1
        assert "1 corrupt" in resumed.stats.summary()
        # The rewritten entry is healthy again.
        final = Executor(jobs=1, cache=tmp_path).run(space)
        assert final.stats.corrupt == 0 and final.stats.cache_hits == 2
