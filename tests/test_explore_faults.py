"""Fault-matrix tests for the hardened execution plane (PR 9).

Every fault kind is injected at ``jobs=1`` and ``jobs=2`` against a
small real grid; the tests pin that

* the sweep *completes* under every fault,
* the healthy (untargeted) points are bit-identical to a fault-free
  baseline,
* the stats counters (``retries``, ``quarantined``, ``errors``,
  ``corrupt``, ``cache_read_only``) are exactly as predicted, and
* a resume with faults turned off converges to the fault-free sweep.

Fault decisions are pure functions of ``(plan, query digest)``, so the
jobs=1 and jobs=N runs agree on which points fault — the foundation of
every bit-identity assertion below.
"""

import os
import time

import pytest

from repro.errors import ReproError, SweepInterrupted
from repro.explore import (
    DesignQuery,
    Executor,
    ExplorationSpace,
    FaultPlan,
    ResultCache,
    RetryPolicy,
    parse_fault_spec,
)
from repro.explore.cache import _entry_checksum  # noqa: F401 (re-export guard)
from repro.kernels.registry import KERNEL_FACTORIES

SPACE = ExplorationSpace(
    kernels=("fir", "mat"), allocators=("FR-RA", "NO-SR"), budgets=(8,)
)
QUERIES = SPACE.expand()
#: The one point every targeted plan pins its fault onto.
TARGET = next(
    q for q in QUERIES if q.kernel == "fir" and q.allocator == "FR-RA"
)

#: Tight-but-safe supervision for tests: every point gets a 1 s
#: deadline (a real fir/mat point evaluates in milliseconds, and the
#: hang cases wait this deadline out), and retries back off by nothing.
FAST = dict(
    point_timeout=1.0,
)


def sweep(jobs=1, faults=None, cache=None, max_retries=2, **kwargs):
    return Executor(
        jobs=jobs,
        cache=cache,
        faults=faults,
        retry=RetryPolicy(max_retries=max_retries, backoff=0.0),
        **FAST,
        **kwargs,
    ).run(SPACE)


def plan_for(kind, fires=1):
    return FaultPlan.targeting(
        kind, [TARGET], fires=fires, hang_seconds=8.0
    )


def docs(result):
    return [record.to_dict() for record in result.records]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free jobs=1 sweep every matrix entry compares against."""
    return sweep()


# -- recovery matrix: fault fires once, retry succeeds ------------------------


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["crash", "hang", "kill", "slow"])
def test_recovery_matrix_bit_identical(kind, jobs, baseline):
    result = sweep(jobs=jobs, faults=plan_for(kind, fires=1))
    assert docs(result) == docs(baseline)
    stats = result.stats
    assert stats.evaluated == len(QUERIES)
    assert stats.quarantined == 0
    assert stats.errors == 0
    # slow is a latency fault, not a failure: nothing to retry.
    assert stats.retries == (0 if kind == "slow" else 1)
    if jobs == 1:
        assert stats.pool_breaks == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_kill_rebuilds_the_pool(jobs):
    result = sweep(jobs=jobs, faults=plan_for("kill", fires=1))
    # A real SIGKILL at jobs=2 breaks the ProcessPoolExecutor; the
    # driver must rebuild it and lose no points.  (Often twice: the
    # first break hits a multi-item chunk and cannot be blamed on one
    # point, so the still-armed kill fires again on the isolated
    # single-point retry, and *that* attributed break exhausts it.)
    # Inline (jobs=1) the same fault surfaces as WorkerLost with no
    # pool to break.
    assert result.stats.pool_breaks == 0 if jobs == 1 else \
        result.stats.pool_breaks >= 1
    assert len(result.ok()) == len(QUERIES)


# -- quarantine matrix: fault outlives the retry budget -----------------------


@pytest.mark.parametrize("backend", ["dir", "sqlite"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["crash", "hang", "kill"])
def test_quarantine_matrix(kind, jobs, backend, baseline, tmp_path):
    root = (
        tmp_path / "cache" if backend == "dir"
        else f"sqlite:{tmp_path / 'cache.db'}"
    )
    cache = ResultCache(root)
    result = sweep(
        jobs=jobs, faults=plan_for(kind, fires=5), max_retries=1, cache=cache
    )
    stats = result.stats
    assert stats.quarantined == 1
    assert stats.retries == 1  # one retry spent before giving up
    assert stats.failures == 0  # quarantine is not infeasibility

    poisoned = [r for r in result.records if r.quarantined]
    assert len(poisoned) == 1
    record = poisoned[0]
    assert record.query.digest() == TARGET.digest()
    assert record.attempts == 2  # max_retries=1 -> two attempts
    assert record.error_type in (
        "InjectedCrash", "WorkerLost", "EvaluationTimeout"
    )

    # Poison points are never cached...
    cached, status = cache.lookup(TARGET)
    assert cached is None
    # ...and the healthy points are bit-identical to the baseline.
    healthy = {r.query.digest(): r.to_dict() for r in result.records
               if not r.quarantined}
    expected = {r.query.digest(): r.to_dict() for r in baseline.records
                if r.query.digest() != TARGET.digest()}
    assert healthy == expected

    # A resume with the fault gone heals: the quarantined point is
    # retried (it was never cached) and the sweep converges.
    healed = sweep(jobs=1, cache=cache)
    assert docs(healed) == docs(baseline)
    assert healed.stats.quarantined == 0
    assert healed.stats.cache_hits == len(QUERIES) - 1
    assert healed.stats.evaluated == 1


# -- cache-plane faults -------------------------------------------------------


def test_corrupt_write_quarantined_on_next_read(baseline, tmp_path):
    cache_dir = tmp_path / "cache"
    first = sweep(faults=plan_for("corrupt-write"), cache=cache_dir)
    # The write-side fault does not disturb the in-memory results...
    assert docs(first) == docs(baseline)
    assert first.stats.corrupt == 0

    # ...but the torn entry fails its checksum on the next run: it is
    # counted, quarantined out of the cache dir, and re-evaluated.
    with pytest.warns(UserWarning, match="quarantined corrupted cache"):
        second = sweep(cache=cache_dir)
    assert second.stats.corrupt == 1
    assert second.stats.cache_hits == len(QUERIES) - 1
    assert second.stats.evaluated == 1
    assert docs(second) == docs(baseline)
    quarantine = cache_dir / "quarantine"
    assert len(list(quarantine.glob("*.json"))) == 1

    # After re-evaluation the cache is whole again.
    third = sweep(cache=cache_dir)
    assert third.stats.cache_hits == len(QUERIES)
    assert third.stats.corrupt == 0


def test_enospc_degrades_to_read_only_cache(baseline, tmp_path):
    cache_dir = tmp_path / "cache"
    with pytest.warns(UserWarning, match="read-only"):
        result = sweep(faults=plan_for("enospc"), cache=cache_dir)
    assert result.stats.cache_read_only
    assert docs(result) == docs(baseline)
    # Entries written before the disk "filled up" are still good; the
    # rest (including the faulted point) were simply not written.
    cache = ResultCache(cache_dir)
    report = cache.fsck()
    assert report.clean
    assert report.ok < len(QUERIES)

    # Resume with the fault off back-fills the missing entries.
    healed = sweep(cache=cache_dir)
    assert docs(healed) == docs(baseline)
    final = sweep(cache=cache_dir)
    assert final.stats.cache_hits == len(QUERIES)


# -- seeded rates: jobs invariance without pins -------------------------------


def test_seeded_rates_are_jobs_invariant(baseline):
    plan = parse_fault_spec("crash=0.5", seed=7)
    faulted = [q.digest() for q in QUERIES if plan.fault_for(q) == "crash"]
    assert faulted, "seed 7 must fault at least one of the 4 points"
    serial = sweep(jobs=1, faults=plan)
    parallel = sweep(jobs=2, faults=plan)
    assert docs(serial) == docs(parallel) == docs(baseline)
    assert serial.stats.retries == parallel.stats.retries == len(faulted)


def test_fault_plan_validation():
    with pytest.raises(ReproError, match="unknown fault kind"):
        FaultPlan(rates=(("melt", 1.0),))
    with pytest.raises(ReproError, match="sum"):
        FaultPlan(rates=(("crash", 0.7), ("hang", 0.7)))
    with pytest.raises(ReproError, match="KIND"):
        parse_fault_spec("crash")


# -- KeyboardInterrupt: flush and report resumability -------------------------


def test_keyboard_interrupt_is_resumable(tmp_path):
    # A kernel factory that raises KeyboardInterrupt mid-evaluation;
    # KeyboardInterrupt is a BaseException, so it sails past the
    # crash-proofing in evaluate_query_safe, exactly like a real ^C.
    def interrupting():
        raise KeyboardInterrupt

    KERNEL_FACTORIES["interruptk"] = interrupting
    try:
        healthy = DesignQuery(kernel="fir", allocator="FR-RA", budget=8)
        doomed = DesignQuery(kernel="interruptk", allocator="FR-RA", budget=8)
        cache = ResultCache(tmp_path / "cache")
        executor = Executor(jobs=1, cache=cache, **FAST)
        with pytest.raises(SweepInterrupted, match=r"resumable: 1/2") as info:
            executor.run([healthy, doomed])
        assert (info.value.done, info.value.total) == (1, 2)
        # The completed point was flushed before the exception escaped.
        cached, status = cache.lookup(healthy)
        assert cached is not None and status == "hit"
    finally:
        del KERNEL_FACTORIES["interruptk"]


# -- orphaned tmp files -------------------------------------------------------


def test_orphaned_tmp_reaped_at_sweep_start(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    old = cache_dir / ".dead-worker.json.tmp"
    old.write_text("{}")
    os.utime(old, (time.time() - 3600, time.time() - 3600))
    fresh = cache_dir / ".live-shard.json.tmp"
    fresh.write_text("{}")

    sweep(cache=cache_dir)
    # Aged orphans go; a concurrent shard's in-flight write survives.
    assert not old.exists()
    assert fresh.exists()


def test_fsck_reports_and_repairs(tmp_path):
    cache_dir = tmp_path / "cache"
    sweep(cache=cache_dir)
    cache = ResultCache(cache_dir)
    entries = sorted(cache_dir.glob("*.json"))
    assert len(entries) == len(QUERIES)

    # Flip one byte of one entry and plant an aged orphan tmp file.
    victim = entries[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))
    orphan = cache_dir / ".gone.json.tmp"
    orphan.write_text("")
    os.utime(orphan, (time.time() - 3600, time.time() - 3600))

    report = cache.fsck()
    assert not report.clean
    assert report.scanned == len(QUERIES)
    assert report.ok == len(QUERIES) - 1
    assert report.corrupt == (str(victim),)
    assert report.tmp == (str(orphan),)
    assert "1 corrupt, 1 orphaned tmp" in report.summary()

    repaired = cache.fsck(repair=True)
    assert repaired.quarantined == 1 and repaired.reaped == 1
    assert not victim.exists() and not orphan.exists()
    assert (cache_dir / "quarantine" / victim.name).exists()
    assert cache.fsck().clean
