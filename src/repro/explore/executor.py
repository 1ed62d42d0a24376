"""Parallel, cache-aware, fault-tolerant sweep execution.

The :class:`Executor` fans design-point evaluation out over a
:class:`concurrent.futures.ProcessPoolExecutor`, consulting an optional
:class:`~repro.explore.cache.ResultCache` first so resumed sweeps only
evaluate the missing points.  ``jobs=1`` runs inline in the calling
process — same results, no pool, and the mode the adapters in
:mod:`repro.bench` default to.

Four properties make sweeps production-shaped:

* **fault tolerance** — every point evaluates through
  :func:`~repro.explore.evaluate.evaluate_query_safe`, so an unexpected
  worker exception becomes a *crash* record (traceback attached,
  counted in :attr:`ExploreStats.errors`) instead of aborting the sweep
  and discarding completed-but-unconsumed results.  Completed points
  still reach the cache; crash records are deliberately *not* cached,
  so a resumed run retries them.
* **supervision** — the drive loop is the
  :class:`~repro.explore.supervise.SupervisedDriver`: a per-point
  deadline (``point_timeout``), deterministic retries with backoff,
  poison-point quarantine, broken-pool recovery (workers terminated,
  pool rebuilt, in-flight points requeued) and graceful degradation to
  inline evaluation after repeated breakage.  A cache-write hitting
  ``ENOSPC``/``EROFS`` flips the sweep to read-only-cache mode with one
  warning — the sweep still completes and a later ``--resume`` heals
  the cache.
* **lease dispatch** — with ``jobs>1`` pending points are cut into
  fixed-size single-kernel leases in query order
  (:mod:`repro.explore.schedule`) that idle workers pull on demand.
  Records are keyed by point index, so any ``jobs`` assembles a
  bit-identical ResultSet.
* **sharding** — ``shard=(i, N)`` (or ``"i/N"``) restricts a run to a
  deterministic, digest-stable subset of the space
  (:mod:`repro.explore.shard`), so independent machines sharing a cache
  directory split a sweep and a final unsharded resume stitches it.

Cache entries are guarded by a code stamp (see
:mod:`repro.explore.versions`): a resumed sweep after an edit to the
evaluation cone re-evaluates every point, and :class:`ExploreStats`
reports them as ``stale`` instead of plain misses.
"""

from __future__ import annotations

import errno
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.errors import ReproError, SweepInterrupted
from repro.explore.cache import ResultCache
from repro.explore.query import DesignQuery, DesignRecord
from repro.explore.results import ResultSet
from repro.explore.schedule import Lease, plan_leases
from repro.explore.shard import parse_shard, shard_queries
from repro.explore.space import ExplorationSpace
from repro.explore.supervise import (
    DEFAULT_POINT_TIMEOUT,
    RetryPolicy,
    SupervisedDriver,
)
from repro.explore.versions import query_vector

if TYPE_CHECKING:
    from repro.explore.context import EvalContext
    from repro.explore.faults import FaultPlan

__all__ = ["Executor", "ExploreStats"]


@dataclass(frozen=True)
class ExploreStats:
    """Accounting for one sweep: where every record came from.

    ``failures`` counts domain-infeasible points (expected, cached);
    ``errors`` counts crashed points (unexpected worker exceptions,
    never cached); ``corrupt`` counts cache entries that existed but
    could not be decoded or failed their checksum (each is moved to the
    cache's ``quarantine/`` directory and warned as it is read).

    ``quarantined`` counts poison points: points that kept failing
    (crash, lost worker, expired deadline) past the retry budget and
    were given up on — their records carry ``quarantined=True`` and are
    never cached, so a resume retries them.  ``retries`` counts every
    attributed failure that *was* retried; ``pool_breaks`` counts
    worker-pool teardown/rebuild events (0 on any jobs=1 run).
    ``cache_read_only`` reports that a cache write hit ``ENOSPC`` /
    ``EROFS`` and the sweep finished without writing further entries.

    ``leases`` counts the lease tasks the dispatcher submitted (0 on
    jobs=1 runs).  It describes dispatch, not results: records are
    bit-identical regardless.

    ``stage_seconds`` aggregates the evaluated points' per-stage self
    times (kernel build / allocation / DFG+coverage / trace engine /
    cycle count / other, the spans of :mod:`repro.spans`) — self *wall*
    seconds (``perf_counter``) spent inside evaluation, summed across
    workers, so with ``jobs>1`` the total exceeds the sweep's wall
    ``seconds``.  They are not CPU time: a worker that is descheduled
    or blocked inside a span is charged too.  (The ``profile:`` line
    still says "evaluation CPU" because ``perfbench/run.py`` parses
    that label.)  The ``trace`` stage is the trace engine's own time,
    wherever it ran (cycle count or allocation), so its cost is
    visible on its own.  Cache hits contribute nothing (they did no
    stage work this run).
    """

    total: int
    evaluated: int
    cache_hits: int
    failures: int
    seconds: float
    stale: int = 0
    corrupt: int = 0
    errors: int = 0
    quarantined: int = 0
    retries: int = 0
    pool_breaks: int = 0
    cache_read_only: bool = False
    leases: int = 0
    stage_seconds: "dict[str, float]" = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def summary(self) -> str:
        text = (
            f"{self.total} points: {self.evaluated} evaluated, "
            f"{self.cache_hits} cache hits ({self.hit_rate:.0%}), "
            f"{self.stale} stale, {self.corrupt} corrupt, "
            f"{self.failures} infeasible, {self.errors} crashed, "
            f"{self.quarantined} quarantined, "
            f"{self.seconds:.2f}s"
        )
        if self.retries:
            text += f", {self.retries} retried"
        if self.pool_breaks:
            text += f", {self.pool_breaks} pool rebuilds"
        if self.cache_read_only:
            text += " [read-only cache]"
        return text

    #: Human labels for the profile breakdown, in pipeline order.
    STAGE_LABELS = (
        ("kernel", "kernel build"),
        ("alloc", "allocation"),
        ("dfg_schedule", "DFG + coverage"),
        ("trace", "trace engine"),
        ("cycles", "cycle count"),
        ("other", "timing/area/binding"),
    )

    def profile(self) -> str:
        """The ``--profile`` per-stage breakdown, one line per stage."""
        total = sum(self.stage_seconds.values())
        scheduler = ""
        if self.leases:
            # The two always-zero fields stay for the parsers that read
            # this line (perfbench/run.py's SCHEDULER_LINE).
            scheduler = (
                f"scheduler: {self.leases} leases, 0 steals, "
                f"0 affinity hits"
            )
        if not total:
            text = "profile: no points evaluated (all cache hits?)"
            return f"{text}\n{scheduler}" if scheduler else text
        lines = [f"profile: {total:.2f}s evaluation CPU over "
                 f"{self.evaluated} points"]
        if scheduler:
            lines.append(f"  {scheduler}")
        known = {key for key, _ in self.STAGE_LABELS}
        extras = [
            (key, key) for key in sorted(self.stage_seconds)
            if key not in known
        ]
        for key, label in (*self.STAGE_LABELS, *extras):
            seconds = self.stage_seconds.get(key, 0.0)
            lines.append(
                f"  {label:<20} {seconds:8.2f}s  {seconds / total:6.1%}"
            )
        return "\n".join(lines)


class _Lookup(NamedTuple):
    """A space expanded, sharded and looked up in the cache."""

    queries: Sequence[DesignQuery]
    records: "dict[int, DesignRecord]"  # cache hits, by query index
    pending: "list[tuple[int, DesignQuery]]"  # what is left to evaluate
    stale: int
    corrupt: int


class Executor:
    """Runs design queries, in parallel, through an optional cache.

    Parameters
    ----------
    jobs:
        Worker processes; 1 evaluates inline (deterministically equal —
        evaluation itself is pure, so parallelism never changes results).
    cache:
        A :class:`ResultCache`, a cache directory path, or None.
    reuse_cache:
        When True (the default) cached records short-circuit evaluation;
        when False every point is re-evaluated (and re-written to the
        cache) — the CLI maps ``--fresh`` onto disabling this flag.
    context:
        The :class:`~repro.explore.context.EvalContext` inline
        evaluation memoizes on; None (the default) is the process-global
        context.  DFGs, coverage structures, pattern cost tables, CPA-RA
        critical graphs and KS-RA DP tables are shared across the grid.
        An explicit instance is honoured inline (``jobs=1`` and the
        degraded remainder of a parallel run: tests' and benchmarks'
        controlled cold/warm runs); worker processes always use their
        own process-global context.
    shard:
        ``(index, count)`` or ``"index/count"``: evaluate only this
        run's digest-stable share of the space (1-based).  None (the
        default) runs the whole space.
    retry:
        The :class:`~repro.explore.supervise.RetryPolicy`; None uses
        the default (2 retries).
    point_timeout:
        Seconds one point may run before it counts as hung (a lease
        gets the sum over its points).  The default, 30 s, only
        catches outright hangs.
    faults:
        A :class:`~repro.explore.faults.FaultPlan` to inject
        deterministic failures (testing/chaos only).  None — the
        default — injects nothing.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: "ResultCache | Path | str | None" = None,
        reuse_cache: bool = True,
        context: "EvalContext | None" = None,
        shard: "tuple[int, int] | str | None" = None,
        retry: "RetryPolicy | None" = None,
        point_timeout: float = DEFAULT_POINT_TIMEOUT,
        faults: "FaultPlan | None" = None,
    ):
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if not point_timeout > 0:
            raise ReproError(
                f"point_timeout must be > 0 seconds, got {point_timeout}"
            )
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.reuse_cache = reuse_cache
        self.context = context
        self.shard = parse_shard(shard) if shard is not None else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.point_timeout = point_timeout
        self.faults = faults
        self._cache_read_only = False
        self._driver: "SupervisedDriver | None" = None

    def run(
        self,
        space: "ExplorationSpace | Iterable[DesignQuery]",
        progress: "Callable[[int, int], None] | None" = None,
    ) -> ResultSet:
        """Evaluate every point of ``space`` (or an explicit query list).

        With a ``shard``, only this shard's points are evaluated and
        returned; the other shards' points are simply absent from the
        result (not failures), so a shared cache accumulates the full
        space across machines.

        A ``KeyboardInterrupt`` mid-sweep is converted into
        :class:`~repro.errors.SweepInterrupted` after completed records
        (including any salvaged from already-finished workers) have
        been flushed to the cache — the message reports how much of the
        sweep is resumable.
        """
        started = time.perf_counter()
        self._cache_read_only = False
        self._driver = None
        if self.cache is not None:
            # Reap tmp files orphaned by workers that died mid-write in
            # an *earlier* run; anything younger may be a concurrent
            # shard's in-flight write.
            self.cache.reap_tmp()
        queries, records, pending, stale, corrupt = self._lookup(space)
        hits = done = len(records)
        if progress:
            progress(done, len(queries))
        try:
            for index, record in self._evaluate(pending):
                records[index] = record
                self._store(record)
                done += 1
                if progress:
                    progress(done, len(queries))
        except KeyboardInterrupt:
            raise SweepInterrupted(done=done, total=len(queries)) from None

        ordered = tuple(records[i] for i in range(len(queries)))
        stage_seconds: dict[str, float] = {}
        for record in ordered:
            for stage, spent in (record.stages or {}).items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + spent
        driver = self._driver
        stats = ExploreStats(
            total=len(queries),
            evaluated=len(pending),
            cache_hits=hits,
            failures=sum(
                1 for r in ordered
                if not r.ok and not r.crash and not r.quarantined
            ),
            seconds=time.perf_counter() - started,
            stale=stale,
            corrupt=corrupt,
            errors=sum(1 for r in ordered if r.crash),
            quarantined=sum(1 for r in ordered if r.quarantined),
            retries=driver.retries if driver is not None else 0,
            pool_breaks=driver.pool_breaks if driver is not None else 0,
            cache_read_only=self._cache_read_only,
            leases=driver.leases if driver is not None else 0,
            stage_seconds=stage_seconds,
        )
        return ResultSet(ordered, stats)

    def _lookup(
        self, space: "ExplorationSpace | Iterable[DesignQuery]"
    ) -> _Lookup:
        """Expand, shard and look ``space`` up in the cache: the one
        planning step :meth:`run` and :meth:`dry_run` share."""
        if isinstance(space, ExplorationSpace):
            queries: Sequence[DesignQuery] = space.expand()
        else:
            queries = list(space)
        if self.shard is not None:
            queries = shard_queries(queries, *self.shard)
        records: dict[int, DesignRecord] = {}
        stale = 0
        corrupt = 0
        pending: list[tuple[int, DesignQuery]] = []
        if self.cache is not None and self.reuse_cache:
            # Observe any source edits made since the previous run, even
            # when this executor instance is reused in one process.
            self.cache.refresh()
        for index, query in enumerate(queries):
            cached = None
            if self.cache is not None and self.reuse_cache:
                cached, status = self.cache.lookup(query)
                stale += status == "stale"
                corrupt += status == "corrupt"
            if cached is not None:
                records[index] = cached
            else:
                pending.append((index, query))
        return _Lookup(queries, records, pending, stale, corrupt)

    def _store(self, record: DesignRecord) -> None:
        """Cache one completed record, honouring the no-cache rules.

        Crash records are never cached: the failure may be transient
        (OOM, a since-fixed bug), so resumes retry them.  Quarantined
        records are poison-point giveups — same reasoning.  Truncated
        exact-search records are not cached either — an anytime
        incumbent under a node/time box is not the point's exact
        answer, and a resume with a bigger box must re-run.

        A write that hits a full (``ENOSPC``) or read-only (``EROFS``)
        filesystem flips the sweep into read-only-cache mode: one
        warning, no further writes, the sweep completes and a later
        ``--resume`` heals the cache.
        """
        if (
            self.cache is None
            or self._cache_read_only
            or record.crash
            or record.truncated
            or record.quarantined
        ):
            return
        kind = (
            self.faults.cache_fault(record.query)
            if self.faults is not None else None
        )
        try:
            if kind == "enospc":
                raise OSError(
                    errno.ENOSPC, "injected fault: no space left on device"
                )
            self.cache.put(record)
            if kind == "corrupt-write":
                self.cache.corrupt_entry(record.query)
        except OSError as error:
            if error.errno in (errno.ENOSPC, errno.EROFS):
                self._cache_read_only = True
                warnings.warn(
                    f"cache write failed ({error.strerror or error}); "
                    f"continuing with a read-only cache — completed "
                    f"points from here on are not persisted and a "
                    f"later --resume will re-evaluate them",
                    stacklevel=2,
                )
            else:
                raise

    def _evaluate(
        self, pending: "list[tuple[int, DesignQuery]]"
    ) -> "Iterable[tuple[int, DesignRecord]]":
        if not pending:
            return
        if self.cache is not None:
            # Stamp the code before it is loaded (see ResultCache).
            query_vector()
        # The evaluation stack (numpy, the IR, the allocators and the
        # kernel builders) is loaded here, before the driver forks a
        # pool, so workers inherit it instead of each importing it again.
        import repro.explore.evaluate  # noqa: F401
        import repro.kernels.registry  # noqa: F401

        driver = SupervisedDriver(
            jobs=self.jobs,
            context=self.context,
            retry=self.retry,
            point_timeout=self.point_timeout,
            plan=self.faults,
        )
        self._driver = driver
        leases = self._plan_leases(pending) if self.jobs > 1 else None
        yield from driver.drive(pending, leases=leases)

    def _plan_leases(
        self, pending: "list[tuple[int, DesignQuery]]"
    ) -> "list[Lease]":
        """The lease queue over ``pending``, keyed by kernel identity."""
        return plan_leases(
            pending,
            jobs=self.jobs,
            key=lambda item: (item[1].kernel, item[1].kernel_json),
        )

    def dry_run(
        self, space: "ExplorationSpace | Iterable[DesignQuery]"
    ) -> str:
        """Render the planned queue without evaluating anything.

        Shows exactly what :meth:`run` would dispatch: cache hits are
        subtracted and the resulting lease queue (the inline point
        order at ``jobs=1``) is listed in dispatch order.  Planned fault
        injections are marked, so dispatch stays debuggable without
        burning a sweep.
        """
        queries, records, pending, _, _ = self._lookup(space)
        lines = [
            f"dry run: {len(queries)} points, {len(records)} cache hits, "
            f"{len(pending)} to evaluate"
        ]
        if not pending:
            lines.append("queue: empty — everything is cached")
            return "\n".join(lines)

        def marks(items: "list[tuple[int, DesignQuery]]") -> str:
            if self.faults is None:
                return ""
            kinds = sorted({
                kind
                for _, q in items
                for kind in (self.faults.fault_for(q),)
                if kind is not None
            })
            return f"  [inject: {', '.join(kinds)}]" if kinds else ""

        if self.jobs > 1:
            leases = self._plan_leases(pending)
            lines.append(
                f"queue: {len(leases)} leases in query order "
                f"(pulled on demand, jobs={self.jobs})"
            )
            for position, lease in enumerate(leases, 1):
                items = list(lease.items)
                lines.append(
                    f"  #{position:<3d} {lease.key[0]:<12} "
                    f"{len(items):>3d} pt{marks(items)}"
                )
        else:
            lines.append(
                f"queue: inline (jobs=1), {len(pending)} points in "
                f"query order"
            )
            for position, (index, query) in enumerate(pending, 1):
                lines.append(
                    f"  #{position:<3d} {query.kernel:<12} "
                    f"{query.allocator:<7} b={query.budget:<5d}"
                    f"{marks([(index, query)])}"
                )
        return "\n".join(lines)

