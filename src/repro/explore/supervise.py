"""Supervised sweep execution: deadlines, retries, quarantine, recovery.

The :class:`SupervisedDriver` is the one drive loop behind
:class:`~repro.explore.executor.Executor`: ``jobs=1`` runs it inline,
``jobs>1`` feeds a worker pool from one queue of unsubmitted work,
one task per idle worker, in queue order.  The queue starts as the
fixed-size lease plan (:func:`~repro.explore.schedule.plan_leases`);
retried and requeued points re-enter at its front, one point per
entry, and an entry still backing off keeps its place without blocking
the ready work behind it.  The fault plan, if any, rides with each
task as an argument.  The driver adds four behaviours a plain pool
loop cannot provide:

* **per-point deadlines** — every point gets ``point_timeout`` seconds
  (default :data:`DEFAULT_POINT_TIMEOUT`) and a lease the sum over its
  points, counted from when its task is first seen running; the
  default only catches outright hangs, never slow-but-honest points;
* **deterministic retries** — crash records, lost workers and expired
  deadlines are retried up to :attr:`RetryPolicy.max_retries` times
  with exponential backoff; the attempt count rides on the record
  (``DesignRecord.attempts``, bookkeeping like ``seconds``);
* **poison-point quarantine** — a point still failing after its retry
  budget becomes a quarantine record (``quarantined=True``, never
  cached; lost/hung points get ``WorkerLost``/``EvaluationTimeout``
  error types) and the sweep continues;
* **pool recovery and degradation** — a broken or hung
  ``ProcessPoolExecutor`` is torn down (workers terminated) and
  rebuilt with the in-flight points requeued; after
  :data:`POOL_BREAK_LIMIT` rebuilds the driver abandons pools entirely
  and finishes the remaining points inline.

**Failure attribution** is what keeps injected runs deterministic
across ``jobs``: a point's failure count increments only when the
failure is unambiguously *its own* — an in-band crash record, a
deadline expiry of a single-point task, a pool break while that point
was the sole task in flight, or the inline
:class:`~repro.explore.faults.WorkerLost`/:class:`~repro.explore.faults.WouldHang`
stand-ins.  A pool break with several tasks in flight requeues them
*without* attribution, at the front of the queue, and shrinks the
submission window to one task, so the culprit identifies itself on the
next break before any further lease is sent; once attributed, the
window re-opens.  ``jobs=1`` and ``jobs=N`` therefore agree on
retry and quarantine counts (pool-rebuild counts are inherently
parallel-only).
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import ReproError
from repro.explore import faults as faults_mod
from repro.explore.query import DesignQuery, DesignRecord
from repro.explore.schedule import Lease

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.explore.context import EvalContext

__all__ = [
    "DEFAULT_POINT_TIMEOUT",
    "POOL_BREAK_LIMIT",
    "RetryPolicy",
    "SupervisedDriver",
    "quarantine_record",
]

#: Seconds one point may run before it counts as hung.  Far above any
#: registered grid point's evaluation time, so only hangs trip it.
DEFAULT_POINT_TIMEOUT = 30.0

#: Pool teardown/rebuild events tolerated before a sweep degrades to
#: in-process serial evaluation of the remainder.
POOL_BREAK_LIMIT = 6

#: Growth factor and cap (seconds) of the retry backoff.
_BACKOFF_FACTOR = 2.0
_MAX_BACKOFF = 2.0

#: Poll cadence (seconds) while some in-flight task has not been seen
#: running yet (its deadline clock starts at first observed running).
_START_POLL = 0.1
#: Upper bound on the poll interval once every task is stamped.
_MAX_POLL = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how eagerly a failing point is retried.

    ``delay(n)`` after the ``n``-th attributed failure is
    ``backoff * 2**(n-1)`` seconds, capped at 2 s — deterministic, so
    injected runs replay identically.
    """

    max_retries: int = 2
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 0:
            raise ReproError("backoff must be >= 0")

    def delay(self, failures: int) -> float:
        if failures <= 0 or self.backoff <= 0:
            return 0.0
        return min(
            self.backoff * _BACKOFF_FACTOR ** (failures - 1), _MAX_BACKOFF
        )


def quarantine_record(
    query: DesignQuery, error_type: str, attempts: int
) -> DesignRecord:
    """The terminal record of a lost/hung point (no in-band crash).

    Built identically by the inline and parallel paths, so quarantined
    runs stay bit-identical across ``jobs``.
    """
    reason = {
        "WorkerLost": "the evaluating worker was lost (process pool broken)",
        "EvaluationTimeout": "evaluation exceeded its deadline",
    }[error_type]
    return DesignRecord(
        query=query,
        error=f"{reason}; gave up after {attempts} attempt(s)",
        error_type=error_type,
        quarantined=True,
        attempts=attempts,
    )


def _evaluate_one(
    query: DesignQuery,
    attempt: int,
    plan: "faults_mod.FaultPlan | None",
    worker: bool,
    context: "EvalContext | None" = None,
) -> DesignRecord:
    """Evaluate one point, fault-aware; the supervised work unit."""
    from repro.explore.evaluate import evaluate_query_safe

    record = plan.apply(query, attempt, worker) if plan is not None else None
    if record is None:
        record = evaluate_query_safe(query, context=context)
    return record


def _evaluate_lease(
    items: "list[tuple[DesignQuery, int]]",
    plan: "faults_mod.FaultPlan | None",
) -> "list[DesignRecord]":
    """Worker task: one lease, one IPC round trip.

    The fault plan rides with every lease; workers evaluate on their
    own process-global context.
    """
    return [
        _evaluate_one(query, attempt, plan, worker=True)
        for query, attempt in items
    ]


@dataclass
class _Task:
    """One submitted future's payload: ``(index, query, attempt)`` items."""

    items: "list[tuple[int, DesignQuery, int]]"
    deadline: float
    started: "float | None" = None


class SupervisedDriver:
    """Drives pending points to completion under supervision.

    One instance per :meth:`Executor.run`; the executor reads the
    ``retries`` / ``quarantined`` / ``pool_breaks`` / ``degraded``
    counters into :class:`~repro.explore.executor.ExploreStats` after
    the drive finishes.
    """

    def __init__(
        self,
        jobs: int,
        context: "EvalContext | None",
        retry: RetryPolicy,
        point_timeout: float = DEFAULT_POINT_TIMEOUT,
        plan: "faults_mod.FaultPlan | None" = None,
    ):
        self.jobs = jobs
        self.context = context
        self.retry = retry
        self.point_timeout = point_timeout
        self.plan = plan
        self.retries = 0
        self.quarantined = 0
        self.pool_breaks = 0
        self.degraded = False
        self.leases = 0
        #: Attributed failures per point index, shared by the pool and
        #: its degraded inline remainder.
        self.failures: "dict[int, int]" = {}

    # -- shared attribution ------------------------------------------------

    def _attribute(
        self,
        index: int,
        query: DesignQuery,
        record: "DesignRecord | None" = None,
        loss_type: "str | None" = None,
    ) -> "DesignRecord | None":
        """One attributed failure: None to retry, else the final record."""
        count = self.failures[index] = self.failures.get(index, 0) + 1
        if count > self.retry.max_retries:
            self.quarantined += 1
            if record is not None:
                return replace(record, quarantined=True, attempts=count)
            return quarantine_record(query, loss_type or "WorkerLost", count)
        self.retries += 1
        return None

    def _finish(self, index: int, record: DesignRecord) -> DesignRecord:
        """Stamp the attempt count onto a successful-after-retry record."""
        count = self.failures.get(index, 0)
        return replace(record, attempts=count + 1) if count else record

    def _retry_entry(
        self, index: int, query: DesignQuery
    ) -> "tuple[float, tuple, bool]":
        """A pending-queue entry retrying one point after its backoff."""
        delay = self.retry.delay(self.failures[index])
        return time.perf_counter() + delay, ((index, query),), False

    # -- inline (jobs=1 and degraded mode) ---------------------------------

    def _drive_inline(
        self, items: "Iterable[tuple[int, DesignQuery]]"
    ) -> "Iterator[tuple[int, DesignRecord]]":
        queue = deque(items)
        while queue:
            index, query = queue.popleft()
            try:
                record = _evaluate_one(
                    query, self.failures.get(index, 0) + 1, self.plan,
                    worker=False, context=self.context,
                )
            except faults_mod.WorkerLost:
                final = self._attribute(index, query, loss_type="WorkerLost")
            except faults_mod.WouldHang:
                final = self._attribute(
                    index, query, loss_type="EvaluationTimeout"
                )
            else:
                final = (
                    self._attribute(index, query, record=record)
                    if record.crash else self._finish(index, record)
                )
            if final is None:
                time.sleep(self.retry.delay(self.failures[index]))
                queue.appendleft((index, query))
            else:
                yield index, final

    # -- the parallel drive loop -------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        # multiprocessing loads only for a sweep that forks a pool.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.jobs)

    def _poll_timeout(self, inflight: "dict[Future, _Task]") -> float:
        """How long the next ``wait`` may block before a deadline scan."""
        now = time.perf_counter()
        if any(task.started is None for task in inflight.values()):
            return _START_POLL
        horizon = min(
            task.started + task.deadline - now
            for task in inflight.values()
            if task.started is not None
        )
        return max(0.0, min(horizon, _MAX_POLL))

    def _teardown(self, pool: ProcessPoolExecutor) -> None:
        """Kill the pool hard: a hung or dying worker never drains."""
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except OSError:
                continue
        pool.shutdown(wait=False, cancel_futures=True)

    def _submit_ready(
        self,
        pool: ProcessPoolExecutor,
        pending: "deque[tuple[float, tuple, bool]]",
        inflight: "dict[Future, _Task]",
        window: int,
    ) -> bool:
        """Submit ready entries in queue order until the window is full.

        An entry still backing off keeps its place without blocking the
        ready work behind it.  Returns True when the pool is broken (the
        entry that failed to submit stays queued).
        """
        now = time.perf_counter()
        position = 0
        while position < len(pending) and len(inflight) < window:
            ready_at, points, planned = pending[position]
            if ready_at > now:
                position += 1
                continue
            task = _Task(
                items=[
                    (index, query, self.failures.get(index, 0) + 1)
                    for index, query in points
                ],
                deadline=self.point_timeout * len(points),
            )
            try:
                future = pool.submit(
                    _evaluate_lease,
                    [(query, attempt) for _, query, attempt in task.items],
                    self.plan,
                )
            except BrokenExecutor:
                return True
            del pending[position]
            inflight[future] = task
            if planned:
                self.leases += 1
        return False

    def _collect(
        self,
        done: "set[Future]",
        inflight: "dict[Future, _Task]",
        pending: "deque[tuple[float, tuple, bool]]",
    ) -> "Iterator[tuple[int, DesignRecord]]":
        """Yield the finished tasks' records; crash retries re-enter at
        the front of ``pending``.  Returns True when a task found the
        pool broken (that task stays in flight: attribution needs the
        full in-flight picture)."""
        broken = False
        retries: "list[tuple[float, tuple, bool]]" = []
        for future in done:
            try:
                records = future.result()
            except BrokenExecutor:
                broken = True
                continue
            task = inflight.pop(future)
            for (index, query, _), record in zip(task.items, records):
                final = (
                    self._attribute(index, query, record=record)
                    if record.crash else self._finish(index, record)
                )
                if final is None:
                    retries.append(self._retry_entry(index, query))
                else:
                    yield index, final
        pending.extendleft(reversed(retries))
        return broken

    def _expired(self, inflight: "dict[Future, _Task]") -> "set[Future]":
        """Deadline scan: clocks start at first observed running."""
        now = time.perf_counter()
        expired: set[Future] = set()
        for future, task in inflight.items():
            if task.started is None and future.running():
                task.started = now
            if task.started is not None and now - task.started > task.deadline:
                expired.add(future)
        return expired

    def _pool_event(
        self,
        pool: ProcessPoolExecutor,
        inflight: "dict[Future, _Task]",
        pending: "deque[tuple[float, tuple, bool]]",
        expired: "set[Future]",
    ) -> "tuple[ProcessPoolExecutor | None, list[tuple[int, DesignRecord]], bool]":
        """Handle a break/expiry: requeue, attribute, rebuild (or degrade).

        Every in-flight point re-enters at the front of ``pending``, one
        point per entry.  Returns ``(new_pool_or_None, terminal_records,
        attributed)``; ``None`` means the driver degraded to inline
        evaluation.
        """
        self.pool_breaks += 1
        now = time.perf_counter()
        finals: list[tuple[int, DesignRecord]] = []
        requeue: "list[tuple[float, tuple, bool]]" = []
        attributed = False
        sole = next(iter(inflight.values())) if len(inflight) == 1 else None
        for future, task in inflight.items():
            is_expired = future in expired
            blame = len(task.items) == 1 and (
                is_expired or (not expired and task is sole)
            )
            if blame:
                index, query, _ = task.items[0]
                loss = "EvaluationTimeout" if is_expired else "WorkerLost"
                final = self._attribute(index, query, loss_type=loss)
                attributed = True
                if final is None:
                    requeue.append(self._retry_entry(index, query))
                else:
                    finals.append((index, final))
            else:
                requeue.extend(
                    (now, ((index, query),), False)
                    for index, query, _ in task.items
                )
        pending.extendleft(reversed(requeue))
        inflight.clear()
        self._teardown(pool)
        if self.pool_breaks >= POOL_BREAK_LIMIT:
            self.degraded = True
            warnings.warn(
                f"process pool broke {self.pool_breaks} times; degrading "
                f"to in-process serial evaluation for the remaining points",
                stacklevel=3,
            )
            return None, finals, attributed
        return self._make_pool(), finals, attributed

    def _drive_pool(
        self, leases: "list[Lease]"
    ) -> "Iterator[tuple[int, DesignRecord]]":
        # The one queue of unsubmitted work, ``(ready_at, points,
        # planned)`` entries: the planned leases in query order, with
        # retried and requeued points re-entering at the front, one
        # point per entry (``planned`` counts a submit in ``leases``).
        pending: "deque[tuple[float, tuple, bool]]" = deque(
            (0.0, lease.items, True) for lease in leases
        )
        inflight: dict[Future, _Task] = {}
        window = self.jobs
        pool: "ProcessPoolExecutor | None" = self._make_pool()
        clean = False
        try:
            while inflight or pending:
                if pool is None:
                    # Degraded: no more pools — finish what's left inline
                    # (injected faults switch to their inline semantics).
                    leftovers = [item for _, points, _ in pending
                                 for item in points]
                    pending.clear()
                    yield from self._drive_inline(leftovers)
                    break
                broken = self._submit_ready(pool, pending, inflight, window)
                if not broken:
                    if not inflight:
                        # Everything runnable is backing off; sleep it out.
                        ready_at = min(entry[0] for entry in pending)
                        time.sleep(max(0.0, ready_at - time.perf_counter()))
                        continue
                    done, _ = wait(
                        set(inflight),
                        timeout=self._poll_timeout(inflight),
                        return_when=FIRST_COMPLETED,
                    )
                    broken = yield from self._collect(done, inflight, pending)
                expired = set() if broken else self._expired(inflight)
                if broken or expired:
                    pool, finals, attributed = self._pool_event(
                        pool, inflight, pending, expired
                    )
                    yield from finals
                    window = self.jobs if attributed else 1
            clean = True
        except KeyboardInterrupt:
            # Salvage every already-finished future so its records reach
            # the cache, then let the interrupt surface as a resumable
            # stop (the executor converts it to SweepInterrupted).
            salvaged: list[tuple[int, DesignRecord]] = []
            for future, task in inflight.items():
                if not (future.done() and not future.cancelled()):
                    continue
                try:
                    records = future.result()
                except Exception:
                    continue
                for (index, _, _), record in zip(task.items, records):
                    if not record.crash:
                        salvaged.append((index, record))
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            for item in salvaged:
                yield item
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=clean, cancel_futures=not clean)

    def drive(
        self,
        pending: "list[tuple[int, DesignQuery]]",
        leases: "list[Lease] | None" = None,
    ) -> "Iterator[tuple[int, DesignRecord]]":
        """Yield ``(index, record)`` for every pending point.

        ``jobs=1`` evaluates ``pending`` inline, in order.  Otherwise
        ``leases`` (a :func:`~repro.explore.schedule.plan_leases` queue
        over ``pending``) feed the pool in order as workers free up.
        Results are keyed by point index, so lease composition never
        changes the assembled ResultSet.
        """
        if not pending:
            return
        if self.jobs == 1:
            yield from self._drive_inline(pending)
            return
        if leases is None:
            raise ReproError("a parallel drive needs a lease queue")
        yield from self._drive_pool(leases)
