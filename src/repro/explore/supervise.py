"""Supervised sweep execution: deadlines, retries, quarantine, recovery.

The :class:`SupervisedDriver` is the one drive loop behind
:class:`~repro.explore.executor.Executor`: ``jobs=1`` runs it inline,
``jobs>1`` feeds a worker pool from the fixed-size lease queue
(:func:`~repro.explore.schedule.plan_leases`), one lease per idle
worker, in queue order.  It adds four behaviours a plain pool loop
cannot provide:

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
  ``pool_break_limit`` rebuilds the driver abandons pools entirely and
  finishes the remaining points inline.

**Failure attribution** is what keeps injected runs deterministic
across ``jobs``: a point's failure count increments only when the
failure is unambiguously *its own* — an in-band crash record, a
deadline expiry of a single-point task, a pool break while that point
was the sole task in flight, or the inline
:class:`~repro.explore.faults.WorkerLost`/:class:`~repro.explore.faults.WouldHang`
stand-ins.  A pool break with several tasks in flight requeues them
*without* attribution and shrinks the submission window to one task,
so the culprit identifies itself on the next break; once attributed,
the window re-opens.  ``jobs=1`` and ``jobs=N`` therefore agree on
retry and quarantine counts (pool-rebuild counts are inherently
parallel-only).
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.explore import faults as faults_mod
from repro.explore.context import EvalContext
from repro.explore.query import DesignQuery, DesignRecord
from repro.explore.schedule import Lease

__all__ = [
    "DEFAULT_POINT_TIMEOUT",
    "RetryPolicy",
    "SupervisedDriver",
    "quarantine_record",
]

#: Seconds one point may run before it counts as hung.  Far above any
#: registered grid point's evaluation time, so only hangs trip it.
DEFAULT_POINT_TIMEOUT = 30.0

#: Poll cadence (seconds) while some in-flight task has not been seen
#: running yet (its deadline clock starts at first observed running).
_START_POLL = 0.1
#: Upper bound on the poll interval once every task is stamped.
_MAX_POLL = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how eagerly a failing point is retried.

    ``delay(n)`` after the ``n``-th attributed failure is
    ``backoff * backoff_factor**(n-1)``, capped at ``max_backoff`` —
    deterministic, so injected runs replay identically.
    """

    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 0 or self.max_backoff < 0:
            raise ReproError("backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ReproError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, failures: int) -> float:
        if failures <= 0 or self.backoff <= 0:
            return 0.0
        return min(
            self.backoff * self.backoff_factor ** (failures - 1),
            self.max_backoff,
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


def _worker_init(plan: "faults_mod.FaultPlan | None") -> None:
    """Pool initializer: thread the fault plan across the boundary."""
    faults_mod.install_fault_plan(plan, worker=True)


def _evaluate_one(
    query: DesignQuery, attempt: int, context: "EvalContext | None" = None
) -> DesignRecord:
    """Evaluate one point, fault-aware; the supervised work unit."""
    from repro.explore.evaluate import evaluate_query_safe

    record = faults_mod.apply_fault(query, attempt)
    if record is None:
        record = evaluate_query_safe(query, context=context)
    return record


def _evaluate_lease(
    items: "list[tuple[DesignQuery, int]]",
) -> "list[DesignRecord]":
    """Worker task: one lease, one IPC round trip.

    Workers evaluate on their own process-global context.
    """
    return [_evaluate_one(query, attempt) for query, attempt in items]


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
        pool_break_limit: int = 6,
    ):
        if pool_break_limit < 1:
            raise ReproError(
                f"pool_break_limit must be >= 1, got {pool_break_limit}"
            )
        self.jobs = jobs
        self.context = context
        self.retry = retry
        self.point_timeout = point_timeout
        self.plan = plan
        self.pool_break_limit = pool_break_limit
        self.retries = 0
        self.quarantined = 0
        self.pool_breaks = 0
        self.degraded = False
        self.leases = 0

    # -- shared attribution ------------------------------------------------

    def _attribute(
        self,
        index: int,
        query: DesignQuery,
        failures: "dict[int, int]",
        record: "DesignRecord | None" = None,
        loss_type: "str | None" = None,
    ) -> "tuple[str, DesignRecord | None]":
        """One attributed failure: ``('retry', None)`` or ``('final', rec)``."""
        count = failures[index] = failures.get(index, 0) + 1
        if count > self.retry.max_retries:
            self.quarantined += 1
            if record is not None:
                final = replace(record, quarantined=True, attempts=count)
            else:
                final = quarantine_record(query, loss_type or "WorkerLost",
                                          count)
            return "final", final
        self.retries += 1
        return "retry", None

    def _finish(
        self, index: int, failures: "dict[int, int]", record: DesignRecord
    ) -> DesignRecord:
        """Stamp the attempt count onto a successful-after-retry record."""
        count = failures.get(index, 0)
        return replace(record, attempts=count + 1) if count else record

    # -- inline (jobs=1 and degraded mode) ---------------------------------

    def _drive_inline(
        self,
        items: "Iterable[tuple[int, DesignQuery]]",
        failures: "dict[int, int] | None" = None,
    ) -> "Iterator[tuple[int, DesignRecord]]":
        if failures is None:
            failures = {}
        queue = deque(items)
        while queue:
            index, query = queue.popleft()
            outcome = "final"
            final: "DesignRecord | None" = None
            try:
                record = _evaluate_one(
                    query, failures.get(index, 0) + 1, self.context
                )
            except faults_mod.WorkerLost:
                outcome, final = self._attribute(
                    index, query, failures, loss_type="WorkerLost"
                )
            except faults_mod.WouldHang:
                outcome, final = self._attribute(
                    index, query, failures, loss_type="EvaluationTimeout"
                )
            else:
                if record.crash:
                    outcome, final = self._attribute(
                        index, query, failures, record=record
                    )
                else:
                    final = self._finish(index, failures, record)
            if outcome == "retry":
                time.sleep(self.retry.delay(failures[index]))
                queue.appendleft((index, query))
            else:
                assert final is not None
                yield index, final

    # -- the parallel drive loop -------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        if self.plan is not None:
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(self.plan,),
            )
        return ProcessPoolExecutor(max_workers=self.jobs)

    def _submit(self, pool: ProcessPoolExecutor, task: _Task) -> Future:
        return pool.submit(
            _evaluate_lease,
            [(query, attempt) for _, query, attempt in task.items],
        )

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

    def _pool_event(
        self,
        pool: ProcessPoolExecutor,
        inflight: "dict[Future, _Task]",
        failures: "dict[int, int]",
        queue: "deque[tuple[int, DesignQuery, float]]",
        expired: "frozenset[Future] | set[Future]" = frozenset(),
    ) -> "tuple[ProcessPoolExecutor | None, list[tuple[int, DesignRecord]], bool]":
        """Handle a break/expiry: requeue, attribute, rebuild (or degrade).

        Returns ``(new_pool_or_None, terminal_records, attributed)``;
        ``None`` means the driver degraded to inline evaluation.
        """
        self.pool_breaks += 1
        now = time.perf_counter()
        finals: list[tuple[int, DesignRecord]] = []
        attributed = False
        sole = next(iter(inflight.values())) if len(inflight) == 1 else None
        for future, task in list(inflight.items()):
            is_expired = future in expired
            blame = len(task.items) == 1 and (
                is_expired or (not expired and task is sole)
            )
            if blame:
                index, query, _ = task.items[0]
                loss = "EvaluationTimeout" if is_expired else "WorkerLost"
                outcome, final = self._attribute(
                    index, query, failures, loss_type=loss
                )
                attributed = True
                if outcome == "retry":
                    queue.append(
                        (index, query, now + self.retry.delay(failures[index]))
                    )
                else:
                    assert final is not None
                    finals.append((index, final))
            else:
                for index, query, _ in task.items:
                    queue.append((index, query, now))
        inflight.clear()
        self._teardown(pool)
        if self.pool_breaks >= self.pool_break_limit:
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
        failures: dict[int, int] = {}
        queue: "deque[tuple[int, DesignQuery, float]]" = deque()
        lease_queue: "deque[Lease]" = deque(leases)
        inflight: dict[Future, _Task] = {}
        window = self.jobs
        pool: "ProcessPoolExecutor | None" = self._make_pool()
        clean = False
        try:
            while inflight or queue or lease_queue:
                if pool is None:
                    # Degraded: no more pools — finish what's left inline
                    # (injected faults switch to their inline semantics).
                    leftovers = [(i, q) for i, q, _ in queue]
                    leftovers.extend(
                        item for lease in lease_queue for item in lease.items
                    )
                    queue.clear()
                    lease_queue.clear()
                    yield from self._drive_inline(leftovers, failures)
                    break
                now = time.perf_counter()
                submit_failed = False
                while queue and len(inflight) < window:
                    if queue[0][2] > now:
                        break
                    index, query, _ = queue.popleft()
                    task = _Task(
                        items=[(index, query, failures.get(index, 0) + 1)],
                        deadline=self.point_timeout,
                    )
                    try:
                        inflight[self._submit(pool, task)] = task
                    except BrokenExecutor:
                        queue.appendleft((index, query, now))
                        submit_failed = True
                        break
                while (
                    not submit_failed and lease_queue
                    and len(inflight) < window
                ):
                    lease = lease_queue.popleft()
                    task = _Task(
                        items=[
                            (i, q, failures.get(i, 0) + 1)
                            for i, q in lease.items
                        ],
                        deadline=self.point_timeout * len(lease.items),
                    )
                    try:
                        inflight[self._submit(pool, task)] = task
                        self.leases += 1
                    except BrokenExecutor:
                        lease_queue.appendleft(lease)
                        submit_failed = True
                if submit_failed:
                    pool, finals, attributed = self._pool_event(
                        pool, inflight, failures, queue
                    )
                    yield from finals
                    window = self.jobs if attributed else 1
                    continue
                if not inflight:
                    # Everything runnable is backing off; sleep it out.
                    time.sleep(
                        max(0.0, min(item[2] for item in queue) - now)
                    )
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self._poll_timeout(inflight),
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    task = inflight.pop(future)
                    try:
                        records = future.result()
                    except BrokenExecutor:
                        broken = True
                        # Re-insert so the event handler sees the task
                        # (attribution needs the full in-flight picture).
                        inflight[future] = task
                        continue
                    for (index, query, _), record in zip(task.items, records):
                        if record.crash:
                            outcome, final = self._attribute(
                                index, query, failures, record=record
                            )
                            if outcome == "retry":
                                queue.append((
                                    index, query,
                                    time.perf_counter()
                                    + self.retry.delay(failures[index]),
                                ))
                                continue
                            assert final is not None
                            yield index, final
                        else:
                            yield index, self._finish(index, failures, record)
                if broken:
                    pool, finals, attributed = self._pool_event(
                        pool, inflight, failures, queue
                    )
                    yield from finals
                    window = self.jobs if attributed else 1
                    continue
                # Deadline scan: clocks start at first observed running.
                now = time.perf_counter()
                expired: set[Future] = set()
                for future, task in inflight.items():
                    if task.started is None and future.running():
                        task.started = now
                    if (
                        task.started is not None
                        and now - task.started > task.deadline
                    ):
                        expired.add(future)
                if expired:
                    pool, finals, attributed = self._pool_event(
                        pool, inflight, failures, queue, expired=expired
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
