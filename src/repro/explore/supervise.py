"""Supervised sweep execution: deadlines, retries, quarantine, recovery.

The :class:`SupervisedDriver` is the one drive loop behind
:class:`~repro.explore.executor.Executor`: ``jobs=1`` runs it inline,
``jobs>1`` feeds a worker pool from the work-stealing lease queue
(:func:`~repro.explore.schedule.plan_leases`).  It adds four
behaviours a plain pool loop cannot provide:

* **per-point deadlines** — ``timeout_factor x`` the
  :class:`~repro.explore.schedule.CostModel` prediction, clamped to
  ``[floor, ceiling]`` (:class:`DeadlinePolicy`); an unfitted model
  (no prior timings) falls back to the ceiling, so cold sweeps only
  catch outright hangs, never slow-but-honest points;
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
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.explore import faults as faults_mod
from repro.explore.context import EvalContext
from repro.explore.query import DesignQuery, DesignRecord

__all__ = [
    "DeadlinePolicy",
    "RetryPolicy",
    "SupervisedDriver",
    "quarantine_record",
]

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


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-point wall-time budgets derived from cost-model predictions.

    ``deadline(predicted)`` is ``timeout_factor * predicted`` clamped
    to ``[floor, ceiling]``; with no prediction (an unfitted model
    reports relative units, not seconds) the ceiling applies.  The
    generous defaults mean production sweeps only ever time out on
    outright hangs — an OPT-RA point legitimately grinding for minutes
    is far inside ``20x`` its own prediction.
    """

    timeout_factor: float = 20.0
    floor: float = 30.0
    ceiling: float = 3600.0

    def __post_init__(self) -> None:
        if self.timeout_factor <= 0:
            raise ReproError(
                f"timeout_factor must be > 0, got {self.timeout_factor}"
            )
        if not 0 < self.floor <= self.ceiling:
            raise ReproError(
                f"need 0 < floor <= ceiling, got floor={self.floor} "
                f"ceiling={self.ceiling}"
            )

    def deadline(self, predicted: "float | None") -> float:
        if predicted is None:
            return self.ceiling
        return min(max(self.timeout_factor * predicted, self.floor),
                   self.ceiling)


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
) -> "tuple[list[DesignRecord], tuple]":
    """Worker task: one lease, one IPC round trip.

    Workers evaluate on their own process-global context.  Returns the
    records plus the worker's *resident kernel keys* — the artifacts
    that context holds after this lease.  The dispatcher uses them as
    the affinity fingerprint of whichever worker frees up next; they
    carry no result data.
    """
    from repro.explore.context import process_context

    records = [_evaluate_one(query, attempt) for query, attempt in items]
    return records, process_context().resident_kernels()


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
        deadlines: DeadlinePolicy,
        plan: "faults_mod.FaultPlan | None" = None,
        estimate: "Callable[[DesignQuery], float | None] | None" = None,
        pool_break_limit: int = 6,
    ):
        if pool_break_limit < 1:
            raise ReproError(
                f"pool_break_limit must be >= 1, got {pool_break_limit}"
            )
        self.jobs = jobs
        self.context = context
        self.retry = retry
        self.deadlines = deadlines
        self.plan = plan
        self.estimate = estimate or (lambda query: None)
        self.pool_break_limit = pool_break_limit
        self.retries = 0
        self.quarantined = 0
        self.pool_breaks = 0
        self.degraded = False
        self.steals = 0
        self.leases = 0
        self.affinity_hits = 0

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

    def _point_deadline(self, query: DesignQuery) -> float:
        return self.deadlines.deadline(self.estimate(query))

    def _chunk_deadline(self, queries: "list[DesignQuery]") -> float:
        return sum(self._point_deadline(query) for query in queries)

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

    def _pick_lease(self, lease_queue: list, prefs: deque):
        """Pop the next lease, softly preferring the freed worker's kernels.

        ``prefs`` holds the resident-kernel fingerprints of recently
        completed workers (oldest first).  A queued lease whose kernel is
        already resident jumps the cost order — that is the *soft*
        affinity: a preference among queued leases, never a reservation
        that could idle a worker.
        """
        pref = prefs.popleft() if prefs else None
        position = 0
        if pref:
            for i, lease in enumerate(lease_queue):
                if lease.key in pref:
                    position = i
                    break
        lease = lease_queue.pop(position)
        if pref and lease.key in pref:
            self.affinity_hits += 1
        return lease

    def _drive_pool(
        self, leases: list
    ) -> "Iterator[tuple[int, DesignRecord]]":
        failures: dict[int, int] = {}
        queue: "deque[tuple[int, DesignQuery, float]]" = deque()
        lease_queue: list = list(leases)
        next_seq = max((lease.seq for lease in lease_queue), default=-1) + 1
        prefs: "deque[frozenset]" = deque()
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
                        deadline=self._point_deadline(query),
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
                    # Steal: when free slots outnumber queued leases,
                    # split the most expensive multi-point lease into
                    # singletons so no worker idles behind a long tail.
                    # Only *queued* leases split — in-flight ones belong
                    # to their worker.
                    free = window - len(inflight)
                    while free > len(lease_queue) and any(
                        len(lease.items) > 1 for lease in lease_queue
                    ):
                        victim_at = next(
                            i for i, lease in enumerate(lease_queue)
                            if len(lease.items) > 1
                        )
                        singles = lease_queue.pop(victim_at).split(next_seq)
                        next_seq += len(singles)
                        lease_queue.extend(singles)
                        lease_queue.sort(
                            key=lambda lease: (-lease.cost, lease.seq)
                        )
                        self.steals += 1
                    lease = self._pick_lease(lease_queue, prefs)
                    task = _Task(
                        items=[
                            (i, q, failures.get(i, 0) + 1)
                            for i, q in lease.items
                        ],
                        deadline=self._chunk_deadline(
                            [q for _, q in lease.items]
                        ),
                    )
                    try:
                        inflight[self._submit(pool, task)] = task
                        self.leases += 1
                    except BrokenExecutor:
                        lease_queue.append(lease)
                        lease_queue.sort(
                            key=lambda lease: (-lease.cost, lease.seq)
                        )
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
                        records, resident = future.result()
                    except BrokenExecutor:
                        broken = True
                        # Re-insert so the event handler sees the task
                        # (attribution needs the full in-flight picture).
                        inflight[future] = task
                        continue
                    # The freed worker very likely picks up the next
                    # submission; remember what it has resident.
                    prefs.append(frozenset(resident))
                    while len(prefs) > self.jobs:
                        prefs.popleft()
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
                    records, _ = future.result()
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
        leases: "list | None" = None,
    ) -> "Iterator[tuple[int, DesignRecord]]":
        """Yield ``(index, record)`` for every pending point.

        ``jobs=1`` evaluates ``pending`` inline, in order.  Otherwise
        ``leases`` (a :func:`~repro.explore.schedule.plan_leases` queue
        over ``pending``) feed the pool on demand as workers free up,
        with soft kernel affinity and steal-splitting.  Results are
        keyed by point index, so lease composition never changes the
        assembled ResultSet.
        """
        if not pending:
            return
        if self.jobs == 1:
            yield from self._drive_inline(pending)
            return
        if leases is None:
            raise ReproError("a parallel drive needs a lease queue")
        yield from self._drive_pool(leases)
