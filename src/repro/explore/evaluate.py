"""Evaluation of a single design query (the process-pool work unit).

:func:`evaluate_query` is a module-level function so it pickles cleanly
into :class:`concurrent.futures.ProcessPoolExecutor` workers.  Expected
domain failures (infeasible budgets, unknown names) come back as failed
records; programming errors propagate.  :func:`evaluate_query_safe` — the
executor's actual work unit — additionally converts *unexpected*
exceptions into crash records (traceback attached) and stamps every
record with its evaluation wall time, so one bad point can never abort
a sweep or discard its siblings' results.

Evaluation always runs on the shared-artifact plane of
:class:`~repro.explore.context.EvalContext`: the body DFG, coverage
rank/Belady structures, per-pattern cost tables, CPA-RA critical
graphs, allocations, hardware estimates and resolved objectives are
memoized per process and reused across the allocator, budget and
latency axes of a sweep, so the marginal cost of a grid point is what
its own parameters change rather than the whole analysis.
``context=None`` (the default) means the process-global context; an
explicit :class:`EvalContext` instance gives tests and benchmarks
controlled cold/warm runs.

This module is also the root of the cache's dependency cone: the code
stamp a cache entry records covers the transitive import closure of
*this* module — see :mod:`repro.explore.versions`.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.pipeline import allocator_by_name
from repro.errors import ReproError
from repro.explore.context import EvalContext, process_context
from repro.explore.query import DesignQuery, DesignRecord
from repro.hw.device import Device
from repro.spans import collect, span
from repro.synth.design import HardwareDesign
from repro.synth.estimate import build_design

__all__ = [
    "design_for",
    "evaluate_query",
    "evaluate_query_safe",
]


def design_for(
    query: DesignQuery, context: "EvalContext | None" = None
) -> "tuple[HardwareDesign, Device]":
    """The fully evaluated design of one query (raises on domain errors).

    The single authoritative query -> pipeline translation; everything
    that evaluates a query (records, pattern-class reports) goes through
    it so new pipeline parameters cannot silently diverge between
    callers.

    Its work runs under the spans ``kernel`` and ``alloc`` (and
    :func:`~repro.synth.estimate.build_design`'s), the ``--profile``
    breakdown :func:`evaluate_query` collects.
    """
    ctx = context if context is not None else process_context()
    with span("kernel"):
        kernel, groups = ctx.kernel_and_groups(query.kernel, query.kernel_json)
        device = query.build_device()
    with span("alloc"):
        objective = ctx.objective(
            query.latency, device, query.ram_ports, query.overhead
        )
        allocation = allocator_by_name(query.allocator).allocate(
            kernel, query.budget, groups, context=ctx, objective=objective
        )
    design = build_design(
        kernel,
        allocation,
        groups=groups,
        device=device,
        objective=objective,
        context=ctx,
    )
    return design, device


def _evaluate(
    query: DesignQuery, context: "EvalContext | None"
) -> DesignRecord:
    try:
        design, device = design_for(query, context=context)
    except ReproError as exc:
        return DesignRecord.failed(query, exc)
    return DesignRecord.from_design(query, design, device)


def evaluate_query(
    query: DesignQuery, context: "EvalContext | None" = None
) -> DesignRecord:
    """Run the full pipeline for one design point.

    Domain errors (:class:`~repro.errors.ReproError`) become failed
    records so one infeasible point does not abort a whole sweep.  The
    record's ``stages`` hold the self seconds of the evaluation's spans
    (:mod:`repro.spans`), collected in the evaluating process itself —
    pool workers included, so ``--profile`` totals do not depend on
    ``--jobs``.
    """
    with collect() as stages:
        record = _evaluate(query, context)
    return replace(record, stages=stages)


def evaluate_query_safe(
    query: DesignQuery, context: "EvalContext | None" = None
) -> DesignRecord:
    """Like :func:`evaluate_query`, but crash-proof and timed.

    Unexpected (non-:class:`~repro.errors.ReproError`) exceptions become
    *crash* records carrying the full worker traceback instead of
    propagating out of a process pool and aborting the sweep.  The
    returned record's ``seconds`` holds the evaluation wall time, which
    the cache persists in the entry envelope; its ``stages`` are
    collected as in :func:`evaluate_query`, and a crash record keeps
    those its spans charged before the exception.
    """
    started = time.perf_counter()
    with collect() as stages:
        try:
            record = _evaluate(query, context)
        except Exception as exc:  # noqa: BLE001 — the whole point
            record = DesignRecord.crashed(query, exc)
    return replace(
        record, stages=stages, seconds=time.perf_counter() - started
    )

