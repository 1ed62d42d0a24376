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
graphs and KS-RA DP tables are memoized per process and reused across
the allocator/budget axes of a sweep, so the marginal cost of a grid
point is the allocation decision rather than the whole analysis.
``context=None`` (the default) means the process-global context; an
explicit :class:`EvalContext` instance gives tests and benchmarks
controlled cold/warm runs.

This module is also the root of the cache's dependency cone: the
version vector a cache entry records is the transitive import closure
of *this* module (plus the query's kernel and allocator modules) — see
:mod:`repro.explore.versions`.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.pipeline import allocator_by_name
from repro.errors import ReproError
from repro.explore.context import EvalContext, process_context
from repro.explore.query import DesignQuery, DesignRecord
from repro.hw.device import Device
from repro.scalar.coverage import trace_engine_seconds
from repro.synth.design import HardwareDesign
from repro.synth.estimate import build_design, charge_stage, fold_trace_stage

__all__ = [
    "design_for",
    "evaluate_query",
    "evaluate_query_safe",
    "code_version",
]


def design_for(
    query: DesignQuery,
    context: "EvalContext | None" = None,
    stages: "dict[str, float] | None" = None,
) -> "tuple[HardwareDesign, Device]":
    """The fully evaluated design of one query (raises on domain errors).

    The single authoritative query -> pipeline translation; everything
    that evaluates a query (records, pattern-class reports) goes through
    it so new pipeline parameters cannot silently diverge between
    callers.

    ``stages``, when given, accumulates per-stage wall seconds under the
    keys ``kernel`` / ``alloc`` / ``dfg_schedule`` / ``trace`` /
    ``cycles`` / ``other`` (the ``--profile`` breakdown).  The trace
    share is folded out in a ``finally`` around the whole evaluation
    (:func:`~repro.synth.estimate.fold_trace_stage`): the split happens
    in the evaluating process itself — pool workers included, which is
    what keeps ``--profile`` totals invariant under ``--jobs`` — and
    survives domain errors, so failed records carry their trace
    attribution too.
    """
    ctx = context if context is not None else process_context()
    started = time.perf_counter()
    trace_before = trace_engine_seconds()
    try:
        kernel, groups = ctx.kernel_and_groups(query.kernel, query.kernel_json)
        device = query.build_device()
        mark = charge_stage(stages, "kernel", started)
        allocator = allocator_by_name(query.allocator)
        tune = getattr(allocator, "tune", None)
        if tune is not None:
            # Objective-aware allocators (OPT-RA) optimize exactly what
            # build_design below will report for this query.
            tune(
                model=query.latency.to_model(),
                ram_ports=query.ram_ports or device.bram_ports,
                overhead_per_iteration=query.overhead,
            )
        allocation = allocator.allocate(
            kernel, query.budget, groups, context=ctx
        )
        charge_stage(stages, "alloc", mark)
        design = build_design(
            kernel,
            allocation,
            groups=groups,
            device=device,
            model=query.latency.to_model(),
            ram_ports=query.ram_ports or None,
            overhead_per_iteration=query.overhead,
            context=ctx,
            stages=stages,
        )
    finally:
        fold_trace_stage(stages, trace_before)
    return design, device


def evaluate_query(
    query: DesignQuery, context: "EvalContext | None" = None
) -> DesignRecord:
    """Run the full pipeline for one design point.

    Domain errors (:class:`~repro.errors.ReproError`) become failed
    records so one infeasible point does not abort a whole sweep.
    """
    stages: dict[str, float] = {}
    try:
        design, device = design_for(query, context=context, stages=stages)
    except ReproError as exc:
        return replace(DesignRecord.failed(query, exc), stages=stages)
    record = DesignRecord.from_design(query, design, device)
    return replace(record, stages=stages)


def evaluate_query_safe(
    query: DesignQuery, context: "EvalContext | None" = None
) -> DesignRecord:
    """Like :func:`evaluate_query`, but crash-proof and timed.

    Unexpected (non-:class:`~repro.errors.ReproError`) exceptions become
    *crash* records carrying the full worker traceback instead of
    propagating out of a process pool and aborting the sweep.  The
    returned record's ``seconds`` holds the evaluation wall time, which
    the cache persists and the cost model
    (:mod:`repro.explore.schedule`) learns from.
    """
    started = time.perf_counter()
    try:
        record = evaluate_query(query, context=context)
    except Exception as exc:  # noqa: BLE001 — the whole point
        record = DesignRecord.crashed(query, exc)
    return replace(record, seconds=time.perf_counter() - started)


def code_version() -> str:
    """Stable whole-tree fingerprint (kept for back-compat; see
    :func:`repro.explore.versions.code_version`)."""
    from repro.explore.versions import code_version as whole_tree

    return whole_tree()
