"""Parallel design-space exploration with cached, resumable sweeps.

The engine behind every multi-point experiment in the repo: declare an
:class:`ExplorationSpace` (kernels x allocators x budgets x latency
models x devices x RAM ports), expand it to hashable
:class:`DesignQuery` points, and hand it to an :class:`Executor` that
evaluates points in parallel worker processes through an on-disk
:class:`ResultCache`.  Sweeps are fault-tolerant (an unexpected worker
exception becomes a crash record, never an aborted sweep), dispatched
in fixed-size single-kernel leases (:mod:`repro.explore.schedule`), and
shardable across machines (:mod:`repro.explore.shard`).  Cache entries are keyed by config hash and
guarded by per-module *version vectors* (:mod:`repro.explore.versions`),
so a resumed sweep after a source edit re-runs only the points whose
dependency cone changed.  Evaluation runs on the shared-artifact
plane of :class:`EvalContext` (:mod:`repro.explore.context`): DFGs,
coverage structures, pattern makespans and allocator tables are
memoized per process and shared across the grid.  The returned
:class:`ResultSet` supports filtering, grouping, Pareto-frontier
queries and JSON/CSV export.

Quickstart::

    from repro.explore import ExplorationSpace, Executor

    space = ExplorationSpace(kernels=("fir", "mat"), budgets=(8, 16, 64))
    results = Executor(jobs=4, cache=".explore-cache").run(space)
    for record in results.ok().pareto("cycles", "total_registers"):
        print(record.query.describe(), record.cycles)

See ``docs/explore.md`` for the full API, the cache layout and the
``repro explore`` CLI.
"""

# Imported first, so the write-side ``default_registry`` snapshot is
# taken before any module of this package (or the evaluation stack it
# loads) runs.  Every other name loads on first use, below.
from repro.explore.versions import (
    VersionRegistry,
    default_registry,
    query_roots,
    query_vector,
)

__all__ = [
    "CacheBackend",
    "CacheCorruptionWarning",
    "DEFAULT_POINT_TIMEOUT",
    "DesignQuery",
    "DesignRecord",
    "DirBackend",
    "EvalContext",
    "ExplorationSpace",
    "Executor",
    "ExploreStats",
    "FaultPlan",
    "FsckReport",
    "GcReport",
    "InjectedCrash",
    "LatencySpec",
    "Lease",
    "ResultCache",
    "ResultSet",
    "RetryPolicy",
    "SqliteBackend",
    "SupervisedDriver",
    "VersionRegistry",
    "WorkerLost",
    "WouldHang",
    "backend_for",
    "default_registry",
    "evaluate_query",
    "evaluate_query_safe",
    "parse_fault_spec",
    "parse_shard",
    "plan_leases",
    "process_context",
    "query_roots",
    "query_vector",
    "reset_process_context",
    "run_queries",
    "shard_index",
    "shard_queries",
]


def __getattr__(name: str):
    # PEP 562: each module loads on the first use of one of its names,
    # so a sweep that evaluates nothing never imports numpy.  Plain
    # import statements keep every edge visible to the AST import graph.
    if name in ("CacheBackend", "DirBackend", "SqliteBackend", "backend_for"):
        from repro.explore import backends as module
    elif name in ("CacheCorruptionWarning", "FsckReport", "GcReport",
                  "ResultCache"):
        from repro.explore import cache as module
    elif name in ("EvalContext", "process_context", "reset_process_context"):
        from repro.explore import context as module
    elif name in ("evaluate_query", "evaluate_query_safe"):
        from repro.explore import evaluate as module
    elif name in ("Executor", "ExploreStats", "run_queries"):
        from repro.explore import executor as module
    elif name in ("FaultPlan", "InjectedCrash", "WorkerLost", "WouldHang",
                  "parse_fault_spec"):
        from repro.explore import faults as module
    elif name in ("DesignQuery", "DesignRecord", "LatencySpec"):
        from repro.explore import query as module
    elif name == "ResultSet":
        from repro.explore import results as module
    elif name in ("Lease", "plan_leases"):
        from repro.explore import schedule as module
    elif name in ("parse_shard", "shard_index", "shard_queries"):
        from repro.explore import shard as module
    elif name == "ExplorationSpace":
        from repro.explore import space as module
    elif name in ("DEFAULT_POINT_TIMEOUT", "RetryPolicy", "SupervisedDriver"):
        from repro.explore import supervise as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
