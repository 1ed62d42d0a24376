"""Parallel design-space exploration with cached, resumable sweeps.

The engine behind every multi-point experiment in the repo: declare an
:class:`ExplorationSpace` (kernels x allocators x budgets x latency
models x devices x RAM ports), expand it to hashable
:class:`DesignQuery` points, and hand it to an :class:`Executor` that
evaluates points in parallel worker processes through an on-disk
:class:`ResultCache`.  Sweeps are fault-tolerant (an unexpected worker
exception becomes a crash record, never an aborted sweep), dispatched
in fixed-size single-kernel leases (:mod:`repro.explore.schedule`), and
shardable across machines (:mod:`repro.explore.shard`).  Cache entries
are keyed by config hash and guarded by one *code stamp*
(:mod:`repro.explore.versions`): an edit to any module evaluation can
reach, or another Python or numpy version, makes every entry stale,
while an edit outside that cone (codegen, bench, the CLI) keeps every
entry valid.  Evaluation runs on the shared-artifact
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
    "evaluate_query",
    "evaluate_query_safe",
    "parse_fault_spec",
    "parse_shard",
    "plan_leases",
    "process_context",
    "query_vector",
    "reset_process_context",
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
    elif name in ("Executor", "ExploreStats"):
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
    elif name in ("VersionRegistry", "query_vector"):
        from repro.explore import versions as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
