"""Parallel design-space exploration with cached, resumable sweeps.

The engine behind every multi-point experiment in the repo: declare an
:class:`ExplorationSpace` (kernels x allocators x budgets x latency
models x devices x RAM ports), expand it to hashable
:class:`DesignQuery` points, and hand it to an :class:`Executor` that
evaluates points in parallel worker processes through an on-disk
:class:`ResultCache`.  Sweeps are fault-tolerant (an unexpected worker
exception becomes a crash record, never an aborted sweep), scheduled by
a per-point cost model (:mod:`repro.explore.schedule`), and shardable
across machines (:mod:`repro.explore.shard`).  Cache entries are keyed by config hash and
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

from repro.explore.backends import (
    CacheBackend,
    DirBackend,
    SqliteBackend,
    backend_for,
)
from repro.explore.cache import (
    CacheCorruptionWarning,
    FsckReport,
    GcReport,
    ResultCache,
)
from repro.explore.context import (
    EvalContext,
    process_context,
    reset_process_context,
)
from repro.explore.evaluate import (
    code_version,
    evaluate_query,
    evaluate_query_safe,
)
from repro.explore.executor import Executor, ExploreStats, run_queries
from repro.explore.faults import (
    FaultPlan,
    InjectedCrash,
    WorkerLost,
    WouldHang,
    parse_fault_spec,
)
from repro.explore.query import DesignQuery, DesignRecord, LatencySpec
from repro.explore.results import ResultSet
from repro.explore.schedule import (
    CostModel,
    Lease,
    persist_cost_model,
    plan_leases,
    static_cost,
)
from repro.explore.shard import parse_shard, shard_index, shard_queries
from repro.explore.space import ExplorationSpace
from repro.explore.supervise import (
    DeadlinePolicy,
    RetryPolicy,
    SupervisedDriver,
)
from repro.explore.versions import (
    VersionRegistry,
    default_registry,
    query_roots,
    query_vector,
)

__all__ = [
    "CacheBackend",
    "CacheCorruptionWarning",
    "CostModel",
    "DeadlinePolicy",
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
    "code_version",
    "default_registry",
    "evaluate_query",
    "evaluate_query_safe",
    "parse_fault_spec",
    "parse_shard",
    "persist_cost_model",
    "plan_leases",
    "process_context",
    "query_roots",
    "query_vector",
    "reset_process_context",
    "run_queries",
    "shard_index",
    "shard_queries",
    "static_cost",
]
