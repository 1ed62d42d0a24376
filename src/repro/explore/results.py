"""Result sets: filtering, grouping, Pareto frontiers and export.

A :class:`ResultSet` wraps the ordered records of one sweep plus its
:class:`~repro.explore.executor.ExploreStats`.  Field names accepted by
``filter``/``group_by``/``pareto``/``best`` resolve against the record
first, then its query (so ``kernel``, ``allocator``, ``budget``,
``cycles``, ``wall_clock_us`` ... all work).
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.explore.query import METRIC_FIELDS, DesignRecord
from repro.formatting import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.executor import ExploreStats

__all__ = ["ResultSet"]

#: Query columns leading every tabular export.
QUERY_FIELDS = ("kernel", "allocator", "budget", "latency", "device",
                "ram_ports")


class ResultSet:
    """An ordered, queryable collection of design records."""

    def __init__(
        self,
        records: Iterable[DesignRecord],
        stats: "ExploreStats | None" = None,
    ):
        self.records = tuple(records)
        self.stats = stats

    # -- basic container protocol --------------------------------------

    def __iter__(self) -> Iterator[DesignRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> DesignRecord:
        return self.records[index]

    # -- querying ------------------------------------------------------

    def ok(self) -> "ResultSet":
        """Only the successfully evaluated points."""
        return ResultSet([r for r in self.records if r.ok], self.stats)

    def failures(self) -> "ResultSet":
        """Every unsuccessful point — infeasible and crashed alike."""
        return ResultSet([r for r in self.records if not r.ok], self.stats)

    def crashes(self) -> "ResultSet":
        """Only the crashed points (unexpected worker exceptions)."""
        return ResultSet([r for r in self.records if r.crash], self.stats)

    def filter(
        self,
        predicate: "Callable[[DesignRecord], bool] | None" = None,
        **fields: Any,
    ) -> "ResultSet":
        """Records matching ``predicate`` and every ``field=value`` pair.

        A value may also be a set/list/tuple, meaning "any of these".
        """
        def one(record: DesignRecord, name: str, wanted: Any) -> bool:
            if name == "latency":
                # Accept a LatencySpec, its label, or its bare kind.
                spec = record.query.latency
                return wanted in (spec, spec.label, spec.kind)
            return record.value_of(name) == wanted

        def matches(record: DesignRecord) -> bool:
            if predicate is not None and not predicate(record):
                return False
            for name, wanted in fields.items():
                if isinstance(wanted, (set, frozenset, list, tuple)):
                    if not any(one(record, name, w) for w in wanted):
                        return False
                elif not one(record, name, wanted):
                    return False
            return True

        return ResultSet([r for r in self.records if matches(r)], self.stats)

    def group_by(self, *names: str) -> "dict[Any, ResultSet]":
        """Partition by one or more fields (scalar key for one field)."""
        if not names:
            raise ReproError("group_by needs at least one field name")
        groups: dict[Any, list[DesignRecord]] = {}
        for record in self.records:
            values = tuple(record.value_of(name) for name in names)
            key = values[0] if len(names) == 1 else values
            groups.setdefault(key, []).append(record)
        return {key: ResultSet(members, self.stats)
                for key, members in groups.items()}

    def best(self, field: str, minimize: bool = True) -> DesignRecord:
        """The single best successful record by one metric."""
        candidates = [r for r in self.records if r.ok]
        if not candidates:
            raise ReproError("no successful records to pick a best from")
        return (min if minimize else max)(
            candidates, key=lambda r: r.value_of(field)
        )

    def pareto(self, *objectives: str, minimize: bool = True) -> "ResultSet":
        """Non-dominated successful records under ``objectives``.

        All objectives are minimized (or all maximized); a record is kept
        unless some other record is at least as good on every objective
        and strictly better on one.
        """
        if not objectives:
            objectives = ("cycles", "total_registers")
        sign = 1 if minimize else -1
        candidates = [r for r in self.records if r.ok]
        vectors = [
            tuple(sign * r.value_of(name) for name in objectives)
            for r in candidates
        ]

        def dominated(me: int) -> bool:
            mine = vectors[me]
            for other, theirs in enumerate(vectors):
                if other == me:
                    continue
                if all(t <= m for t, m in zip(theirs, mine)) and theirs != mine:
                    return True
            return False

        frontier = [r for i, r in enumerate(candidates) if not dominated(i)]
        return ResultSet(frontier, self.stats)

    # -- export --------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        return [record.to_dict() for record in self.records]

    def to_json(self, indent: "int | None" = 2) -> str:
        doc: dict[str, Any] = {"records": self.to_dicts()}
        if self.stats is not None:
            doc["stats"] = {
                "total": self.stats.total,
                "evaluated": self.stats.evaluated,
                "cache_hits": self.stats.cache_hits,
                "failures": self.stats.failures,
                "seconds": self.stats.seconds,
                "stale": self.stats.stale,
                "corrupt": self.stats.corrupt,
                "errors": self.stats.errors,
                "quarantined": self.stats.quarantined,
                "retries": self.stats.retries,
                "pool_breaks": self.stats.pool_breaks,
                "leases": self.stats.leases,
            }
        return json.dumps(doc, indent=indent)

    def to_csv(self) -> str:
        """Flat CSV: query axes, metrics, distribution and error."""
        columns = list(QUERY_FIELDS) + list(METRIC_FIELDS) + [
            "distribution", "error"
        ]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for record in self.records:
            row: list[Any] = [record.value_of(f) for f in QUERY_FIELDS]
            row += [getattr(record, f) for f in METRIC_FIELDS]
            error = f"{record.error_type}: {record.error}" if record.error else ""
            row += [record.distribution, error]
            writer.writerow(row)
        return out.getvalue()

    def render(self, title: "str | None" = None) -> str:
        """Human-readable table (one row per record)."""
        headers = ["Kernel", "Allocator", "Budget", "Latency", "Regs",
                   "Cycles", "RAM acc", "Clock(ns)", "Time(us)", "Slices",
                   "RAMs", "Note"]
        body = []
        for r in self.records:
            if r.ok:
                body.append([
                    r.query.kernel, r.query.allocator, r.query.budget,
                    r.query.latency.label, r.total_registers, r.cycles,
                    r.total_ram_accesses, f"{r.clock_ns:.1f}",
                    f"{r.wall_clock_us:.1f}", r.slices,
                    f"{r.ram_arrays}({r.ram_blocks})", "",
                ])
            else:
                body.append([
                    r.query.kernel, r.query.allocator, r.query.budget,
                    r.query.latency.label, "-", "-", "-", "-", "-", "-", "-",
                    f"{r.error_type}: {r.error}",
                ])
        return render_table(headers, body, title=title)
