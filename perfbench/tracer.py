"""In-memory span recorder that wraps the public functions of each layer.

A span is ``(name, start, end, parent)``: ``start``/``end`` come from
``time.perf_counter`` and ``parent`` is the index of the innermost
enclosing span (-1 for a root).  Spans are appended to flat arrays while
the program runs and written to disk once, at the end, so recording
costs two clock reads and four appends per call.

Wrapping rebinds every module-level alias of a function object in
``sys.modules`` (``from x import f`` copies the binding into the
importing module, so patching the defining module alone would time
nothing), and patches methods on the class that defines them.
:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

#: ``(span name, module, attribute)``.  A ``*`` suffix on the span name
#: is replaced per call by the receiver's ``name`` attribute, so one
#: wrapped ``Allocator.allocate`` yields ``core.allocate.OPT-RA`` etc.
LAYERS = (
    ("versions.query_vector", "repro.explore.versions", "query_vector"),
    ("versions.module_hash", "repro.explore.versions",
     "VersionRegistry.module_hash"),
    ("cache.lookup", "repro.explore.cache", "ResultCache.lookup"),
    ("cache.put", "repro.explore.cache", "ResultCache.put"),
    ("backends.dir.read", "repro.explore.backends", "DirBackend.read"),
    ("backends.dir.write", "repro.explore.backends", "DirBackend.write"),
    ("backends.sqlite.read", "repro.explore.backends", "SqliteBackend.read"),
    ("backends.sqlite.write", "repro.explore.backends", "SqliteBackend.write"),
    ("dispatch", "repro.explore.executor", "Executor.run"),
    ("evaluate", "repro.explore.evaluate", "evaluate_query_safe"),
    ("kernels.kernel_and_groups", "repro.explore.context",
     "EvalContext.kernel_and_groups"),
    ("dfg.build_dfg", "repro.dfg.build", "build_dfg"),
    ("dfg.critical_graph", "repro.dfg.critical", "critical_graph"),
    ("core.allocate.*", "repro.core.base", "Allocator.allocate"),
    ("scalar.coverage.result", "repro.scalar.coverage", "GroupCoverage.result"),
    ("scalar.coverage.ladder", "repro.scalar.coverage",
     "GroupCoverage.ram_access_ladder"),
    ("sim.count_cycles", "repro.sim.cycles", "count_cycles"),
    ("sim.classify_patterns", "repro.sim.cycles", "classify_patterns"),
    ("sim.schedule_iteration", "repro.sim.scheduler", "schedule_iteration"),
    ("synth.build_design", "repro.synth.estimate", "build_design"),
    ("synth.count_with_best_anchors", "repro.synth.estimate",
     "count_with_best_anchors"),
    ("results.to_csv", "repro.explore.results", "ResultSet.to_csv"),
    ("sweeps.gap_report", "repro.bench.sweeps", "gap_rows"),
    ("sweeps.gap_report", "repro.bench.sweeps", "opt_gap_csv"),
)


class Tracer:
    """Records nested spans for the wrapped layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, function, span: str):
        tracer = self
        if span.endswith(".*"):
            prefix = span[:-1]

            def traced(receiver, *args, **kwargs):
                index = tracer.open(tracer.intern(prefix + receiver.name))
                try:
                    return function(receiver, *args, **kwargs)
                finally:
                    tracer.close(index)
        else:
            name_id = self.intern(span)

            def traced(*args, **kwargs):
                index = tracer.open(name_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.close(index)
        traced.__name__ = function.__name__
        traced.__qualname__ = function.__qualname__
        traced.__doc__ = function.__doc__
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer function; unresolvable ones go to ``missing``."""
        functions: dict[int, tuple[object, object]] = {}
        for span, module_name, attribute in layers:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{attribute}")
                continue
            wrapped = self._wrapper(original, span)
            if isinstance(owner, type):
                self._rebind(owner, leaf, wrapped)
            else:
                functions[id(original)] = (original, wrapped)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                match = functions.get(id(value))
                if match is not None and match[0] is value:
                    self._rebind(module, attr, match[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, prefix: str, extra: dict) -> None:
        """``prefix.json`` holds names and extras, ``prefix.bin`` the spans."""
        with open(prefix + ".bin", "wb") as handle:
            for column in (self.starts, self.ends, self.name_ids, self.parents):
                column.tofile(handle)
        doc = dict(extra, names=self.names, spans=len(self.starts),
                   missing=self.missing)
        with open(prefix + ".json", "w") as handle:
            json.dump(doc, handle)


def read_spans(prefix: str) -> "tuple[dict, list[tuple[str, float, float, int]]]":
    """Load a written trace: its extras and ``(name, start, end, parent)``."""
    with open(prefix + ".json") as handle:
        doc = json.load(handle)
    count = doc["spans"]
    columns = [array("d"), array("d"), array("i"), array("i")]
    with open(prefix + ".bin", "rb") as handle:
        for column in columns:
            column.fromfile(handle, count)
    starts, ends, name_ids, parents = columns
    names = doc["names"]
    spans = [
        (names[name_ids[i]], starts[i], ends[i], parents[i])
        for i in range(count)
    ]
    return doc, spans
