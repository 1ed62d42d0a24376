"""Nested wall-clock spans: where the time of one evaluation goes.

``with span("cycles"): ...`` charges the block's *self* time — its wall
duration minus the durations of the spans opened inside it — to the
name ``"cycles"`` of the innermost active :func:`collect` block.  Spans
nest freely, so work that runs inside another stage (window traces
under OPT-RA's allocation, region ranking under the cycle count) is
attributed to its own name and to nothing else, and the self times of
one collection add up to the wall time its outermost spans covered.

With no collector active a span records nothing; it costs one small
object and one context-variable read.  Spans close in their ``__exit__``, so a block
left by an exception is still charged: a failed evaluation keeps its
partial attribution.  The numbers are timing only; they never feed an
evaluated result.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["collect", "span"]


class _Collector:
    """Per-name self seconds, plus the child time of each open span."""

    __slots__ = ("totals", "open")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.open: list[float] = []


_ACTIVE: "ContextVar[_Collector | None]" = ContextVar(
    "repro_spans", default=None
)


class span:
    """Charge the self time of a ``with`` block to ``name``."""

    __slots__ = ("name", "_collector", "_started")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "span":
        collector = self._collector = _ACTIVE.get()
        if collector is not None:
            collector.open.append(0.0)
            self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        collector = self._collector
        if collector is None:
            return
        elapsed = time.perf_counter() - self._started
        nested = collector.open.pop()
        totals = collector.totals
        totals[self.name] = totals.get(self.name, 0.0) + (elapsed - nested)
        if collector.open:
            collector.open[-1] += elapsed


@contextmanager
def collect() -> Iterator[dict[str, float]]:
    """Collect the spans of a ``with`` block; yields name -> self seconds.

    The dict fills as spans close.  A nested ``collect`` starts its own
    totals; the enclosing collector counts that time as self time of
    whichever of its spans is open.
    """
    collector = _Collector()
    token = _ACTIVE.set(collector)
    try:
        yield collector.totals
    finally:
        _ACTIVE.reset(token)
