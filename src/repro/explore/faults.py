"""Deterministic fault injection for the supervised execution plane.

A :class:`FaultPlan` decides, purely from ``(seed, query digest,
attempt)``, whether a design point's evaluation misbehaves and how:

``crash``
    The evaluation raises a synthetic unexpected exception
    (:class:`InjectedCrash`), producing an in-band crash record exactly
    like a real worker bug would.
``hang``
    The evaluation stalls.  In a pool worker it sleeps
    ``hang_seconds`` (long past any test deadline, so the parent's
    per-point deadline fires and the supervisor rebuilds the pool); in
    the inline path it raises :class:`WouldHang` instead, which the
    supervisor treats exactly like a parallel deadline expiry — so
    ``jobs=1`` and ``jobs=N`` attribute the same failures.
``kill``
    The evaluating process SIGKILLs itself — a *real*
    ``BrokenProcessPool`` in a pool worker.  Inline it raises
    :class:`WorkerLost`, the jobs=1 stand-in with the same attribution.
``slow``
    The evaluation sleeps :data:`SLOW_SECONDS` first, then proceeds
    normally (deadline/latency jitter without failure).
``corrupt-write`` / ``enospc``
    Cache-plane faults: they fire in the *parent* at cache-write time
    (see :meth:`FaultPlan.cache_fault` and the executor), flipping a
    byte of the just-written entry or raising a synthetic
    ``OSError(ENOSPC)``.

The plan is an argument, never a process global: it rides with each
lease submitted to a pool worker (it is a small frozen, picklable
dataclass) and is passed straight to the inline evaluation, so an
injected run is reproducible under any multiprocessing start method
and independent of which worker evaluates which point.  ``attempt``
gates every fault (``attempt <= fires``), so a retried point recovers
deterministically.

Because decisions are pure in ``(seed, digest, attempt)``, a plan is
also **lease-shape independent**: whether a point reaches a worker
inside a multi-point lease or a singleton one
(:mod:`repro.explore.schedule`'s lease queue), or runs inline
at ``jobs=1``, the same faults fire on the same attempts — which is
what lets the fault matrix pin bit-identical results and identical
retry/quarantine counters across ``jobs``.

This module is deliberately *outside* the cache's stamped cone rooted at
:mod:`repro.explore.evaluate`: faults are applied by the executor
layer, never by evaluation itself, so enabling the harness cannot
invalidate cache entries.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ReproError
from repro.explore.query import DesignQuery, DesignRecord

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedCrash",
    "WorkerLost",
    "WouldHang",
    "parse_fault_spec",
]

#: Every fault kind a plan can inject, in cumulative-draw order.
FAULT_KINDS = ("crash", "hang", "kill", "slow", "corrupt-write", "enospc")

#: Kinds applied by the parent at cache-write time, not in evaluation.
_CACHE_KINDS = frozenset({"corrupt-write", "enospc"})

#: Seconds a ``slow`` fault sleeps before the evaluation proceeds.
SLOW_SECONDS = 0.01


class InjectedCrash(RuntimeError):
    """The synthetic unexpected exception of a ``crash`` fault."""


class WorkerLost(ReproError):
    """Inline stand-in for a SIGKILL'ed worker (``jobs=1`` fault parity)."""


class WouldHang(ReproError):
    """Inline stand-in for a hung worker (``jobs=1`` fault parity)."""


@dataclass(frozen=True)
class FaultPlan:
    """A seed-driven, picklable assignment of faults to design points.

    ``rates`` maps fault kinds to probabilities; each query draws one
    uniform number from ``sha256(seed:digest)`` and walks the
    cumulative rates, so the decision is a pure function of the plan
    and the query — the same under ``jobs=1`` and ``jobs=N``, and the
    same in every retry of the run.  ``pins`` force a specific kind on
    specific query digests (the fault-matrix tests target one point).

    ``fires`` is how many *attributed attempts* of a point the fault
    fires on: with ``fires=1`` the first attempt fails and the retry
    succeeds; with ``fires`` beyond the retry budget the point is
    quarantined.
    """

    seed: int = 0
    rates: "tuple[tuple[str, float], ...]" = ()
    pins: "tuple[tuple[str, str], ...]" = ()
    fires: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        total = 0.0
        for kind, rate in self.rates:
            if kind not in FAULT_KINDS:
                raise ReproError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{FAULT_KINDS}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"fault rate must be in [0, 1], got {rate}")
            total += rate
        if total > 1.0 + 1e-9:
            raise ReproError(f"fault rates sum to {total:.3f} > 1")
        for _, kind in self.pins:
            if kind not in FAULT_KINDS:
                raise ReproError(
                    f"unknown pinned fault kind {kind!r}; expected one of "
                    f"{FAULT_KINDS}"
                )
        if self.fires < 1:
            raise ReproError(f"fires must be >= 1, got {self.fires}")

    @staticmethod
    def targeting(
        kind: str,
        queries: "Iterable[DesignQuery]",
        fires: int = 1,
        **kwargs,
    ) -> "FaultPlan":
        """A plan pinning one fault ``kind`` onto exactly ``queries``."""
        return FaultPlan(
            pins=tuple((query.digest(), kind) for query in queries),
            fires=fires,
            **kwargs,
        )

    def _draw(self, digest: str) -> float:
        seeded = f"{self.seed}:{digest}".encode()
        raw = hashlib.sha256(seeded).digest()[:8]
        return int.from_bytes(raw, "big") / 2.0**64

    def fault_for(self, query: DesignQuery) -> "str | None":
        """The fault kind assigned to ``query``, or None."""
        digest = query.digest()
        for pinned, kind in self.pins:
            if pinned == digest:
                return kind
        if not self.rates:
            return None
        draw = self._draw(digest)
        cumulative = 0.0
        for kind, rate in self.rates:
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def cache_fault(self, query: DesignQuery) -> "str | None":
        """The cache-plane fault for ``query`` (corrupt-write/enospc)."""
        kind = self.fault_for(query)
        return kind if kind in _CACHE_KINDS else None

    def apply(
        self, query: DesignQuery, attempt: int, worker: bool
    ) -> "DesignRecord | None":
        """Inject this point's evaluation fault, if any.

        Returns an injected crash record, returns None (no fault, an
        exhausted fault, a cache-plane fault, or ``slow`` after its
        sleep), raises :class:`WorkerLost`/:class:`WouldHang` inline —
        or, in a pool worker, never returns (``kill``) / stalls
        (``hang``).
        """
        kind = self.fault_for(query)
        if kind is None or kind in _CACHE_KINDS or attempt > self.fires:
            return None
        if kind == "slow":
            time.sleep(SLOW_SECONDS)
            return None
        if kind == "crash":
            return DesignRecord.crashed(
                query, InjectedCrash(f"injected crash (attempt {attempt})")
            )
        if kind == "kill":
            if worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise WorkerLost(
                f"injected SIGKILL of the evaluating process "
                f"(attempt {attempt})"
            )
        # hang: a worker stalls until the parent's deadline gives up on
        # it (the rebuilt pool terminates this process); inline we
        # cannot actually stall the sweep, so the supervisor is told
        # what the deadline would have concluded.
        if worker:
            time.sleep(self.hang_seconds)
            return None
        raise WouldHang(f"injected hang (attempt {attempt})")


def parse_fault_spec(spec: str, seed: int = 0, **kwargs) -> FaultPlan:
    """Parse the CLI's ``--inject`` spec, e.g. ``"crash=0.2,kill=0.1"``."""
    rates: list[tuple[str, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, rate_text = part.partition("=")
        try:
            rate = float(rate_text)
        except ValueError:
            raise ReproError(
                f"bad fault spec entry {part!r}; expected KIND=RATE with "
                f"KIND in {FAULT_KINDS}"
            )
        rates.append((kind.strip(), rate))
    if not rates:
        raise ReproError(f"empty fault spec {spec!r}")
    return FaultPlan(seed=seed, rates=tuple(rates), **kwargs)

