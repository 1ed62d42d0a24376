"""Reference coverage: per-region ranks and per-count traces, test-only.

This is group coverage computed the plain way, one register count at a
time.  Pinned coverage ranks every region of the carrying level on its
own (no shift-class deduplication); window coverage traces each count
with the reference Belady simulator of ``residency_oracle.py``, placement
arrays and all (no stack-distance pass, no shared plane); a budget axis
is one full result per count.  It shares nothing with
:mod:`repro.scalar.coverage` except the :class:`CoverageResult` record
and the kernel's address grids.  :class:`ReferenceCoverage` has the
:class:`~repro.scalar.coverage.GroupCoverage` interface, so
``count_cycles(..., coverages=reference_coverages(kernel, groups))``
counts cycles over it.
"""

from __future__ import annotations

import functools

import numpy as np
import residency_oracle

from repro.scalar.coverage import CoverageResult

__all__ = ["ReferenceCoverage", "reference_coverages"]


class ReferenceCoverage:
    """One group's coverage, recomputed from scratch for every query."""

    def __init__(self, kernel, group) -> None:
        self.kernel = kernel
        self.group = group
        self.beta = group.full_registers
        self.shape = kernel.nest.trip_counts()
        best = min(group.profile.points, key=lambda p: (p.accesses, p.registers))
        carrying = group.site_reuse.carrying_levels
        if best.level in carrying:
            self.level = best.level
        else:
            self.level = carrying[0] if carrying else None
        if self.level is None:
            self.kind = "none"
        else:
            var = kernel.nest.loops[self.level - 1].var
            self.kind = "window" if group.ref.depends_on(var) else "pinned"

    def covered(self, registers: int) -> int:
        if self.beta == 1:
            return min(registers, 1)
        if registers < 2:
            return 0
        return min(registers, self.beta)

    def _flat(self) -> np.ndarray:
        grids = self.kernel.nest.meshgrids()
        return np.broadcast_to(
            self.group.ref.flat_address_grid(grids), self.shape
        )

    def result(self, registers: int, anchor: str = "low") -> CoverageResult:
        covered = self.covered(registers)
        has_read = self.group.has_active_read
        writes = bool(self.group.writes)
        if self.kind == "none" or covered == 0 or not self.group.carries_reuse:
            return CoverageResult(
                np.full(self.shape, has_read, dtype=bool),
                np.full(self.shape, writes, dtype=bool),
                0,
                kind="none",
            )
        if self.kind == "pinned":
            return self._pinned(covered, has_read, writes, anchor)
        return self._window(covered, has_read, writes)

    def ram_access_ladder(self, registers_values, anchor: str = "low"):
        return {
            r: self.result(r, anchor=anchor).total_ram_accesses
            for r in registers_values
        }

    def _pinned(self, covered, has_read, writes, anchor) -> CoverageResult:
        outer = int(np.prod(self.shape[: self.level - 1], dtype=np.int64))
        by_region = self._flat().reshape(outer, -1)
        ranks = np.empty(by_region.shape, dtype=np.int64)
        first = np.zeros(by_region.shape, dtype=bool)
        for row in range(outer):
            _, first_positions, inverse = np.unique(
                by_region[row], return_index=True, return_inverse=True
            )
            ranks[row] = inverse
            first[row, first_positions] = True
        ranks = ranks.reshape(self.shape)
        first = first.reshape(self.shape)
        elements = int(ranks.max()) + 1
        if anchor == "low":
            in_cover = ranks < covered
        else:
            in_cover = ranks >= elements - covered
        read_miss = (
            ~(in_cover & ~first) if has_read
            else np.zeros(self.shape, dtype=bool)
        )
        write_miss = ~in_cover if writes else np.zeros(self.shape, dtype=bool)
        return CoverageResult(
            read_miss,
            write_miss,
            outer * min(covered, elements) if writes else 0,
            kind="pinned",
            covered=covered,
            region_level=self.level,
            retain=in_cover,
        )

    def _window(self, covered, has_read, writes) -> CoverageResult:
        stream = self._flat().reshape(-1)
        row_len = (
            int(np.prod(self.shape[1:], dtype=np.int64))
            if len(self.shape) > 1 else None
        )
        misses, inserted, evicted, freed = residency_oracle.opt_trace(
            stream, covered, row_len=row_len
        )
        misses = misses.reshape(self.shape)
        none = np.zeros(self.shape, dtype=bool)
        return CoverageResult(
            misses if has_read else none,
            misses if writes else none,
            covered if writes else 0,
            kind="window",
            covered=covered,
            region_level=self.level,
            placement=functools.partial(tuple, (inserted, evicted, freed)),
        )


def reference_coverages(kernel, groups) -> "dict[str, ReferenceCoverage]":
    """Reference coverage for every group, keyed by group name."""
    return {g.name: ReferenceCoverage(kernel, g) for g in groups}
