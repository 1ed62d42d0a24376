"""Kernels: a named loop nest plus its array environment.

A :class:`Kernel` is the unit every downstream stage consumes — analysis,
DFG construction, allocation, scalar replacement, simulation and synthesis
all take a kernel.  It owns the arrays, the (perfect) loop nest, and the
enumeration of :class:`~repro.ir.stmt.ReferenceSite` objects that the
allocators treat as knapsack items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.errors import IRError
from repro.ir.expr import Array, ArrayRef, Load
from repro.ir.loop import Loop, LoopNest
from repro.ir.stmt import Assign, ReferenceSite

__all__ = ["Kernel"]


@dataclass(frozen=True)
class Kernel:
    """A perfectly nested loop computation over declared arrays.

    Parameters
    ----------
    name:
        Identifier used in reports and benchmark tables.
    nest:
        The perfect loop nest with its body statements.
    description:
        One-line human description (shows up in reports).
    """

    name: str
    nest: LoopNest
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise IRError(f"kernel name must be an identifier, got {self.name!r}")

    # -- array environment ---------------------------------------------------

    @cached_property
    def arrays(self) -> dict[str, Array]:
        """All arrays referenced by the body, keyed by name.

        Derived from the references themselves so a kernel cannot declare
        arrays it never uses or use arrays it never declares.
        """
        found: dict[str, Array] = {}
        for site in self.reference_sites():
            existing = found.get(site.array_name)
            if existing is None:
                found[site.array_name] = site.ref.array
            elif existing != site.ref.array:
                raise IRError(
                    f"kernel {self.name}: array {site.array_name!r} declared "
                    f"inconsistently ({existing} vs {site.ref.array})"
                )
        return found

    @cached_property
    def written_arrays(self) -> frozenset[str]:
        return frozenset(stmt.target.array.name for stmt in self.nest.body)

    @cached_property
    def read_arrays(self) -> frozenset[str]:
        names: set[str] = set()
        for stmt in self.nest.body:
            names.update(load.ref.array.name for load in stmt.loads())
        return frozenset(names)

    # -- reference sites ------------------------------------------------------

    def reference_sites(self) -> tuple[ReferenceSite, ...]:
        """Every reference occurrence in body order, writes after their reads.

        Within a statement the RHS loads come first (left-to-right), then
        the target write — matching dataflow order inside one iteration.
        """
        sites: list[ReferenceSite] = []
        for stmt_index, stmt in enumerate(self.nest.body):
            seen: dict[tuple[bool, ArrayRef], int] = {}
            for load in stmt.loads():
                key = (False, load.ref)
                occurrence = seen.get(key, 0)
                seen[key] = occurrence + 1
                sites.append(ReferenceSite(load.ref, stmt_index, occurrence, False))
            key = (True, stmt.target)
            occurrence = seen.get(key, 0)
            seen[key] = occurrence + 1
            sites.append(ReferenceSite(stmt.target, stmt_index, occurrence, True))
        return tuple(sites)

    def site_by_id(self, site_id: str) -> ReferenceSite:
        for site in self.reference_sites():
            if site.site_id == site_id:
                return site
        raise IRError(f"kernel {self.name}: no reference site {site_id!r}")

    # -- convenience ----------------------------------------------------------

    @property
    def depth(self) -> int:
        return self.nest.depth

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return self.nest.loop_vars

    @property
    def iteration_count(self) -> int:
        return self.nest.iteration_count

    def memory_accesses_per_iteration(self) -> int:
        """Accesses a naive (no scalar replacement) implementation performs
        each innermost iteration: one per reference site."""
        return len(self.reference_sites())

    def total_memory_accesses(self) -> int:
        """Naive total across the whole nest."""
        return self.memory_accesses_per_iteration() * self.iteration_count

    def __str__(self) -> str:
        header = f"// kernel {self.name}"
        if self.description:
            header += f": {self.description}"
        return f"{header}\n{self.nest}"
