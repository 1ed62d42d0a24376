"""Data-reuse analysis: reuse-carrying levels, register requirements, savings.

This implements the analysis the paper inherits from Carr-Kennedy [4] and
So-Hall [11], specialized to compile-time rectangular nests and computed
exactly via footprint enumeration:

* A loop at level ``l`` **carries reuse** for a reference iff consecutive
  iterations of that loop (inner loops sweeping fully) touch overlapping
  element sets — invariance is the identical-set special case, sliding
  windows (``x[i+j]``) the partial-overlap case.

* Exploiting reuse carried at level ``l`` requires holding the footprint of
  one full execution of the inner subnest in registers:
  ``beta(l) = D(l+1)`` where ``D(m)`` is the distinct-element count when
  loops ``m..depth`` sweep fully.

* The memory accesses that remain are one per distinct element per
  execution of the subnest rooted at ``l``:
  ``accesses_after(l) = (prod of trip counts above l) * D(l)``.

These per-level points feed :class:`~repro.analysis.profile.AccessProfile`,
whose Pareto frontier is what the allocators consume.

The model assumes reuse is exploited between *consecutive* iterations of the
carrying loop (rotating-register style).  All six paper kernels satisfy
this; :mod:`repro.sim.residency` provides an empirical cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.analysis.footprint import distinct_count, footprints_overlap
from repro.analysis.profile import AccessProfile, ProfilePoint, pareto_points
from repro.errors import AnalysisError
from repro.ir.kernel import Kernel
from repro.ir.stmt import ReferenceSite

__all__ = ["SiteReuse", "analyze_site", "analyze_kernel_sites"]


@dataclass(frozen=True)
class SiteReuse:
    """Reuse facts for one reference site.

    Attributes
    ----------
    site:
        The reference occurrence analyzed.
    carrying_levels:
        1-based loop levels that carry reuse for this reference, ascending
        (outermost first).
    level_points:
        ``{level: (registers, accesses_after)}`` for the no-reuse baseline
        (``depth+1``) and every carrying level.
    profile:
        The Pareto accesses-vs-registers curve.
    """

    site: ReferenceSite
    carrying_levels: tuple[int, ...]
    level_points: dict[int, tuple[int, int]]
    profile: AccessProfile

    @property
    def full_registers(self) -> int:
        """The paper's ``beta``: registers for full scalar replacement."""
        return self.profile.full_registers

    @property
    def full_saved(self) -> int:
        return self.profile.full_saved

    @property
    def has_reuse(self) -> bool:
        return self.profile.has_reuse


def analyze_site(kernel: Kernel, site: ReferenceSite) -> SiteReuse:
    """Compute :class:`SiteReuse` for one reference site of ``kernel``."""
    nest = kernel.nest
    depth = nest.depth
    total_iterations = nest.iteration_count

    carrying = tuple(
        level for level in range(1, depth + 1) if footprints_overlap(nest, site.ref, level)
    )

    outer_product = _outer_products(kernel)
    level_points: dict[int, tuple[int, int]] = {
        depth + 1: (1, total_iterations)  # mandatory operand buffer, no reuse
    }
    for level in carrying:
        registers = max(1, distinct_count(nest, site.ref, level + 1))
        accesses = outer_product[level] * distinct_count(nest, site.ref, level)
        level_points[level] = (registers, accesses)

    raw = [
        ProfilePoint(registers=r, accesses=a, level=level)
        for level, (r, a) in level_points.items()
    ]
    profile = AccessProfile(pareto_points(raw))
    return SiteReuse(site, carrying, level_points, profile)


def analyze_kernel_sites(kernel: Kernel) -> dict[str, SiteReuse]:
    """Analyze every reference site; keyed by ``site_id``."""
    return {
        site.site_id: analyze_site(kernel, site) for site in kernel.reference_sites()
    }


def _outer_products(kernel: Kernel) -> dict[int, int]:
    """``{level: product of trip counts of loops strictly above level}``."""
    out: dict[int, int] = {}
    product = 1
    for level, loop in enumerate(kernel.nest.loops, start=1):
        out[level] = product
        product *= loop.trip_count
    out[kernel.depth + 1] = product
    return out
