"""Reference groups: the allocation units the paper's algorithms operate on.

The paper speaks of allocating registers to "array references"; in the
running example the write of ``d[i][k]`` (statement 1) and the read of
``d[i][k]`` (statement 2) are one reference ``d`` with one ``beta_d``.  A
:class:`RefGroup` therefore coalesces all sites with a *structurally
identical* reference (same array, same affine subscripts) into a single
unit that shares one set of registers.

Two refinements come with coalescing:

* **Same-iteration forwarding** — a read of a reference that an earlier
  statement of the same iteration wrote never touches memory: the value is
  forwarded through the operand register (this is visible in the paper's
  Figure 2(c), where FR-RA's 1800-cycle count charges nothing for the read
  of ``d``).  Such reads contribute zero accesses at every allocation.

* **Shared registers** — all sites of a group read/write the same elements,
  so the group's register requirement equals a single site's, while its
  access count is the sum over non-forwarded sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from repro.analysis.profile import AccessProfile, ProfilePoint, pareto_points
from repro.analysis.reuse import SiteReuse, analyze_site
from repro.errors import AnalysisError
from repro.ir.expr import ArrayRef
from repro.ir.kernel import Kernel
from repro.ir.stmt import ReferenceSite

__all__ = ["RefGroup", "build_groups", "forwarded_read_sites"]


def forwarded_read_sites(kernel: Kernel) -> frozenset[str]:
    """Site ids of reads satisfied by same-iteration forwarding.

    A read site is forwarded when the identical reference was already
    touched earlier in the same iteration — written by an earlier
    statement (its value is live in the operand register), read by an
    earlier statement, or read earlier within the same statement (a
    repeated operand like ``inv[j] * inv[j]`` loads once).
    """
    forwarded: set[str] = set()
    sites = kernel.reference_sites()
    for read in sites:
        if read.is_write:
            continue
        if read.occurrence > 0:
            forwarded.add(read.site_id)
            continue
        for earlier in sites:
            if (
                earlier.ref == read.ref
                and earlier.stmt_index < read.stmt_index
            ):
                forwarded.add(read.site_id)
                break
    return frozenset(forwarded)


@dataclass(frozen=True)
class RefGroup:
    """All sites sharing one structural reference; one allocation unit.

    Attributes
    ----------
    name:
        Display name, e.g. ``"d[i][k]"``; unique within a kernel.
    ref:
        The shared reference.
    sites:
        Every occurrence (reads and writes) in body order.
    forwarded:
        Site ids within ``sites`` that are satisfied by forwarding.
    profile:
        Group accesses-vs-registers curve (sum over non-forwarded sites).
    site_reuse:
        Per-level reuse facts of the representative site.
    """

    name: str
    ref: ArrayRef
    sites: tuple[ReferenceSite, ...]
    forwarded: frozenset[str]
    profile: AccessProfile
    site_reuse: SiteReuse

    @property
    def array_name(self) -> str:
        return self.ref.array.name

    @property
    def full_registers(self) -> int:
        """The paper's ``beta`` for this reference."""
        return self.profile.full_registers

    @property
    def full_saved(self) -> int:
        return self.profile.full_saved

    @property
    def has_reuse(self) -> bool:
        """Whether spending registers *beyond* the mandatory one helps —
        the allocation-candidacy test (knapsack value > 0)."""
        return self.profile.has_reuse

    @property
    def carries_reuse(self) -> bool:
        """Whether some loop level carries reuse at all.

        Differs from :attr:`has_reuse` for references whose full reuse is
        free at the single mandatory register (``beta == 1`` accumulators
        and innermost-invariant scalars like ``w[m]``): they carry reuse
        and are register-resident, but need no extra registers.
        """
        return bool(self.site_reuse.carrying_levels)

    def benefit_cost(self) -> Fraction:
        return self.profile.benefit_cost()

    @property
    def reads(self) -> tuple[ReferenceSite, ...]:
        return tuple(s for s in self.sites if not s.is_write)

    @cached_property
    def writes(self) -> tuple[ReferenceSite, ...]:
        return tuple(s for s in self.sites if s.is_write)

    @cached_property
    def has_active_read(self) -> bool:
        """Whether some read site is not store-forwarded — i.e. whether
        the group has a read channel that can touch RAM at all."""
        return any(
            not s.is_write and s.site_id not in self.forwarded
            for s in self.sites
        )

    @property
    def is_written(self) -> bool:
        return bool(self.writes)

    def __str__(self) -> str:
        return f"{self.name} (beta={self.full_registers}, saved={self.full_saved})"


def build_groups(kernel: Kernel, multilevel: bool = False) -> tuple[RefGroup, ...]:
    """Group the kernel's reference sites into allocation units, body order.

    ``multilevel=False`` (default) builds the paper's two-point profile per
    group: the 1-register baseline performs one memory access per iteration
    per non-forwarded site, and ``beta`` registers buy full replacement.
    This matches the paper's B/C metric (e.g. the running example ranks
    ``c[j]`` first with B/C = 2380/20).  ``multilevel=True`` additionally
    exposes intermediate reuse levels (e.g. ``c[j]`` held across the
    innermost loop with one register) — a strictly better planning model
    used by the planning-profile ablation.
    """
    forwarded = forwarded_read_sites(kernel)
    by_ref: dict[ArrayRef, list[ReferenceSite]] = {}
    order: list[ArrayRef] = []
    for site in kernel.reference_sites():
        if site.ref not in by_ref:
            by_ref[site.ref] = []
            order.append(site.ref)
        by_ref[site.ref].append(site)

    names = _unique_names(order)
    groups: list[RefGroup] = []
    for ref in order:
        sites = tuple(by_ref[ref])
        representative = analyze_site(kernel, sites[0])
        contributing = sum(1 for s in sites if s.site_id not in forwarded)
        raw = [
            ProfilePoint(registers=r, accesses=contributing * a, level=level)
            for level, (r, a) in representative.level_points.items()
        ]
        if not multilevel:
            raw = _paper_endpoints(raw, kernel.depth)
        profile = AccessProfile(pareto_points(raw))
        groups.append(
            RefGroup(
                name=names[ref],
                ref=ref,
                sites=sites,
                forwarded=frozenset(s.site_id for s in sites if s.site_id in forwarded),
                profile=profile,
                site_reuse=representative,
            )
        )
    return tuple(groups)


def _paper_endpoints(
    raw: list[ProfilePoint], depth: int
) -> list[ProfilePoint]:
    """Keep only the paper's two operating points: naive baseline and full.

    The baseline is the no-reuse point (level ``depth + 1``); full
    replacement is the point with the fewest accesses (ties: fewest
    registers).  Intermediate carrying levels are dropped.
    """
    baseline = next(p for p in raw if p.level == depth + 1)
    best = min(raw, key=lambda p: (p.accesses, p.registers))
    if best.registers == baseline.registers:
        # No reuse (or reuse free at one register): single-point profile.
        return [baseline] if best.accesses >= baseline.accesses else [best]
    return [baseline, best]


def _unique_names(refs: list[ArrayRef]) -> dict[ArrayRef, str]:
    """Human-readable unique names: ``a[k]``, disambiguated when needed."""
    counts: dict[str, int] = {}
    for ref in refs:
        counts[str(ref)] = counts.get(str(ref), 0) + 1
    names: dict[ArrayRef, str] = {}
    seen: dict[str, int] = {}
    for ref in refs:
        base = str(ref)
        if counts[base] == 1:
            names[ref] = base
        else:  # pragma: no cover - distinct refs cannot share str() today
            seen[base] = seen.get(base, 0) + 1
            names[ref] = f"{base}~{seen[base]}"
    return names
