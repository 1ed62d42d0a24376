"""Coverage: which accesses of a reference group hit registers, exactly.

Given an allocation of ``r`` registers to a reference group, this module
answers — per iteration of the nest — whether each access is a register hit
or a RAM access, plus how many prologue/epilogue RAM accesses (pinned-value
write-backs) occur outside the loop body.  These masks are the single
source of truth shared by the cycle simulator, the allocators' partial-
benefit queries and the experiment tables, so planning and "execution"
cannot drift apart.

Coverage semantics (paper-faithful; ``tests/test_paper_example.py`` pins
them to the paper's Figure 2(c) numbers):

* ``covered(r) = min(r, beta)`` elements of the footprint are register-
  resident, except that a single register (``r == 1``) is only the
  mandatory operand buffer and covers nothing — unless full replacement
  itself needs just one register (``beta == 1``, e.g. accumulators).
  This reproduces both Figure 2(c) endpoints: FR-RA's one-register
  references behave naively (Tmem 1800) while PR-RA's 12 registers on
  ``d`` cover 12 elements (Tmem 1560).

* Invariant references pin the ``covered`` lowest-address elements of the
  footprint of their best reuse level.  Within each *region* (one sweep of
  the loops below the carrying level), the first read of a pinned element
  is a miss, later reads hit; covered writes are deferred entirely and pay
  one write-back per region (epilogue).

* Sliding-window references are compiler-managed rotating register files:
  the full access stream is known statically, so placement follows
  Belady's clairvoyant policy with bypass, simulated on the real address
  stream by the OPT stack walk of :mod:`repro.sim.residency`: one walk
  at depth ``beta`` gives the miss mask of every register count, and
  the placement trace the interpreter replays is one walk at depth
  ``covered``.  LRU would be wrong here — on strided windows it evicts
  the whole reusable window with dead values (see the residency
  ablation, :func:`repro.bench.residency_study`).

Results are computed per *iteration class*, not per iteration.  The
computers of one :func:`coverage_for` map share one
:class:`IterationClasses` partition of the kernel: two iterations share
a class when their miss flags agree on every group, at every register
count and under every anchor (a pinned group's region rank and
first-touch flag, a window group's stack distance).  A
:class:`CoverageResult` carries per-class miss vectors, its RAM-access
counts are sums weighted by the class sizes, and its per-iteration
``read_miss`` / ``write_miss`` / ``retain`` grids are expanded from the
vectors only when read (the interpreter and the tests do).  A result
built from grids (a test oracle's) is compressed onto a partition by a
verifying gather that raises unless each grid is constant on every
class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.analysis.groups import RefGroup
from repro.errors import AnalysisError, SimulationError
from repro.ir.kernel import Kernel
from repro.sim.residency import OptTraceLadder
from repro.spans import span

__all__ = [
    "GroupCoverage",
    "CoverageMap",
    "CoverageResult",
    "IterationClasses",
    "coverage_for",
]

class IterationClasses:
    """One kernel's iterations, split once into classes.

    Two iterations share a class when every group's miss flags agree at
    every register count and under every anchor, so every coverage mask
    of the kernel is constant on each class.  Each member group gives one
    signature column (:meth:`GroupCoverage._signature`): a pinned group
    its region rank plus first-touch flag, a window group its stack
    distance (already clamped at ``beta + 1``); an uncovered group, or
    one with no carried reuse, gives none.  The columns are combined by
    repeated 1-D ``np.unique`` over ``class * (column.max() + 1) +
    column``, which is several times faster than a row-wise
    ``np.unique(axis=0)`` over the signature matrix.  The signatures are
    dropped once the partition is built; what stays is, per class, its
    first iteration (:attr:`representatives`) and its size
    (:attr:`weights`), plus the compact iteration-to-class map
    (:attr:`inverse`, ``uint8``/``uint16``/``int32``).

    The partition is built on first use, after which no member can join.
    """

    def __init__(self, shape: "tuple[int, ...]") -> None:
        self.shape = tuple(shape)
        self.size = int(np.prod(self.shape, dtype=np.int64))
        self._members: "list[GroupCoverage]" = []

    def add(self, member: "GroupCoverage") -> None:
        """Give ``member``'s signature column a say in the partition."""
        if "_partition" in self.__dict__:
            raise AnalysisError(
                f"{member.group.name}: the iteration classes are already built"
            )
        self._members.append(member)

    @cached_property
    def _partition(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        inverse = np.zeros(self.size, dtype=np.int64)
        first = np.zeros(min(self.size, 1), dtype=np.int64)
        for member in self._members:
            column = member._signature()
            if column is None:
                continue
            key = inverse * (int(column.max()) + 1) + column
            _, first, inverse = np.unique(
                key, return_index=True, return_inverse=True
            )
        weights = np.bincount(inverse, minlength=len(first))
        dtype = (
            np.uint8 if len(first) <= 1 << 8
            else np.uint16 if len(first) <= 1 << 16
            else np.int32
        )
        self._members = []
        return first, weights, inverse.astype(dtype)

    @property
    def count(self) -> int:
        """The number of classes, ``K``."""
        return len(self._partition[0])

    @property
    def representatives(self) -> np.ndarray:
        """Flat index of each class's first iteration."""
        return self._partition[0]

    @property
    def weights(self) -> np.ndarray:
        """Iterations per class (``int64``; they sum to :attr:`size`)."""
        return self._partition[1]

    @property
    def inverse(self) -> np.ndarray:
        """Class of each flat iteration."""
        return self._partition[2]

    def expand(self, vector: np.ndarray) -> np.ndarray:
        """The per-iteration grid of a per-class ``vector``."""
        return vector[self.inverse].reshape(self.shape)

    def gather(self, mask: np.ndarray) -> np.ndarray:
        """The per-class vector of a per-iteration ``mask``, verified.

        Raises :class:`SimulationError` unless ``mask`` is constant on
        every class — a foreign mask the partition cannot represent.
        """
        flat = np.broadcast_to(mask, self.shape).reshape(-1)
        vector = flat[self.representatives]
        if not np.array_equal(vector[self.inverse], flat):
            raise SimulationError(
                "a miss mask is not constant on its iteration classes"
            )
        return vector


#: The per-iteration grid attributes of a :class:`CoverageResult`, in
#: the order of its ``_masks``.
_GRIDS = ("read_miss", "write_miss", "retain")


@dataclass(frozen=True, init=False)
class CoverageResult:
    """Exact access behaviour of one group under one register count.

    Production results are class-level: ``read_miss``, ``write_miss``
    and ``retain`` are given as per-class vectors over ``classes`` (an
    :class:`IterationClasses`), and the per-iteration grids these
    attributes name are expanded from them on first read.  A result
    built without ``classes`` (a test oracle's) is given the grids
    themselves; the cycle counter compresses it onto its partition with
    the verifying :meth:`IterationClasses.gather`.

    Attributes
    ----------
    read_miss:
        Bool array over the iteration space (shape = trip counts): True
        where the group's (first non-forwarded) read needs a RAM access.
        All-False when the group has no non-forwarded reads.
    write_miss:
        Same, for the group's write site(s): True where the store goes to
        RAM immediately (uncovered element).
    writeback_stores:
        Write-back stores of covered, written elements (one per covered
        written element per region, performed at region boundaries).
    kind:
        Coverage policy: ``"pinned"``, ``"window"`` or ``"none"``.
    covered:
        Footprint elements kept register-resident (the register-file
        capacity the policy uses).
    region_level:
        1-based carrying loop level; the registers are recycled whenever
        a loop *above* this level advances.  ``None`` for ``"none"``.
    retain:
        For ``"pinned"``: bool grid — True where the accessed element is
        one of the covered (register-kept) elements.  ``None`` otherwise.
    placement:
        For ``"window"``: a thunk returning the Belady placement trace
        ``(inserted, evicted, freed)`` per flattened iteration.  Only the
        interpreter replays placements, so the trace runs on the first
        read of :attr:`window_inserted` / :attr:`window_evicted` /
        :attr:`window_freed` and is kept from then on.  ``None``
        otherwise.
    classes:
        The partition the masks are given over, or ``None``.
    """

    read_miss: np.ndarray = field(repr=False)
    write_miss: np.ndarray = field(repr=False)
    writeback_stores: int
    kind: str
    covered: int
    region_level: "int | None"
    retain: "np.ndarray | None" = field(repr=False)
    placement: (
        "Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]] | None"
    ) = field(repr=False, compare=False)
    classes: "IterationClasses | None" = field(repr=False, compare=False)

    def __init__(
        self,
        read_miss: np.ndarray,
        write_miss: np.ndarray,
        writeback_stores: int,
        kind: str = "none",
        covered: int = 0,
        region_level: "int | None" = None,
        retain: "np.ndarray | None" = None,
        placement: (
            "Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]] | None"
        ) = None,
        classes: "IterationClasses | None" = None,
    ) -> None:
        fields = {
            "writeback_stores": writeback_stores,
            "kind": kind,
            "covered": covered,
            "region_level": region_level,
            "placement": placement,
            "classes": classes,
            "_masks": (read_miss, write_miss, retain),
        }
        if classes is None:
            fields.update(read_miss=read_miss, write_miss=write_miss,
                          retain=retain)
        self.__dict__.update(fields)

    def __getattr__(self, name: str) -> "np.ndarray | None":
        # Reached only when normal lookup fails: a class-level result's
        # grid on its first read, expanded once and kept.
        masks = self.__dict__.get("_masks")
        if name not in _GRIDS or masks is None:
            raise AttributeError(name)
        mask = masks[_GRIDS.index(name)]
        grid = None if mask is None else self.classes.expand(mask)
        self.__dict__[name] = grid
        return grid

    def class_masks(
        self, classes: IterationClasses
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The ``(read, write)`` miss vectors over ``classes``.

        A result over another partition, or over none, is compressed by
        the verifying :meth:`IterationClasses.gather`.
        """
        if classes is self.classes:
            return self._masks[0], self._masks[1]
        return classes.gather(self.read_miss), classes.gather(self.write_miss)

    @cached_property
    def _placement_trace(
        self,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | tuple[None, None, None]":
        if self.placement is None:
            return None, None, None
        return self.placement()

    @property
    def window_inserted(self) -> "np.ndarray | None":
        """Window placement: install the fetched value at this access?"""
        return self._placement_trace[0]

    @property
    def window_evicted(self) -> "np.ndarray | None":
        """Window placement: flat address evicted at this access (-1: none)."""
        return self._placement_trace[1]

    @property
    def window_freed(self) -> "np.ndarray | None":
        """Window placement: this hit was the value's last use."""
        return self._placement_trace[2]

    # Results are immutable and re-read by every count of a sweep, so
    # the mask reductions are paid once per result: weighted sums over
    # the classes, or plain counts over a foreign result's grids.
    def _misses(self, mask: np.ndarray) -> int:
        if self.classes is None:
            return int(np.count_nonzero(mask))
        return int(self.classes.weights[mask].sum())

    @cached_property
    def ram_reads(self) -> int:
        return self._misses(self._masks[0])

    @cached_property
    def write_misses(self) -> int:
        """In-loop RAM stores (True cells of ``write_miss``)."""
        return self._misses(self._masks[1])

    @property
    def ram_writes(self) -> int:
        return self.write_misses + self.writeback_stores

    @cached_property
    def total_ram_accesses(self) -> int:
        return self.ram_reads + self.ram_writes


class GroupCoverage:
    """Coverage computer for one reference group of one kernel.

    Pinned masks come from region ranks computed once per group: region
    rows are classified by their shift-normalized address pattern and
    each distinct class is ranked once (one vectorized comparison
    recognizes the common single-class case).  Window miss masks of
    *every* register count come from one
    :func:`~repro.sim.residency.opt_stack_distances` pass per group (the
    mask at ``covered = c`` is ``distances > c``); the placement arrays
    only the interpreter reads are traced per count on first read, over
    one shared :class:`~repro.sim.residency.OptTraceLadder` plane.
    :meth:`ram_access_ladder` reads a budget axis off :meth:`result`,
    the one way a group's RAM accesses are counted.  The per-region,
    per-count reference computations these are pinned against live with
    the tests (``tests/coverage_oracle.py``).

    Results are class-level, over :attr:`classes`: the partition shared
    by every computer of one :func:`coverage_for` map, or a partition of
    this group alone for a computer built on its own.

    Results are memoized per ``(registers, anchor)`` *and* per the
    canonical key they reduce to (``covered`` for windows,
    ``(covered, anchor)`` for pinned coverage): the pipeline's
    anchor search and the allocators' budget ladders re-read the same
    coverage many times under different register counts that clamp to
    the same covered set.
    """

    def __init__(
        self,
        kernel: Kernel,
        group: RefGroup,
        classes: "IterationClasses | None" = None,
    ) -> None:
        self.kernel = kernel
        self.group = group
        self.beta = group.full_registers
        self._results: dict[tuple[int, str], CoverageResult] = {}
        self._canonical: dict[tuple, CoverageResult] = {}
        self._region_cache: "tuple[np.ndarray, np.ndarray] | None" = None
        self._window_plane: "OptTraceLadder | None" = None
        self._distances: "np.ndarray | None" = None
        self._class_columns: "tuple[np.ndarray, ...] | None" = None
        self._shape = kernel.nest.trip_counts()
        best = min(
            group.profile.points, key=lambda p: (p.accesses, p.registers)
        )
        self._best_level = best.level
        reuse = group.site_reuse
        self._carrying = reuse.carrying_levels
        carrying_level = (
            self._best_level
            if self._best_level in self._carrying
            else (self._carrying[0] if self._carrying else None)
        )
        self._carrying_level = carrying_level
        if carrying_level is None:
            self._kind = "none"
        else:
            loop_var = kernel.nest.loops[carrying_level - 1].var
            self._kind = "pinned" if not group.ref.depends_on(loop_var) else "window"
        #: The partition this computer's results are given over: shared
        #: by every computer of one :func:`coverage_for` map, else its own.
        self.classes = (
            IterationClasses(self._shape) if classes is None else classes
        )
        self.classes.add(self)

    # -- public API -----------------------------------------------------------

    @property
    def kind(self) -> str:
        """'pinned', 'window' or 'none'."""
        return self._kind

    def covered(self, registers: int) -> int:
        """How many footprint elements ``registers`` keep resident."""
        if registers < 0:
            raise AnalysisError(f"negative register count {registers}")
        if self.beta == 1:
            return min(registers, 1)
        if registers < 2:
            return 0  # the single mandatory register is only a buffer
        return min(registers, self.beta)

    def result(self, registers: int, anchor: str = "low") -> CoverageResult:
        """Exact miss masks and write-backs for ``registers``.

        ``anchor`` selects which footprint elements a *partial pinned*
        coverage keeps: ``"low"`` pins the lowest-ranked (lowest-address)
        elements, ``"high"`` the highest-ranked.  Savings are identical
        either way (footprints are uniformly accessed), but the choice
        decides which *iterations* hit — and aligning pinned hits with a
        co-allocated window reference's hits is what lets both inputs of
        an operation arrive from registers (the paper's concurrency
        argument).  The pipeline searches anchors per design point.
        """
        if anchor not in ("low", "high"):
            raise AnalysisError(f"anchor must be 'low' or 'high', got {anchor!r}")
        memoized = self._results.get((registers, anchor))
        if memoized is not None:
            return memoized
        result = self._compute_result(registers, anchor)
        self._results[(registers, anchor)] = result
        return result

    def _compute_result(self, registers: int, anchor: str) -> CoverageResult:
        covered = self.covered(registers)
        has_read = self.group.has_active_read
        n_writes = len(self.group.writes)
        # A result is a pure function of the canonical key below, not of
        # the raw register count: every register count that clamps to
        # the same covered set shares one computation (and windows
        # ignore the anchor entirely).
        if self._kind == "none" or covered == 0 or not self.group.carries_reuse:
            key: tuple = ("none",)
        elif self._kind == "pinned":
            key = ("pinned", covered, anchor)
        else:
            key = ("window", covered)
        memoized = self._canonical.get(key)
        if memoized is not None:
            return memoized
        if key[0] == "none":
            count = self.classes.count
            result = CoverageResult(
                np.full(count, has_read, dtype=bool),
                np.full(count, n_writes > 0, dtype=bool),
                0,
                kind="none",
                classes=self.classes,
            )
        elif key[0] == "pinned":
            result = self._pinned_result(covered, has_read, n_writes, anchor)
        else:
            result = self._window_result(covered, has_read, n_writes)
        self._canonical[key] = result
        return result

    def meet(self, registers: int) -> CoverageResult:
        """Masks missing only where *both* anchors miss at ``registers``.

        For windows and uncovered groups this is :meth:`result` itself
        (the anchor does not matter).  For pinned coverage a cell is
        kept when either anchor keeps it, so the masks are the AND of
        the low- and high-anchor masks; write-backs are anchor-
        independent and exact.  The pinned meet is built straight from
        the class ranks (no per-iteration work) and never memoized, so
        a caller's bound queries do not grow the result memo that lives
        for the whole sweep.
        """
        covered = self.covered(registers)
        if (
            self._kind != "pinned"
            or covered == 0
            or not self.group.carries_reuse
        ):
            return self.result(registers)
        return self._pinned_result(
            covered, self.group.has_active_read, len(self.group.writes), "meet"
        )

    def ram_accesses(self, registers: int) -> int:
        """Total RAM accesses (loop + epilogue) at ``registers``."""
        return self.result(registers).total_ram_accesses

    def ram_access_ladder(
        self,
        registers_values: "tuple[int, ...] | list[int]",
        anchor: str = "low",
    ) -> "dict[int, int]":
        """Total RAM accesses at every requested register count.

        One :meth:`result` per count: a result's totals are weighted
        sums over the iteration classes, and counts that clamp to the
        same covered set share one result.
        """
        return {
            r: self.result(r, anchor).total_ram_accesses
            for r in registers_values
        }

    # -- pinned (invariant) coverage -------------------------------------------

    def _region_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-iteration element rank within its region, plus first-touch flags.

        The region of the carrying level ``l`` is one combination of the
        loops above ``l``; within a region, elements are ranked by flat
        address ascending (the canonical pinning order, matching the
        paper's ``k < 12`` style of partial replacement).

        Ranks and first-touch flags depend only on a region's *relative*
        address pattern, which is shift-invariant across the steady
        state of an affine nest — so regions are deduplicated by their
        base-normalized pattern and each distinct class is ranked once,
        stamping the result across all members (typically one class for
        the whole nest).  The one-class case is recognized with a single
        vectorized comparison before paying ``np.unique``'s row lexsort.
        The grids are a pure function of the group, so they are computed
        once per computer and shared across every ``(registers,
        anchor)`` result.
        """
        if self._region_cache is not None:
            return self._region_cache
        with span("trace"):
            level = self._carrying_level
            assert level is not None
            grids = self.kernel.nest.meshgrids()
            flat = np.broadcast_to(
                self.group.ref.flat_address_grid(grids), self._shape
            )
            shape = self._shape
            outer_size = int(np.prod(shape[: level - 1], dtype=np.int64))
            region_size = int(np.prod(shape[level - 1 :], dtype=np.int64))
            by_region = flat.reshape(outer_size, region_size)
            ranks = np.empty_like(by_region)
            first = np.zeros_like(by_region, dtype=bool)
            normalized = by_region - by_region[:, :1]
            if bool((normalized[1:] == normalized[:1]).all()):
                # Single shift-class (always so for one region): rank the
                # representative region and stamp every row at once.
                _, first_positions, inverse = np.unique(
                    normalized[0], return_index=True, return_inverse=True
                )
                ranks[:] = inverse[None, :]
                stamp = np.zeros(region_size, dtype=bool)
                stamp[first_positions] = True
                first[:] = stamp[None, :]
            else:
                classes, members = np.unique(
                    normalized, axis=0, return_inverse=True
                )
                for index in range(len(classes)):
                    _, first_positions, inverse = np.unique(
                        classes[index], return_index=True, return_inverse=True
                    )
                    rows = members.reshape(-1) == index
                    ranks[rows] = inverse
                    stamp = np.zeros(region_size, dtype=bool)
                    stamp[first_positions] = True
                    first[rows] = stamp
            self._region_cache = (
                ranks.reshape(self._shape), first.reshape(self._shape)
            )
        return self._region_cache

    # -- iteration classes ----------------------------------------------------

    def _signature(self) -> "np.ndarray | None":
        """This group's column of the iteration-class signature, or None
        when every result of the group is constant over the nest."""
        if not self.group.carries_reuse or self._kind == "none":
            return None
        if self._kind == "pinned":
            ranks, first = self._region_ranks()
            return ranks.reshape(-1) * 2 + first.reshape(-1)
        # Distances never exceed beta + 1 (hit at no covered count).
        return self._window_distances()

    def _class_signature(self) -> "tuple[np.ndarray, ...]":
        """The signature at each class's representative: ``(ranks,
        first-touch flags)`` for pinned coverage, ``(distances,)`` for
        windows."""
        if self._class_columns is None:
            at = self.classes.representatives
            if self._kind == "pinned":
                ranks, first = self._region_ranks()
                self._class_columns = (
                    ranks.reshape(-1)[at], first.reshape(-1)[at]
                )
            else:
                self._class_columns = (self._window_distances()[at],)
        return self._class_columns

    # -- pinned (invariant) coverage, per class -------------------------------

    def _pinned_result(
        self, covered: int, has_read: bool, n_writes: int, anchor: str
    ) -> CoverageResult:
        ranks, first_touch = self._class_signature()
        # Every rank occurs at some representative, so this is the
        # region's element count.
        region_elements = int(ranks.max()) + 1
        if anchor == "low":
            in_cover = ranks < covered
        elif anchor == "high":
            in_cover = ranks >= region_elements - covered
        else:  # "meet": kept under either anchor
            in_cover = (ranks < covered) | (ranks >= region_elements - covered)
        level = self._carrying_level
        assert level is not None
        if has_read:
            # Pinned & already fetched -> hit; first touch or unpinned -> RAM.
            read_miss = ~(in_cover & ~first_touch)
        else:
            read_miss = np.zeros(len(ranks), dtype=bool)
        if n_writes:
            write_miss = ~in_cover
            regions = int(np.prod(self._shape[: level - 1], dtype=np.int64))
            writebacks = regions * min(covered, region_elements)
        else:
            write_miss = np.zeros(len(ranks), dtype=bool)
            writebacks = 0
        return CoverageResult(
            read_miss,
            write_miss,
            writebacks,
            kind="pinned",
            covered=covered,
            region_level=level,
            retain=in_cover,
            classes=self.classes,
        )

    # -- window (Belady) coverage ----------------------------------------------

    def _window_periods(self) -> "tuple[int, ...] | None":
        # The period ladder is the suffix products of the trip counts: one
        # row per outermost iteration (where affine window streams settle
        # into a steady state the batched trace replays), then tiles, so
        # tile-level steady states replay inside boundary rows too.
        if len(self._shape) < 2:
            return None
        return tuple(
            int(np.prod(self._shape[level:], dtype=np.int64))
            for level in range(1, len(self._shape))
        )

    def _window_stream(self) -> np.ndarray:
        grids = self.kernel.nest.meshgrids()
        flat = np.broadcast_to(
            self.group.ref.flat_address_grid(grids), self._shape
        )
        return flat.reshape(-1)

    def _plane(self) -> OptTraceLadder:
        """The group's capacity-shared trace plane (use links and period
        levels are computed once per group, not once per budget)."""
        if self._window_plane is None:
            self._window_plane = OptTraceLadder(
                self._window_stream(), periods=self._window_periods()
            )
        return self._window_plane

    def _window_distances(self) -> np.ndarray:
        """Per flattened access, the smallest covered count that hits."""
        if self._distances is None:
            with span("trace"):
                self._distances = self._plane().stack_distances(self.beta)
        return self._distances

    def _traced_placement(
        self, covered: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The placement trace behind a distance-pass mask, on demand."""
        with span("trace"):
            misses, inserted, evicted, freed = self._plane().trace(covered)
        if not np.array_equal(misses, self._window_distances() > covered):
            raise SimulationError(
                f"{self.group.name}: placement trace disagrees with the "
                f"stack-distance miss mask at {covered} registers"
            )
        return inserted, evicted, freed

    def _window_result(
        self, covered: int, has_read: bool, n_writes: int
    ) -> CoverageResult:
        (distances,) = self._class_signature()
        misses = distances > covered
        if has_read:
            read_miss = misses
        else:
            read_miss = np.zeros(len(misses), dtype=bool)
        if n_writes:
            # Windowed writes: covered stores are coalesced in registers and
            # flushed on eviction; conservatively charge one store per
            # register-resident (non-miss) access's final flush via the
            # covered count, and a direct store per miss.
            write_miss = misses
            writebacks = covered
        else:
            write_miss = np.zeros(len(misses), dtype=bool)
            writebacks = 0
        return CoverageResult(
            read_miss,
            write_miss,
            writebacks,
            kind="window",
            covered=covered,
            region_level=self._carrying_level,
            placement=functools.partial(self._traced_placement, covered),
            classes=self.classes,
        )


class CoverageMap(dict):
    """Group name -> :class:`GroupCoverage`, plus the one partition
    (:attr:`classes`) every computer of the map shares."""

    def __init__(
        self, computers: "dict[str, GroupCoverage]", classes: IterationClasses
    ) -> None:
        super().__init__(computers)
        self.classes = classes


def coverage_for(
    kernel: Kernel, groups: "tuple[RefGroup, ...]"
) -> CoverageMap:
    """Coverage computers for every group, keyed by group name, sharing
    one :class:`IterationClasses` partition of the kernel."""
    classes = IterationClasses(kernel.nest.trip_counts())
    return CoverageMap(
        {g.name: GroupCoverage(kernel, g, classes) for g in groups}, classes
    )
