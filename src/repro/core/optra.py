"""OPT-RA: exact joint scalar-selection + register-budget allocation.

The paper evaluates its heuristics only against each other; this module
adds the missing yardstick — a branch-and-bound search over *all*
integer register assignments (one mandatory register per reference
group, extras anywhere up to each group's full requirement ``beta``)
that minimizes the pipeline's real objective: the cycle count reported
by :func:`~repro.synth.estimate.count_with_best_anchors`, anchors and
all.  Leaves call the very same evaluation the pipeline reports, so the
optimum OPT-RA certifies is bit-identical to a Table-1 cell, never a
surrogate.

Search layout
-------------
Only groups with ``beta > 1`` are branched on: a ``beta == 1`` group is
fully covered by its mandatory register, so extra registers cannot
change any coverage mask and the (cycles, total registers, vector)
tie-break always prefers leaving them at one.  Branch order is by
descending *knapsack density* — the best savings-per-register ratio on
each group's RAM-access ladder, one coverage result per register count
(:meth:`~repro.scalar.coverage.GroupCoverage.ram_access_ladder`) — and
register values are tried from high to low, so the strong incumbents
surface early.

Bounds (both admissible)
------------------------
* **Budget-aware meet bound** (at inner nodes): the real pattern
  classifier (:func:`~repro.sim.cycles.classify_patterns`) prices one
  pattern in which every group sits at its *meet* mask
  (:meth:`~repro.scalar.coverage.GroupCoverage.meet`: a cell misses
  only where both the low and the high anchor miss).  A decided group
  takes the meet at its exact count — for all but partially covered
  pinned groups that is simply its mask — and an undecided group the
  meet at ``r_max = min(beta, 1 + remaining)``, the most registers any
  completion can still give it.  Decided write-backs are charged;
  undecided ones are not.
* **Sibling pre-check** (at the leaves): the siblings below a parent
  differ in one group only, so the other groups' meet planes are packed
  once per parent.  Each leaf is then priced with one classification —
  every group at its meet mask, plus its exact write-backs — before it
  pays :func:`~repro.synth.estimate.count_with_best_anchors`, which
  classifies up to 16 anchor combinations.  A leaf whose pre-check
  value cannot beat the incumbent is skipped; it still counts as a
  node, so ``node_limit`` truncation stays deterministic.

Why the meet bound never over-costs a completion:

* for a fixed anchor, miss sets shrink as ``r`` grows: window groups
  miss where ``distances > covered``, the low and the high anchor's
  pinned covered sets nest as ``covered`` grows, and ``covered == 0``
  misses everywhere;
* so a group at any ``r <= r_max``, under either anchor, misses a
  superset of the meet at ``r_max``.  That covers every anchor the
  objective can choose, including the low-anchor fallback of a group
  beyond ``count_with_best_anchors``' first four candidates;
* the list scheduler is monotone in miss flags (``reg_latency <=
  ram_latency`` is enforced by :class:`~repro.dfg.latency.LatencyModel`),
  so every iteration costs at least its meet pattern's makespan;
* write-backs depend on the covered count only, never on the anchor:
  the decided ones are exact, and leaving the undecided ones uncharged
  only lowers the bound.

The same argument at ``r_max = r`` makes the sibling pre-check a lower
bound on its leaf.

Anytime behaviour
-----------------
The search is seeded with every heuristic's allocation before the first
branch, so OPT-RA is never worse than FR-RA/PR-RA/CPA-RA/KS-RA/NO-SR —
even when the deterministic ``node_limit`` truncates the search.  A
truncated run returns the best incumbent with ``certified=False`` and a
proven ``lower_bound`` (bracketing the true optimum) instead of raising;
truncated results are never written to the result cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import Allocation
from repro.core.base import AllocationState, Allocator
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.knapsack import KnapsackAllocator
from repro.core.naive import NaiveAllocator
from repro.core.prra import PartialReuseAllocator
from repro.errors import ReproError
from repro.sim.cycles import classify_patterns
from repro.synth.estimate import count_with_best_anchors

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.groups import RefGroup

__all__ = ["OptimalAllocator", "DEFAULT_NODE_LIMIT"]

#: Default branch-and-bound node budget.  Far above what the registered
#: kernels need: at the gap study's budgets (4-64) a search takes at
#: most 976 nodes and evaluates at most 465 leaves (both imi@64), so
#: default runs are exact; large adversarial kernels degrade to an
#: anytime incumbent with a certified gap instead of hanging.
DEFAULT_NODE_LIMIT = 50_000

#: Heuristics whose allocations seed the incumbent, in evaluation order.
#: Seeding guarantees OPT-RA <= each of them even under truncation.
_SEED_ALLOCATORS = (
    FullReuseAllocator,
    PartialReuseAllocator,
    CriticalPathAwareAllocator,
    KnapsackAllocator,
    NaiveAllocator,
)


class OptimalAllocator(Allocator):
    """Exact branch-and-bound allocation ("OPT-RA"), anytime-bounded.

    ``node_limit`` is the one truncation knob, and a deterministic one
    (every node counts: bounded subtrees, evaluated leaves and leaves
    the sibling pre-check skips).  The search minimizes the objective
    carried on the :class:`~repro.core.base.AllocationState` — the one
    :meth:`~repro.core.base.Allocator.allocate` was given, which is the
    one the design is reported under.
    """

    name = "OPT-RA"

    def __init__(self, node_limit: "int | None" = None) -> None:
        if node_limit is not None and node_limit < 1:
            raise ReproError(f"node_limit must be >= 1, got {node_limit}")
        self.node_limit = node_limit

    # -- the search -----------------------------------------------------------

    def _run(self, state: AllocationState) -> None:
        node_limit = (
            self.node_limit if self.node_limit is not None else DEFAULT_NODE_LIMIT
        )

        outcome = _Search(state).solve(node_limit)

        self._apply(state, outcome.registers)
        state.certified = outcome.certified
        state.lower_bound = outcome.lower_bound
        state.trace.append(
            f"opt-ra: seeded {outcome.seeds} heuristic incumbents "
            f"(best {outcome.seed_cycles} cycles)"
        )
        if outcome.certified:
            state.trace.append(
                f"opt-ra: certified optimum {outcome.cycles} cycles "
                f"after {outcome.nodes} nodes ({outcome.counts()})"
            )
        else:
            state.trace.append(
                f"opt-ra: truncated at {outcome.nodes} nodes "
                f"(limit {node_limit}; {outcome.counts()}); anytime "
                f"bracket [{outcome.lower_bound}, {outcome.cycles}] cycles"
            )

    @staticmethod
    def _apply(state: AllocationState, registers: "dict[str, int]") -> None:
        for group in state.groups:
            extra = registers[group.name] - 1
            if extra:
                state.give(group, extra, "optimal search")


class _Outcome:
    """What one branch-and-bound run concluded."""

    def __init__(
        self,
        registers: "dict[str, int]",
        cycles: int,
        certified: bool,
        lower_bound: int,
        nodes: int,
        seeds: int,
        seed_cycles: int,
        cuts: "dict[str, int]",
    ) -> None:
        self.registers = registers
        self.cycles = cycles
        self.certified = certified
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.seeds = seeds
        self.seed_cycles = seed_cycles
        #: Search counters: leaves evaluated, subtrees cut by the meet
        #: bound, leaves cut by the pre-check.
        self.cuts = cuts

    def counts(self) -> str:
        """The search counters as a decision-trace phrase."""
        cuts = self.cuts
        return (
            f"{cuts['leaves']} leaves evaluated; cut {cuts['meet']} by "
            f"the meet bound, {cuts['sibling']} leaves by the sibling "
            f"pre-check"
        )


class _Search:
    """One branch-and-bound instance over a kernel's free groups."""

    def __init__(self, state: AllocationState) -> None:
        self.kernel = state.kernel
        self.groups = state.groups
        self.budget = state.budget
        self.ctx = state.context
        self.objective = state.objective

        self.dfg = self.ctx.dfg(self.kernel, self.groups)
        self.coverages = self.ctx.coverages(self.kernel, self.groups)
        # Bounds price vectors over the kernel's iteration classes.
        self.classes = self.coverages.classes
        self.extra_budget = self.budget - len(self.groups)
        self.betas = {g.name: g.full_registers for g in self.groups}

        # A beta == 1 group is fully served by its mandatory register:
        # extra registers cannot change its coverage, and the tie-break
        # (fewest total registers) always drops them — fixed at one.
        free = [g for g in self.groups if g.full_registers > 1]
        self.caps = {
            g.name: min(g.full_registers, 1 + self.extra_budget) for g in free
        }
        self.densities = self._knapsack_profile(free)
        self.order = sorted(
            free,
            key=lambda g: (-self.densities[g.name], self._index(g.name)),
        )

        # The leaf objective's cost table: bounds classify through the
        # same layout and costs as the leaves.
        self.costs = self.ctx.pattern_costs(
            self.kernel, self.groups, self.dfg, self.objective
        )
        self._leaf_memo: "dict[tuple[int, ...], int]" = {}
        # (group, covered) -> (packed meet plane or None when it never
        # misses, write-backs).  Lives for this search only.
        self._planes: "dict[tuple[str, int], tuple[np.ndarray | None, int]]" = {}
        # The last parent's sibling base: (its prefix, packed meet
        # pattern of every group but the branched one, write-backs).
        self._siblings: "tuple[tuple[int, ...], np.ndarray, int] | None" = None
        self.cuts = {"leaves": 0, "meet": 0, "sibling": 0}

    def _index(self, name: str) -> int:
        for index, group in enumerate(self.groups):
            if group.name == name:
                return index
        raise ReproError(f"no group named {name!r}")  # pragma: no cover

    # -- branch order ----------------------------------------------------------

    def _knapsack_profile(self, free: "list[RefGroup]") -> "dict[str, float]":
        """Per-group knapsack density from the RAM-access ladder: the
        steepest savings-per-extra-register ratio anywhere on it."""
        densities: "dict[str, float]" = {}
        for group in free:
            cap = self.caps[group.name]
            ladder = self.coverages[group.name].ram_access_ladder(
                list(range(1, cap + 1))
            )
            ratios = [
                (ladder[1] - ladder[r]) / (r - 1) for r in range(2, cap + 1)
            ]
            densities[group.name] = max([0.0] + ratios)
        return densities

    # -- objective (leaf) evaluation ------------------------------------------

    def _leaf_cycles(self, registers: "dict[str, int]") -> int:
        key = tuple(registers[g.name] for g in self.groups)
        memo = self._leaf_memo.get(key)
        if memo is not None:
            return memo
        allocation = Allocation(
            kernel_name=self.kernel.name,
            algorithm="OPT-RA",
            budget=self.budget,
            registers=dict(registers),
            betas=dict(self.betas),
        )
        report = count_with_best_anchors(
            self.kernel,
            self.groups,
            allocation,
            self.objective,
            self.dfg,
            self.coverages,
            self.ctx,
        )
        cycles = report.total_cycles
        self._leaf_memo[key] = cycles
        return cycles

    # -- admissible bounds ----------------------------------------------------

    def _meet_plane(
        self, name: str, registers: int
    ) -> "tuple[np.ndarray | None, int]":
        """A group's packed meet plane and write-backs at ``registers``."""
        coverage = self.coverages[name]
        key = (name, coverage.covered(registers))
        entry = self._planes.get(key)
        if entry is None:
            meet = coverage.meet(registers)
            plane = None
            if meet.ram_reads or meet.write_misses:
                plane = self.costs.layout.pack(self.classes, {name: meet})
            entry = (plane, meet.writeback_stores)
            self._planes[key] = entry
        return entry

    def _meet_pattern(
        self, registers: "dict[str, int]"
    ) -> "tuple[np.ndarray, int]":
        """The OR of the groups' meet planes, and their write-backs."""
        pattern = np.zeros(self.classes.count, dtype=self.costs.layout.dtype)
        writebacks = 0
        for name, r in registers.items():
            plane, stores = self._meet_plane(name, r)
            if plane is not None:
                pattern |= plane
            writebacks += stores
        return pattern, writebacks

    def _price(self, pattern: np.ndarray, writebacks: int) -> int:
        in_loop, _, _ = classify_patterns(pattern, self.classes, self.costs)
        return in_loop + writebacks * self.objective.model.ram_latency

    def _relaxed_bound(self, decided: "dict[str, int]", remaining: int) -> int:
        """Strong bound: decided groups at their meet masks, undecided
        ones at their meet with every remaining register, write-backs of
        the decided groups only."""
        pattern, writebacks = self._meet_pattern(decided)
        for group in self.order:
            name = group.name
            if name not in decided:
                plane, _ = self._meet_plane(
                    name, min(self.caps[name], 1 + remaining)
                )
                if plane is not None:
                    pattern |= plane
        return self._price(pattern, writebacks)

    def _sibling_floor(
        self, prefix: "tuple[int, ...]", registers: "dict[str, int]"
    ) -> int:
        """Lower bound on one leaf: every group at its meet mask, plus
        exact write-backs.  Siblings share all groups but the branched
        one, so that part is packed once per parent."""
        branched = self.order[len(prefix) - 1].name
        parent = prefix[:-1]
        if self._siblings is None or self._siblings[0] != parent:
            shared = {n: r for n, r in registers.items() if n != branched}
            self._siblings = (parent, *self._meet_pattern(shared))
        _, base, writebacks = self._siblings
        plane, stores = self._meet_plane(branched, registers[branched])
        pattern = base if plane is None else base | plane
        return self._price(pattern, writebacks + stores)

    # -- branch and bound -----------------------------------------------------

    def solve(self, node_limit: int) -> _Outcome:
        fixed = {
            g.name: 1 for g in self.groups if g.full_registers <= 1
        }

        # Seed the incumbent from every heuristic: OPT-RA dominates them
        # by construction, truncated or not.  Seeds do not count against
        # the node budget, so an anytime result always exists.
        best_key: "tuple[int, int, tuple[int, ...]] | None" = None
        best_registers: "dict[str, int]" = {}
        seeds = 0
        for factory in _SEED_ALLOCATORS:
            try:
                allocation = factory().allocate(
                    self.kernel, self.budget, self.groups, context=self.ctx,
                    objective=self.objective,
                )
            except ReproError:  # pragma: no cover — defensive
                continue
            registers = {
                g.name: allocation.registers_for(g.name) for g in self.groups
            }
            seeds += 1
            key = self._key_of(registers)
            if best_key is None or key < best_key:
                best_key, best_registers = key, registers
        assert best_key is not None  # NO-SR always allocates
        seed_cycles = best_key[0]

        nodes = 0
        truncated = False
        cut_bounds: "list[int]" = []
        # Frames: (extras assigned to order[:k], inherited admissible
        # bound for the subtree).  LIFO; children pushed value-ascending
        # so the highest register count is explored first.
        stack: "list[tuple[tuple[int, ...], int]]" = [((), 0)]
        while stack:
            prefix, inherited = stack.pop()
            if truncated or nodes >= node_limit:
                truncated = True
                cut_bounds.append(inherited)
                continue
            spent = sum(prefix)
            remaining = self.extra_budget - spent
            depth = len(prefix)
            if depth == len(self.order) or remaining == 0:
                # Leaf (free groups exhausted, or the budget forces all
                # remaining groups to their mandatory register).  The
                # root leaf (no free groups, or no extra registers) has
                # no siblings to pre-check against.
                nodes += 1
                registers = dict(fixed)
                for index, group in enumerate(self.order):
                    extra = prefix[index] if index < len(prefix) else 0
                    registers[group.name] = 1 + extra
                if prefix and self._prunable(
                    self._sibling_floor(prefix, registers), prefix, best_key
                ):
                    self.cuts["sibling"] += 1
                    continue
                self.cuts["leaves"] += 1
                key = self._key_of(registers)
                if best_key is None or key < best_key:
                    best_key, best_registers = key, registers
                continue

            decided = dict(fixed)
            for index in range(depth):
                decided[self.order[index].name] = 1 + prefix[index]
            nodes += 1
            bound = self._relaxed_bound(decided, remaining)
            if self._prunable(bound, prefix, best_key):
                self.cuts["meet"] += 1
                continue

            cap = min(self.caps[self.order[depth].name] - 1, remaining)
            for extra in range(0, cap + 1):  # ascending: LIFO pops high first
                stack.append((prefix + (extra,), bound))

        cycles = best_key[0]
        if truncated:
            lower = min([cycles] + cut_bounds)
        else:
            lower = cycles
        return _Outcome(
            registers=best_registers,
            cycles=cycles,
            certified=not truncated,
            lower_bound=lower,
            nodes=nodes,
            seeds=seeds,
            seed_cycles=seed_cycles,
            cuts=self.cuts,
        )

    def _key_of(
        self, registers: "dict[str, int]"
    ) -> "tuple[int, int, tuple[int, ...]]":
        vector = tuple(registers[g.name] for g in self.groups)
        return (self._leaf_cycles(registers), sum(vector), vector)

    def _prunable(
        self,
        bound: int,
        prefix: "tuple[int, ...]",
        best_key: "tuple[int, int, tuple[int, ...]] | None",
    ) -> bool:
        """Whether the subtree provably holds no better tie-broken key.

        Pruned only when every leaf below must compare worse than the
        incumbent under the full (cycles, total, vector) order, so the
        search stays bit-identical to brute-force enumeration: strictly
        larger bound, or a tied bound whose minimum achievable total
        already exceeds the incumbent's.  Exact ties on both are left
        to expansion — cheap, and never wrong.
        """
        if best_key is None:
            return False
        if bound > best_key[0]:
            return True
        if bound == best_key[0]:
            min_total = len(self.groups) + sum(prefix)
            if min_total > best_key[1]:
                return True
        return False
