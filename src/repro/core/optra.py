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
each group's RAM-access ladder — and register values are tried from
high to low, so the strong incumbents surface early.

Bounds (both admissible)
------------------------
* **Fractional-knapsack access floor** (cheap, checked first): each
  group's remaining accesses are lower-bounded via the concave envelope
  of its savings ladder (``saved(r) <= min(density * (r-1),
  max_saved)``), and every access occupies a RAM port for
  ``ram_latency`` cycles, at most ``ram_ports`` at a time — so
  ``space * overhead + ceil(accesses * L / ports)`` cycles are
  unavoidable for the busiest group no matter how the remaining budget
  is spent.
* **Scheduling relaxation** (strong): the real pattern classifier
  (:func:`~repro.sim.cycles.classify_patterns`) runs with the decided
  groups' exact miss masks and every undecided or anchor-sensitive
  channel forced all-hit.  The list scheduler is monotone in miss
  flags (``reg_latency <= ram_latency`` is enforced by
  :class:`~repro.dfg.latency.LatencyModel`), so this under-costs every
  completion; the epilogue bound charges only the decided groups'
  write-backs, which are anchor-independent.

Anytime behaviour
-----------------
The search is seeded with every heuristic's allocation before the first
branch, so OPT-RA is never worse than FR-RA/PR-RA/CPA-RA/KS-RA/NO-SR —
even when the deterministic ``node_limit`` (or the optional wall-clock
``time_box``) truncates the search.  A truncated run returns the best
incumbent with ``certified=False`` and a proven ``lower_bound``
(bracketing the true optimum) instead of raising; truncated results are
never memoized in the :class:`~repro.explore.context.EvalContext` and
never written to the result cache.

Budget-axis reuse
-----------------
A certified optimum solved at budget ``B`` using ``T <= B`` total
registers is *the* optimum (same tie-broken vector) for every budget in
``[T, B]``: the feasible sets nest and the full-vector tie-break makes
the minimizer unique, so reuse is bit-identical to a fresh solve.  The
context memoizes certified entries per objective parameterization and
answers the whole budget axis of a sweep from one search where the
bounds permit.
"""

from __future__ import annotations

import time
from math import ceil
from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import Allocation
from repro.core.base import AllocationState, Allocator
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.knapsack import KnapsackAllocator
from repro.core.naive import NaiveAllocator
from repro.core.prra import PartialReuseAllocator
from repro.dfg.build import build_dfg
from repro.dfg.latency import LatencyModel
from repro.errors import ReproError

# The cycle counter must initialize before the coverage module:
# repro.sim and repro.scalar import each other, and only the sim-first
# order resolves the cycle (repro.scalar.coverage can import
# repro.sim.residency from a partially initialized repro.sim, but not
# the other way around).
from repro.sim.cycles import classify_patterns, pattern_costs  # isort: skip
from repro.scalar.coverage import coverage_for  # isort: skip
from repro.synth.estimate import classify_operand_storage, count_with_best_anchors

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.groups import RefGroup

__all__ = ["OptimalAllocator", "DEFAULT_NODE_LIMIT"]

#: Default branch-and-bound node budget.  Far above what the registered
#: kernels need (their searches certify within a few hundred nodes), so
#: default runs are exact; large adversarial kernels degrade to an
#: anytime incumbent with a certified gap instead of hanging.
DEFAULT_NODE_LIMIT = 50_000

#: Heuristics whose allocations seed the incumbent, in evaluation order.
#: Seeding guarantees OPT-RA <= each of them even under truncation, and
#: routes KS-RA through the context's shared knapsack DP table.
_SEED_ALLOCATORS = (
    FullReuseAllocator,
    PartialReuseAllocator,
    CriticalPathAwareAllocator,
    KnapsackAllocator,
    NaiveAllocator,
)


def _model_fingerprint(model: LatencyModel) -> tuple:
    """Hashable identity of a latency model (mirrors the context's)."""
    return (
        model.ram_latency,
        model.reg_latency,
        tuple(sorted((op.value, lat) for op, lat in model.op_latency.items())),
    )


class OptimalAllocator(Allocator):
    """Exact branch-and-bound allocation ("OPT-RA"), anytime-bounded.

    ``node_limit`` is the deterministic truncation knob (bound and leaf
    evaluations both count); ``time_box`` optionally adds a wall-clock
    box in seconds for genuinely huge instances — note a wall clock is
    inherently nondeterministic, so reproducible pipelines should steer
    with ``node_limit`` alone (the default).  Objective parameters
    default to the pipeline's (realistic two-cycle RAM, one port, one
    overhead cycle per iteration); :meth:`tune` aligns them with a
    specific query before :meth:`allocate` — the evaluator calls it so
    sweep grids optimize exactly what they report.
    """

    name = "OPT-RA"

    def __init__(
        self,
        model: "LatencyModel | None" = None,
        ram_ports: "int | None" = None,
        overhead_per_iteration: int = 1,
        node_limit: "int | None" = None,
        time_box: "float | None" = None,
    ) -> None:
        if node_limit is not None and node_limit < 1:
            raise ReproError(f"node_limit must be >= 1, got {node_limit}")
        if time_box is not None and time_box < 0:
            raise ReproError(f"time_box must be >= 0 seconds, got {time_box}")
        self._model = model
        self._ram_ports = ram_ports
        self._overhead = overhead_per_iteration
        self.node_limit = node_limit
        self.time_box = time_box

    def tune(
        self,
        model: "LatencyModel | None" = None,
        ram_ports: "int | None" = None,
        overhead_per_iteration: "int | None" = None,
    ) -> "OptimalAllocator":
        """Align the search objective with a query's evaluation setup.

        Only given parameters change; returns ``self`` for chaining.
        The evaluator (:func:`repro.explore.evaluate.design_for`) calls
        this before :meth:`allocate`, so what OPT-RA optimizes is
        exactly what the resulting record reports.
        """
        if model is not None:
            self._model = model
        if ram_ports is not None:
            self._ram_ports = ram_ports
        if overhead_per_iteration is not None:
            self._overhead = overhead_per_iteration
        return self

    # -- the search -----------------------------------------------------------

    def _run(self, state: AllocationState) -> None:
        kernel, groups, budget = state.kernel, state.groups, state.budget
        ctx = state.context
        model = self._model or LatencyModel.realistic(ram_latency=2)
        ram_ports = self._ram_ports if self._ram_ports is not None else 1
        overhead = self._overhead
        node_limit = (
            self.node_limit if self.node_limit is not None else DEFAULT_NODE_LIMIT
        )

        params = (_model_fingerprint(model), ram_ports, overhead)
        if ctx is not None:
            entry = ctx.optra_lookup(kernel, groups, params, budget)
            if entry is not None:
                self._apply(state, dict(entry["registers"]))
                state.lower_bound = entry["cycles"]
                state.trace.append(
                    f"opt-ra: reused certified optimum "
                    f"({entry['cycles']} cycles, solved at budget "
                    f"{entry['budget']})"
                )
                return

        search = _Search(state, model, ram_ports, overhead)
        outcome = search.solve(node_limit, self.time_box)

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
                f"after {outcome.nodes} nodes"
            )
            if ctx is not None:
                ctx.optra_store(
                    kernel, groups, params,
                    {
                        "budget": budget,
                        "total": sum(outcome.registers.values()),
                        "registers": tuple(
                            (g.name, outcome.registers[g.name]) for g in groups
                        ),
                        "cycles": outcome.cycles,
                    },
                )
        else:
            state.trace.append(
                f"opt-ra: truncated at {outcome.nodes} nodes "
                f"(limit {node_limit}); anytime bracket "
                f"[{outcome.lower_bound}, {outcome.cycles}] cycles"
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
    ) -> None:
        self.registers = registers
        self.cycles = cycles
        self.certified = certified
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.seeds = seeds
        self.seed_cycles = seed_cycles


class _Search:
    """One branch-and-bound instance over a kernel's free groups."""

    def __init__(
        self,
        state: AllocationState,
        model: LatencyModel,
        ram_ports: int,
        overhead: int,
    ) -> None:
        self.kernel = state.kernel
        self.groups = state.groups
        self.budget = state.budget
        self.ctx = state.context
        self.model = model
        self.ram_ports = ram_ports
        self.overhead = overhead

        if self.ctx is not None:
            self.dfg = self.ctx.dfg(self.kernel, self.groups)
            self.coverages = self.ctx.coverages(self.kernel, self.groups)
        else:
            self.dfg = build_dfg(self.kernel, self.groups)
            self.coverages = coverage_for(self.kernel, self.groups)
        self.shape = self.kernel.nest.trip_counts()
        self.space = int(np.prod(self.shape))
        self.extra_budget = self.budget - len(self.groups)
        self.betas = {g.name: g.full_registers for g in self.groups}

        # A beta == 1 group is fully served by its mandatory register:
        # extra registers cannot change its coverage, and the tie-break
        # (fewest total registers) always drops them — fixed at one.
        free = [g for g in self.groups if g.full_registers > 1]
        self.caps = {
            g.name: min(g.full_registers, 1 + self.extra_budget) for g in free
        }
        self.densities, self.savings_caps = self._knapsack_profile(free)
        self.order = sorted(
            free,
            key=lambda g: (-self.densities[g.name], self._index(g.name)),
        )

        # The leaf objective's cost table: bounds classify through the
        # same layout and costs as the leaves.
        self.costs = pattern_costs(
            self.kernel, self.groups, self.dfg, model, ram_ports, overhead,
            self.ctx,
        )
        self._leaf_memo: "dict[tuple[int, ...], int]" = {}

    def _index(self, name: str) -> int:
        for index, group in enumerate(self.groups):
            if group.name == name:
                return index
        raise ReproError(f"no group named {name!r}")  # pragma: no cover

    # -- knapsack (fractional) relaxation data --------------------------------

    def _knapsack_profile(
        self, free: "list[RefGroup]"
    ) -> "tuple[dict[str, float], dict[str, int]]":
        """Per-group density and savings cap from the RAM-access ladder.

        ``density`` is the steepest savings-per-extra-register ratio
        anywhere on the group's ladder, so ``saved(1 + w) <=
        min(density * w, cap)`` — a concave upper envelope of the true
        (possibly non-concave) savings curve, which is exactly what the
        admissible fractional relaxation needs.
        """
        densities: "dict[str, float]" = {}
        caps: "dict[str, int]" = {}
        for group in free:
            cap = self.caps[group.name]
            ladder = self.coverages[group.name].ram_access_ladder(
                list(range(1, cap + 1))
            )
            base = ladder[1]
            best_density = 0.0
            best_saved = 0
            for r in range(2, cap + 1):
                saved = base - ladder[r]
                best_saved = max(best_saved, saved)
                best_density = max(best_density, saved / (r - 1))
            densities[group.name] = best_density
            caps[group.name] = best_saved
        return densities, caps

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
        storage = {
            g.name: classify_operand_storage(
                g, self.coverages[g.name], registers[g.name]
            )
            for g in self.groups
        }
        report = count_with_best_anchors(
            self.kernel,
            self.groups,
            allocation,
            self.model,
            self.ram_ports,
            self.overhead,
            self.dfg,
            self.coverages,
            storage,
            self.ctx,
        )
        cycles = report.total_cycles
        self._leaf_memo[key] = cycles
        return cycles

    # -- admissible bounds ----------------------------------------------------

    def _access_floor(self, decided: "dict[str, int]") -> int:
        """Cheap bound: the busiest group's port time is unavoidable."""
        latency = self.model.ram_latency
        remaining = self.extra_budget - sum(r - 1 for r in decided.values())
        floor = 0
        for group in self.groups:
            name = group.name
            r = decided.get(name)
            if r is not None:
                accesses = self.coverages[name].result(r).total_ram_accesses
            else:
                base = self.coverages[name].ram_access_ladder([1])[1]
                saved_ub = min(
                    self.densities[name] * remaining, self.savings_caps[name]
                )
                accesses = max(0, ceil(base - saved_ub))
            floor = max(floor, ceil(accesses * latency / self.ram_ports))
        return self.space * self.overhead + floor

    def _relaxed_bound(self, decided: "dict[str, int]") -> int:
        """Strong bound: exact decided masks, everything else all-hit."""
        exact = {}
        writebacks = 0
        for group in self.groups:
            name = group.name
            r = decided.get(name)
            if r is None:
                continue
            coverage = self.coverages[name]
            result = coverage.result(r, anchor="low")
            writebacks += result.writeback_stores
            # A partially covered pinned group's masks depend on the
            # anchor the objective minimizes over; relax them to
            # all-hit (write-backs are anchor-independent and stay).
            if not (
                coverage.kind == "pinned"
                and 0 < result.covered < group.full_registers
            ):
                exact[name] = result

        in_loop, _, _ = classify_patterns(
            self.costs.layout.pack(self.shape, exact), self.costs
        )
        return in_loop + writebacks * self.model.ram_latency

    # -- branch and bound -----------------------------------------------------

    def solve(self, node_limit: int, time_box: "float | None") -> _Outcome:
        deadline = (
            time.perf_counter() + time_box if time_box is not None else None
        )
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
                    self.kernel, self.budget, self.groups, context=self.ctx
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
            if truncated or nodes >= node_limit or (
                deadline is not None and time.perf_counter() > deadline
            ):
                truncated = True
                cut_bounds.append(inherited)
                continue
            spent = sum(prefix)
            remaining = self.extra_budget - spent
            depth = len(prefix)
            if depth == len(self.order) or remaining == 0:
                # Leaf (free groups exhausted, or the budget forces all
                # remaining groups to their mandatory register).
                nodes += 1
                registers = dict(fixed)
                for index, group in enumerate(self.order):
                    extra = prefix[index] if index < len(prefix) else 0
                    registers[group.name] = 1 + extra
                key = self._key_of(registers)
                if best_key is None or key < best_key:
                    best_key, best_registers = key, registers
                continue

            decided = dict(fixed)
            for index in range(depth):
                decided[self.order[index].name] = 1 + prefix[index]
            nodes += 1
            bound = self._access_floor(decided)
            if not self._prunable(bound, prefix, best_key):
                bound = max(bound, self._relaxed_bound(decided))
            if self._prunable(bound, prefix, best_key):
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
