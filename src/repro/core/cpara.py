"""CPA-RA: Critical-Path-Aware Register Allocation (paper Figure 4).

The proposed algorithm.  Each round:

1. rebuild the Critical Graph of the loop-body DFG under the *current*
   allocation (fully-allocated references access registers and drop off
   the paths they used to lengthen);
2. enumerate the cuts of the CG over references that still have
   exploitable reuse;
3. pick the cut with the minimum remaining register demand
   (``Find_Req_Reg``) and satisfy it fully if the budget allows —
   every register spent provably shortens *all* critical paths;
4. if the budget cannot cover any cut, split what is left equally among
   the members of the cheapest cut (partial coverage still trims the
   memory cycles of the covered iterations) and stop.

The loop ends when the budget is exhausted or no viable cut remains —
e.g. when every critical path is pinned by an irreducible access such as
the running example's ``e[i][j][k]`` store.

The CG is extracted under a latency model with *known operation
latencies* (paper section 3): the operator library's realistic model,
:data:`CG_MODEL`.  Using a memory-only model would let short
all-register paths tie into the CG and distort cut selection.
"""

from __future__ import annotations

from repro.analysis.groups import RefGroup
from repro.core.base import AllocationState, Allocator
from repro.dfg.cuts import Cut, enumerate_cuts
from repro.dfg.latency import LatencyModel
from repro.errors import AllocationError

__all__ = ["CG_MODEL", "CriticalPathAwareAllocator"]

#: The latency model every Critical Graph is extracted under: operator-
#: library latencies and single-cycle RAM, whatever the RAM latency the
#: design is reported under.
CG_MODEL = LatencyModel.realistic()


class CriticalPathAwareAllocator(Allocator):
    """The paper's CPA-RA algorithm."""

    name = "CPA-RA"

    def _run(self, state: AllocationState) -> None:
        # Budget points of one sweep share the DFG and — in the early
        # rounds, where adjacent budgets reach identical hit maps — the
        # extracted CG itself, so both go through the shared-artifact
        # context.
        ctx = state.context
        dfg = ctx.dfg(state.kernel, state.groups)
        rounds = 0
        max_rounds = len(state.groups) + 2  # each round retires >= 1 group
        while state.remaining > 0 and rounds < max_rounds:
            rounds += 1
            hits = {
                g.name: state.is_full(g) and g.carries_reuse
                for g in state.groups
            }
            cg = ctx.critical_graph(state.kernel, dfg, CG_MODEL, hits)
            cuts = enumerate_cuts(
                cg,
                removable=lambda name: self._removable(state, name),
            )
            if not cuts:
                state.trace.append(
                    f"round {rounds}: no viable cut "
                    f"(critical paths pinned by irreducible accesses); stop"
                )
                break
            best = min(cuts, key=lambda c: (self._req(state, c), len(c.groups), sorted(c.groups)))
            req = self._req(state, best)
            state.trace.append(
                f"round {rounds}: CG makespan {cg.makespan}, cuts "
                + ", ".join(f"{c}({self._req(state, c)})" for c in cuts)
                + f"; pick {best}"
            )
            if req <= state.remaining:
                for group in self._cut_groups(state, best):
                    state.give(group, state.need(group), f"cut {best}")
            else:
                self._split_equally(state, best)
                break

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _removable(state: AllocationState, name: str) -> bool:
        group = state.group(name)
        return group.has_reuse and not state.is_full(group)

    @staticmethod
    def _req(state: AllocationState, cut: Cut) -> int:
        return sum(state.need(state.group(name)) for name in cut.groups)

    @staticmethod
    def _cut_groups(state: AllocationState, cut: Cut) -> list[RefGroup]:
        # Deterministic order: cheapest need first, then name.
        groups = [state.group(name) for name in cut.groups]
        groups.sort(key=lambda g: (state.need(g), g.name))
        return groups

    def _split_equally(self, state: AllocationState, cut: Cut) -> None:
        """Divide the remaining budget equally among the cut's references.

        Shares that exceed a member's remaining need overflow to the other
        members (round-robin), so no register is stranded while a member
        could still use it.
        """
        members = self._cut_groups(state, cut)
        state.trace.append(
            f"budget {state.remaining} below cut demand; split equally "
            f"among {', '.join(g.name for g in members)}"
        )
        while state.remaining > 0:
            open_members = [g for g in members if not state.is_full(g)]
            if not open_members:
                break
            share = max(1, state.remaining // len(open_members))
            progressed = False
            for group in open_members:
                if state.remaining == 0:
                    break
                if state.give(group, min(share, state.remaining), "equal split"):
                    progressed = True
            if not progressed:  # pragma: no cover - give() always progresses
                raise AllocationError("equal split made no progress")
