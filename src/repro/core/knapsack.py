"""Exact knapsack baseline: maximize eliminated accesses, optimally.

The paper frames allocation as a knapsack (section 3) and then solves it
greedily.  This allocator solves the 0/1 knapsack *exactly* with dynamic
programming — item = reference group, weight = extra registers for full
replacement (``beta - 1``), value = accesses saved — giving the optimum of
the paper's "simple objective function" (eliminate the most memory
accesses).  It ignores the critical path, so comparing it against CPA-RA
isolates how much of CPA-RA's win comes from path awareness rather than
greedy suboptimality (the allocator-policy ablation,
:func:`repro.bench.sweeps.policy_comparison`).
"""

from __future__ import annotations

from repro.core.base import AllocationState, Allocator

__all__ = ["KnapsackAllocator"]


class KnapsackAllocator(Allocator):
    """Optimal saved-accesses 0/1 allocation (DP)."""

    name = "KS-RA"

    def _run(self, state: AllocationState) -> None:
        items = [g for g in state.groups if g.has_reuse and state.need(g) > 0]
        capacity = state.remaining
        weights = [state.need(g) for g in items]
        values = [g.full_saved for g in items]

        # Classic DP over capacity; reconstruct the chosen set.  The DP
        # recurrence for capacity ``c`` never reads beyond ``c``, so one
        # table computed at the all-items capacity answers *every*
        # budget of a sweep bit-identically — the batched ladder DP the
        # context memoizes across points (reconstruction below only
        # reads columns <= capacity).
        signature = tuple(
            (g.name, weight, value)
            for g, weight, value in zip(items, weights, values)
        )
        best, keep = state.context.knapsack_tables(
            state.kernel, signature, capacity
        )

        chosen: list[int] = []
        cap = capacity
        for index in range(len(items) - 1, -1, -1):
            if keep[index][cap]:
                chosen.append(index)
                cap -= weights[index]
        chosen.reverse()

        state.trace.append(
            f"knapsack: capacity {capacity}, optimum saves {best[capacity]} accesses"
        )
        for index in chosen:
            state.give(items[index], weights[index], "knapsack optimum")
