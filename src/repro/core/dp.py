"""Allocation dynamic programs shared beyond one allocator plugin.

Lives outside the allocator plugin modules on purpose: the evaluation
context (:mod:`repro.explore.context`) owns the knapsack DP for its
cross-budget memo without importing the KS-RA plugin.  KS-RA reaches
the DP only through that context
(:meth:`~repro.explore.context.EvalContext.knapsack_tables`).
"""

from __future__ import annotations

__all__ = ["solve_knapsack"]


def solve_knapsack(
    items: "tuple[tuple[str, int, int], ...]", capacity: int
) -> "tuple[list[int], list[list[bool]]]":
    """Classic 0/1-knapsack DP over capacities ``0..capacity``.

    ``items`` is ``(name, weight, value)`` per candidate group; returns
    ``(best, keep)`` where ``best[c]`` is the optimum value at capacity
    ``c`` and ``keep[i][c]`` whether item ``i`` is taken there.  The
    recurrence for capacity ``c`` never reads beyond ``c``, so the
    tables answer every capacity at or below the one they were solved
    for bit-identically — the property the evaluation context's
    cross-budget memo (:meth:`repro.explore.context.EvalContext.
    knapsack_tables`) relies on.  The single DP implementation; only
    that memo calls it.
    """
    best = [0] * (capacity + 1)
    keep: "list[list[bool]]" = []
    for _, weight, value in items:
        taken = [False] * (capacity + 1)
        for cap in range(capacity, weight - 1, -1):
            candidate = best[cap - weight] + value
            if candidate > best[cap]:
                best[cap] = candidate
                taken[cap] = True
        keep.append(taken)
    return best, keep
