"""Allocator base class and shared bookkeeping.

All allocators share the paper's ground rules:

* every reference group receives one mandatory register up front (the
  operand buffer that "renders the computation feasible"), charged against
  the budget ``Nr``;
* further registers are assigned by the algorithm-specific policy;
* a group never receives more than its full requirement ``beta``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.analysis.groups import RefGroup, build_groups
from repro.core.allocation import Allocation
from repro.errors import AllocationError
from repro.ir.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.context import EvalContext
    from repro.synth.estimate import Objective

__all__ = ["Allocator", "AllocationState"]


class AllocationState:
    """Mutable working state shared by the concrete allocators.

    ``context`` is the shared-artifact memo plane policies take their
    whole-kernel analysis from — CPA-RA's DFG and critical graphs,
    KS-RA's DP table, OPT-RA's DFG, coverage and cycle counts.  A sweep
    passes its own (through :meth:`Allocator.allocate`); without one the
    state gets a fresh :class:`~repro.explore.context.EvalContext`, so a
    standalone allocation is a one-point sweep.  Policies must treat
    anything obtained from it as read-only; using it never changes the
    resulting allocation.

    ``objective`` is the cycle objective the design will be reported
    under (:class:`~repro.synth.estimate.Objective`; the pipeline's
    default when omitted).  Only objective-aware policies (OPT-RA) read
    it.
    """

    def __init__(self, kernel: Kernel, groups: tuple[RefGroup, ...], budget: int,
                 context: "EvalContext | None" = None,
                 objective: "Objective | None" = None):
        if budget < len(groups):
            raise AllocationError(
                f"budget {budget} cannot cover the mandatory register of "
                f"{len(groups)} references in kernel {kernel.name}"
            )
        if context is None:
            from repro.explore.context import EvalContext

            context = EvalContext()
        if objective is None:
            from repro.synth.estimate import Objective

            objective = Objective.resolve()
        self.kernel = kernel
        self.groups = groups
        self.budget = budget
        self.context: "EvalContext" = context
        self.objective: "Objective" = objective
        self.assigned: dict[str, int] = {g.name: 1 for g in groups}
        self.remaining = budget - len(groups)
        self.trace: list[str] = [
            f"baseline: 1 register to each of {len(groups)} references "
            f"({self.remaining} of {budget} left)"
        ]
        #: Exactness provenance (see :class:`~repro.core.allocation.
        #: Allocation`): heuristics leave the defaults; the exact
        #: allocator downgrades ``certified`` when its time box
        #: truncated the search and records the proven cycle bound.
        self.certified: bool = True
        self.lower_bound: "int | None" = None

    def group(self, name: str) -> RefGroup:
        for candidate in self.groups:
            if candidate.name == name:
                return candidate
        raise AllocationError(f"no group named {name!r}")

    def need(self, group: RefGroup) -> int:
        """Registers still missing for full replacement of ``group``."""
        return max(0, group.full_registers - self.assigned[group.name])

    def is_full(self, group: RefGroup) -> bool:
        return self.need(group) == 0

    def give(self, group: RefGroup, extra: int, reason: str) -> int:
        """Grant up to ``extra`` registers (capped by need and budget)."""
        grant = min(extra, self.need(group), self.remaining)
        if grant < 0:
            raise AllocationError(f"negative grant for {group.name}")
        if grant:
            self.assigned[group.name] += grant
            self.remaining -= grant
            self.trace.append(
                f"{reason}: +{grant} to {group.name} "
                f"(now {self.assigned[group.name]}/{group.full_registers}, "
                f"{self.remaining} left)"
            )
        return grant

    def finish(self, kernel_name: str, algorithm: str) -> Allocation:
        return Allocation(
            kernel_name=kernel_name,
            algorithm=algorithm,
            budget=self.budget,
            registers=dict(self.assigned),
            betas={g.name: g.full_registers for g in self.groups},
            trace=tuple(self.trace),
            certified=self.certified,
            lower_bound=self.lower_bound,
        )


class Allocator(ABC):
    """Common driver: group the kernel, run the policy, return the result."""

    #: Short tag used in tables ("FR-RA", "PR-RA", "CPA-RA", ...).
    name: str = "base"

    def allocate(
        self,
        kernel: Kernel,
        budget: int,
        groups: "tuple[RefGroup, ...] | None" = None,
        context: "EvalContext | None" = None,
        objective: "Objective | None" = None,
    ) -> Allocation:
        groups = groups if groups is not None else build_groups(kernel)
        state = AllocationState(
            kernel, groups, budget, context=context, objective=objective
        )
        self._run(state)
        return state.finish(kernel.name, self.name)

    @abstractmethod
    def _run(self, state: AllocationState) -> None:
        """Apply the allocation policy to ``state`` in place."""
