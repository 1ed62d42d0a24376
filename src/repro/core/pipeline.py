"""End-to-end pipeline: kernel -> analysis -> allocation -> design point.

The convenience layer examples and benchmarks use: pick algorithms, run
everything, get back comparable :class:`HardwareDesign` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.groups import RefGroup, build_groups
from repro.core.base import Allocator
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.knapsack import KnapsackAllocator
from repro.core.naive import NaiveAllocator
from repro.core.optra import OptimalAllocator
from repro.core.prra import PartialReuseAllocator
from repro.dfg.latency import LatencyModel
from repro.errors import ReproError
from repro.hw.device import Device, XCV1000
from repro.ir.kernel import Kernel
from repro.synth.design import HardwareDesign
from repro.synth.estimate import Objective, build_design

__all__ = ["PipelineResult", "evaluate_kernel", "allocator_by_name", "PAPER_VERSIONS"]

#: Table 1's three code versions, in order.
PAPER_VERSIONS = ("FR-RA", "PR-RA", "CPA-RA")

_ALLOCATORS: dict[str, type[Allocator]] = {
    "FR-RA": FullReuseAllocator,
    "PR-RA": PartialReuseAllocator,
    "CPA-RA": CriticalPathAwareAllocator,
    "KS-RA": KnapsackAllocator,
    "NO-SR": NaiveAllocator,
    "OPT-RA": OptimalAllocator,
}


def allocator_by_name(name: str) -> Allocator:
    """Instantiate an allocator by its table tag."""
    try:
        return _ALLOCATORS[name]()
    except KeyError:
        raise ReproError(
            f"unknown allocator {name!r}; available: {sorted(_ALLOCATORS)}"
        )


@dataclass(frozen=True)
class PipelineResult:
    """Evaluated designs for one kernel, keyed by algorithm tag."""

    kernel: Kernel
    groups: tuple[RefGroup, ...]
    budget: int
    designs: dict[str, HardwareDesign]

    def design(self, algorithm: str) -> HardwareDesign:
        try:
            return self.designs[algorithm]
        except KeyError:
            raise ReproError(
                f"pipeline did not evaluate {algorithm!r} for "
                f"{self.kernel.name}; ran {sorted(self.designs)}"
            )

    @property
    def baseline(self) -> HardwareDesign:
        """The v1 (FR-RA) design the paper normalizes against."""
        return self.design("FR-RA")


def evaluate_kernel(
    kernel: Kernel,
    budget: int = 64,
    algorithms: tuple[str, ...] = PAPER_VERSIONS,
    device: Device = XCV1000,
    model: LatencyModel | None = None,
    ram_ports: int | None = None,
    overhead_per_iteration: int = 1,
) -> PipelineResult:
    """Run the full flow for each requested algorithm on ``kernel``.

    The algorithms are the allocator axis of a one-kernel sweep, so they
    share one :class:`~repro.explore.context.EvalContext`: the DFG,
    coverage computers and pattern costs are built once.  ``model``,
    ``ram_ports`` and ``overhead_per_iteration`` resolve into one
    :class:`~repro.synth.estimate.Objective` that every allocator is
    given and every design is reported under.
    """
    from repro.explore.context import EvalContext

    context = EvalContext()
    objective = Objective.resolve(
        device, model, ram_ports, overhead_per_iteration
    )
    groups = build_groups(kernel)
    designs: dict[str, HardwareDesign] = {}
    for name in algorithms:
        allocation = allocator_by_name(name).allocate(
            kernel, budget, groups, context=context, objective=objective
        )
        designs[name] = build_design(
            kernel,
            allocation,
            groups=groups,
            device=device,
            objective=objective,
            context=context,
        )
    return PipelineResult(
        kernel=kernel, groups=groups, budget=budget, designs=designs
    )
