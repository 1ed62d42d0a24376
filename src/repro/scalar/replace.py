"""The scalar-replacement transform, as an inspectable artifact.

The paper applies scalar replacement at C source level and defers the
full code-generation scheme (peeling/predication) out of scope.  This
module produces the *structured description* of that transform for a
kernel plus an allocation — the artifact a code generator (or a human
reading the output) needs:

* per reference group: the register bank (name, size, policy, anchor),
* the prologue loads that fill pinned read banks,
* the steady-state replacement of each access (register operand vs RAM
  access, with the predicate deciding partial-coverage cases),
* the per-region epilogue write-backs of covered written elements,

plus a pretty-printer that renders the transformed kernel as pseudo-C
with explicit register buffers, matching how the paper's examples are
written out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.groups import RefGroup, build_groups
from repro.core.allocation import Allocation
from repro.ir.kernel import Kernel
from repro.scalar.coverage import GroupCoverage

__all__ = ["BankPlan", "TransformPlan", "plan_transform", "render_transform"]


@dataclass(frozen=True)
class BankPlan:
    """Register-bank plan for one reference group.

    Attributes
    ----------
    group_name / array / registers:
        What is buffered and with how many registers.
    policy:
        ``"pinned"`` / ``"window"`` / ``"buffer"`` (single operand
        register, no reuse).
    covered:
        Footprint elements held resident.
    prologue_loads:
        RAM loads needed to pre-fill the bank per region (pinned reads).
    steady_state:
        Human-readable description of the per-iteration access.
    writebacks_per_region:
        Stores drained at each region boundary (written groups).
    regions:
        Number of regions (executions of the loops above the carrying
        level).
    """

    group_name: str
    array: str
    registers: int
    policy: str
    covered: int
    prologue_loads: int
    steady_state: str
    writebacks_per_region: int
    regions: int


@dataclass(frozen=True)
class TransformPlan:
    """Complete scalar-replacement plan for one (kernel, allocation)."""

    kernel_name: str
    algorithm: str
    banks: tuple[BankPlan, ...]

    @property
    def total_prologue_loads(self) -> int:
        return sum(b.prologue_loads * b.regions for b in self.banks)

    @property
    def total_writebacks(self) -> int:
        return sum(b.writebacks_per_region * b.regions for b in self.banks)


def plan_transform(
    kernel: Kernel,
    allocation: Allocation,
    groups: "tuple[RefGroup, ...] | None" = None,
) -> TransformPlan:
    """Build the transform plan for ``allocation`` on ``kernel``."""
    groups = groups if groups is not None else build_groups(kernel)
    banks: list[BankPlan] = []
    for group in groups:
        registers = allocation.registers_for(group.name)
        coverage = GroupCoverage(kernel, group)
        covered = coverage.covered(registers)
        kind = coverage.kind if covered else "none"
        has_read = group.has_active_read
        regions = 1
        writebacks = 0
        prologue = 0
        if kind == "pinned":
            result = coverage.result(registers)
            assert result.region_level is not None
            shape = kernel.nest.trip_counts()
            regions = 1
            for extent in shape[: result.region_level - 1]:
                regions *= extent
            writebacks = (
                result.writeback_stores // regions if group.is_written else 0
            )
            prologue = covered if has_read else 0
            policy = "pinned"
            steady = (
                f"element rank < {covered} -> register hit, else RAM"
                if covered < group.full_registers
                else "always register"
            )
        elif kind == "window":
            policy = "window"
            steady = (
                f"Belady-managed rotating window of {covered} "
                f"most-useful elements"
            )
        else:
            policy = "buffer"
            steady = "RAM access every iteration (operand buffer only)"
        banks.append(
            BankPlan(
                group_name=group.name,
                array=group.array_name,
                registers=registers,
                policy=policy,
                covered=covered,
                prologue_loads=prologue,
                steady_state=steady,
                writebacks_per_region=writebacks,
                regions=regions,
            )
        )
    return TransformPlan(
        kernel_name=kernel.name,
        algorithm=allocation.algorithm,
        banks=tuple(banks),
    )


def render_transform(plan: TransformPlan) -> str:
    """Render the plan as readable pseudo-C structure."""
    lines = [
        f"/* scalar replacement of {plan.kernel_name} "
        f"under {plan.algorithm} */"
    ]
    for bank in plan.banks:
        lines.append(
            f"reg {bank.array} {bank.group_name}_bank[{bank.registers}];  "
            f"/* {bank.policy}, covers {bank.covered} */"
        )
    lines.append("")
    lines.append("/* prologue */")
    for bank in plan.banks:
        if bank.prologue_loads:
            lines.append(
                f"load {bank.prologue_loads} elements of {bank.group_name} "
                f"into {bank.group_name}_bank"
                + (f"  /* per each of {bank.regions} regions */"
                   if bank.regions > 1 else "")
            )
    lines.append("")
    lines.append("/* steady state (per iteration) */")
    for bank in plan.banks:
        lines.append(f"{bank.group_name}: {bank.steady_state}")
    lines.append("")
    lines.append("/* epilogue (per region) */")
    for bank in plan.banks:
        if bank.writebacks_per_region:
            lines.append(
                f"store {bank.writebacks_per_region} covered elements of "
                f"{bank.group_name} back to {bank.array}"
            )
    return "\n".join(lines)
