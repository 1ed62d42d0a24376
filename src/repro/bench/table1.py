"""Table 1 regeneration: the paper's full evaluation.

For each of the six kernels, build the v1 (FR-RA), v2 (PR-RA) and
v3 (CPA-RA) designs under the 64-register budget and report the columns
of the paper's Table 1: required registers, allocated distribution and
total, execution cycles (with the percentage reduction against v1), the
estimated clock period, wall-clock execution time (with speedup against
v1), slice count/occupancy and RAM blocks — plus the aggregate statistics
the prose quotes (average cycle reduction, average wall-clock gain,
average clock-rate loss).

The evaluation grid runs through :mod:`repro.explore`, so regeneration
parallelizes over ``jobs`` worker processes and can resume from a result
``cache`` — the aggregation below only reshapes engine records into the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import mean

from repro.formatting import render_table
from repro.core.pipeline import PAPER_VERSIONS
from repro.dfg.latency import LatencyModel
from repro.explore.cache import ResultCache
from repro.explore.executor import Executor
from repro.explore.query import LatencySpec
from repro.explore.space import ExplorationSpace
from repro.ir.kernel import Kernel
from repro.kernels.registry import PAPER_REGISTER_BUDGET, paper_kernels

__all__ = ["Table1Row", "Table1", "generate_table1", "render_table1"]

_VERSION_TAGS = {"FR-RA": "v1", "PR-RA": "v2", "CPA-RA": "v3"}


@dataclass(frozen=True)
class Table1Row:
    """One (kernel, version) row of Table 1."""

    kernel: str
    version: str
    algorithm: str
    required: str
    distribution: str
    total_registers: int
    cycles: int
    cycle_reduction_pct: float
    clock_ns: float
    time_us: float
    speedup: float
    slices: int
    occupancy_pct: float
    ram_arrays: int
    ram_blocks: int


@dataclass(frozen=True)
class Table1:
    """All rows plus the aggregates quoted in the paper's section 5."""

    rows: tuple[Table1Row, ...]
    avg_cycle_reduction: dict[str, float]
    avg_wall_clock_gain: dict[str, float]
    avg_clock_loss: dict[str, float]
    v3_over_v2_cycles_pct: float
    v3_over_v2_time_pct: float

    def rows_for(self, kernel: str) -> list[Table1Row]:
        return [r for r in self.rows if r.kernel == kernel]


def generate_table1(
    budget: int = PAPER_REGISTER_BUDGET,
    kernels: "list[Kernel] | None" = None,
    model: LatencyModel | None = None,
    jobs: int = 1,
    cache: "ResultCache | Path | str | None" = None,
) -> Table1:
    """Run the full evaluation and collect Table 1."""
    kernels = kernels if kernels is not None else paper_kernels()
    space = ExplorationSpace(
        kernels=kernels,
        allocators=PAPER_VERSIONS,
        budgets=(budget,),
        latencies=(LatencySpec.from_model(model),),
    )
    results = Executor(jobs=jobs, cache=cache).run(space)
    for record in results:
        record.raise_error()

    rows: list[Table1Row] = []
    per_kernel = [
        results.records[i : i + len(PAPER_VERSIONS)]
        for i in range(0, len(results), len(PAPER_VERSIONS))
    ]
    for kernel, records in zip(kernels, per_kernel):
        baseline = records[0]
        for algorithm, record in zip(PAPER_VERSIONS, records):
            required = " ".join(
                f"{name}:{beta}" for name, beta in record.betas.items()
            )
            rows.append(
                Table1Row(
                    kernel=kernel.name,
                    version=_VERSION_TAGS[algorithm],
                    algorithm=algorithm,
                    required=required,
                    distribution=record.distribution,
                    total_registers=record.total_registers,
                    cycles=record.cycles,
                    cycle_reduction_pct=(
                        1.0 - record.cycles / baseline.cycles
                    ) * 100,
                    clock_ns=record.clock_ns,
                    time_us=record.wall_clock_us,
                    speedup=baseline.wall_clock_us / record.wall_clock_us,
                    slices=record.slices,
                    occupancy_pct=record.occupancy_pct,
                    ram_arrays=record.ram_arrays,
                    ram_blocks=record.ram_blocks,
                )
            )

    def versions(tag: str) -> list[Table1Row]:
        return [r for r in rows if r.version == tag]

    avg_cycle = {
        tag: mean(r.cycle_reduction_pct for r in versions(tag))
        for tag in ("v2", "v3")
    }
    avg_wall = {
        tag: mean(100 * (1 - r.time_us / v1.time_us)
                  for r, v1 in zip(versions(tag), versions("v1")))
        for tag in ("v2", "v3")
    }
    avg_clock = {
        tag: mean(100 * (r.clock_ns / v1.clock_ns - 1)
                  for r, v1 in zip(versions(tag), versions("v1")))
        for tag in ("v2", "v3")
    }
    v3_cycles = mean(
        100 * (1 - r3.cycles / r2.cycles)
        for r2, r3 in zip(versions("v2"), versions("v3"))
    )
    v3_time = mean(
        100 * (1 - r3.time_us / r2.time_us)
        for r2, r3 in zip(versions("v2"), versions("v3"))
    )
    return Table1(
        rows=tuple(rows),
        avg_cycle_reduction=avg_cycle,
        avg_wall_clock_gain=avg_wall,
        avg_clock_loss=avg_clock,
        v3_over_v2_cycles_pct=v3_cycles,
        v3_over_v2_time_pct=v3_time,
    )


def render_table1(table: Table1) -> str:
    """Render Table 1 plus the aggregate block as text."""
    headers = [
        "Kernel", "Ver", "Algorithm", "Regs", "Cycles", "dCyc%",
        "Clock(ns)", "Time(us)", "Speedup", "Slices", "Occ%", "RAMs",
    ]
    body = [
        [
            r.kernel, r.version, r.algorithm, r.total_registers, r.cycles,
            f"{r.cycle_reduction_pct:+.1f}", r.clock_ns, r.time_us,
            f"{r.speedup:.2f}", r.slices, r.occupancy_pct,
            f"{r.ram_arrays}({r.ram_blocks})",
        ]
        for r in table.rows
    ]
    lines = [render_table(headers, body, title="Table 1 (reproduced)")]
    lines.append("")
    lines.append("Register distributions:")
    for r in table.rows:
        lines.append(f"  {r.kernel}/{r.version}: req[{r.required}] -> {r.distribution}")
    lines.append("")
    lines.append(
        "Aggregates: cycle reduction v2 {v2c:+.1f}% / v3 {v3c:+.1f}% "
        "(paper ~ +8 / +22); wall-clock gain v2 {v2w:+.1f}% / v3 {v3w:+.1f}% "
        "(paper ~ -0.2 / +12.5); clock loss v2 {v2k:+.1f}% / v3 {v3k:+.1f}% "
        "(paper v3 ~ 8)".format(
            v2c=table.avg_cycle_reduction["v2"],
            v3c=table.avg_cycle_reduction["v3"],
            v2w=table.avg_wall_clock_gain["v2"],
            v3w=table.avg_wall_clock_gain["v3"],
            v2k=table.avg_clock_loss["v2"],
            v3k=table.avg_clock_loss["v3"],
        )
    )
    lines.append(
        f"CPA-RA over PR-RA: cycles {table.v3_over_v2_cycles_pct:+.1f}%, "
        f"wall-clock {table.v3_over_v2_time_pct:+.1f}% (paper ~ +12 / +10)"
    )
    return "\n".join(lines)
