"""Simulators: functional interpretation, register residency, cycle counting."""

from repro.sim.cycles import CycleReport, count_cycles
from repro.sim.interp import (
    ScalarReplacedRun,
    random_inputs,
    run_kernel,
    run_scalar_replaced,
)
from repro.sim.residency import (
    OptTraceLadder,
    lru_miss_counts,
    lru_misses,
    pinned_misses,
)
from repro.sim.scheduler import IterationSchedule, schedule_iteration

__all__ = [
    "CycleReport",
    "IterationSchedule",
    "OptTraceLadder",
    "ScalarReplacedRun",
    "count_cycles",
    "lru_miss_counts",
    "lru_misses",
    "pinned_misses",
    "random_inputs",
    "run_kernel",
    "run_scalar_replaced",
    "schedule_iteration",
]
