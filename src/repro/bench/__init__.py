"""Experiment harnesses: Table 1, Figure 2 and ablation sweeps."""

from repro.bench.example import (
    Figure2Report,
    Figure2Row,
    PAPER_TMEM,
    build_example_kernel,
    figure2_report,
)
from repro.formatting import render_table
from repro.bench.sweeps import (
    BudgetPoint,
    ResidencyPoint,
    budget_sweep,
    latency_sweep,
    policy_comparison,
    residency_study,
)
from repro.bench.table1 import Table1, Table1Row, generate_table1, render_table1

__all__ = [
    "BudgetPoint",
    "Figure2Report",
    "Figure2Row",
    "PAPER_TMEM",
    "ResidencyPoint",
    "Table1",
    "Table1Row",
    "budget_sweep",
    "build_example_kernel",
    "figure2_report",
    "generate_table1",
    "latency_sweep",
    "policy_comparison",
    "render_table",
    "render_table1",
    "residency_study",
]
