"""Differential allocator invariants across every kernel and budget.

The paper implies — but the seed never tested — orderings that must hold
at every feasible (kernel, budget) point:

* the exact knapsack (KS-RA) and FR-RA both make *all-or-nothing* full
  replacement grants, so KS-RA (the DP optimum of that 0/1 problem) must
  save at least as many RAM accesses as the greedy FR-RA;
* KS-RA's objective — predicted accesses saved by fully-replaced groups —
  dominates the same objective evaluated on *any* allocator's set of
  fully-replaced groups, since every such set is a feasible 0/1 solution.
  (Note: KS-RA does **not** always beat PR-RA on *measured* accesses:
  PR-RA's partial-coverage grants save accesses the 0/1 knapsack cannot
  see, e.g. fir@16 where PR-RA's 14-register partial window wins.  The
  objective-level comparison is the form of the claim that is a theorem.)
* NO-SR (no scalar replacement) is the cycle- and access-count worst
  case: every other allocator only ever removes RAM accesses.

Budgets below the mandatory one-register-per-reference floor must fail
loudly (AllocationError), not silently misallocate.
"""

import pytest

from repro.analysis.groups import build_groups
from repro.core.pipeline import evaluate_kernel
from repro.errors import AllocationError
from repro.explore import DesignQuery, Executor
from repro.kernels import KERNEL_FACTORIES, get_kernel

BUDGETS = (4, 16, 64)
ALGORITHMS = ("FR-RA", "PR-RA", "CPA-RA", "KS-RA", "NO-SR")
GRID = [(name, budget) for name in sorted(KERNEL_FACTORIES)
        for budget in BUDGETS]


@pytest.fixture(scope="module")
def records():
    """Every (kernel, budget, algorithm) record, evaluated once."""
    queries = [
        DesignQuery.from_kernel(name, allocator=algorithm, budget=budget)
        for name, budget in GRID
        for algorithm in ALGORITHMS
    ]
    results = Executor().run(queries)
    return {
        (q.kernel, q.budget, q.allocator): r
        for q, r in zip(queries, results)
    }


def _feasible(name: str, budget: int) -> bool:
    return budget >= len(build_groups(get_kernel(name)))


def _full_set_objective(record, groups) -> int:
    """Predicted saved accesses of the record's fully-replaced groups."""
    return sum(
        group.full_saved
        for group in groups
        if group.has_reuse
        and record.registers[group.name] >= group.full_registers
    )


@pytest.mark.parametrize("name,budget", GRID)
def test_knapsack_saves_at_least_full_reuse_greedy(records, name, budget):
    """Exact 0/1 DP never leaves more RAM accesses than the 0/1 greedy."""
    if not _feasible(name, budget):
        pytest.skip(f"budget {budget} below mandatory floor for {name}")
    knapsack = records[(name, budget, "KS-RA")]
    greedy = records[(name, budget, "FR-RA")]
    assert knapsack.ok and greedy.ok
    assert knapsack.total_ram_accesses <= greedy.total_ram_accesses, (
        f"{name}@{budget}: KS-RA left {knapsack.total_ram_accesses} RAM "
        f"accesses, FR-RA only {greedy.total_ram_accesses}"
    )


@pytest.mark.parametrize("name,budget", GRID)
def test_knapsack_objective_dominates_every_full_set(records, name, budget):
    """KS-RA's knapsack objective >= any allocator's fully-replaced set.

    Each allocator's set of fully-replaced groups fits the same capacity,
    so it is a feasible 0/1 solution the DP must weakly beat — including
    PR-RA's, which is the sound form of "KS-RA saves at least as many
    accesses as PR-RA".
    """
    if not _feasible(name, budget):
        pytest.skip(f"budget {budget} below mandatory floor for {name}")
    groups = build_groups(get_kernel(name))
    ks_objective = _full_set_objective(records[(name, budget, "KS-RA")], groups)
    for algorithm in ("FR-RA", "PR-RA", "CPA-RA"):
        objective = _full_set_objective(
            records[(name, budget, algorithm)], groups
        )
        assert ks_objective >= objective, (
            f"{name}@{budget}: KS-RA objective {ks_objective} < "
            f"{algorithm}'s feasible full set {objective}"
        )


@pytest.mark.parametrize("name,budget", GRID)
def test_no_sr_is_cycle_worst_case(records, name, budget):
    """No allocator is ever slower than skipping scalar replacement."""
    if not _feasible(name, budget):
        pytest.skip(f"budget {budget} below mandatory floor for {name}")
    naive = records[(name, budget, "NO-SR")]
    assert naive.ok
    for algorithm in ALGORITHMS:
        record = records[(name, budget, algorithm)]
        assert record.ok
        assert record.cycles <= naive.cycles, (
            f"{name}@{budget}: {algorithm} took {record.cycles} cycles, "
            f"worse than NO-SR's {naive.cycles}"
        )
        assert record.total_ram_accesses <= naive.total_ram_accesses


@pytest.mark.parametrize(
    "name,budget",
    [(name, budget) for name, budget in GRID if not _feasible(name, budget)],
)
def test_infeasible_budgets_fail_loudly(records, name, budget):
    """Sub-floor budgets surface AllocationError on every allocator."""
    for algorithm in ALGORITHMS:
        record = records[(name, budget, algorithm)]
        assert not record.ok
        assert record.error_type == "AllocationError"
        with pytest.raises(AllocationError):
            record.raise_error()
        with pytest.raises(AllocationError):
            evaluate_kernel(
                get_kernel(name), budget=budget, algorithms=(algorithm,)
            )
