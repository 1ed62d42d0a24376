"""The paper's section-5 claims, Figure 2 and the ablations, as assertions.

* **Table 1** (E4/E5): the full six-kernel evaluation and its aggregates;
* **Figure 2** (E1-E3): the worked example's critical graph, cuts, register
  distributions and Tmem per outer iteration;
* **A1/A2**: cycles vs register budget and vs RAM latency;
* **A3**: CPA-RA against the exact knapsack (KS-RA) and the greedy
  allocators: KS-RA saves at least as many accesses as FR-RA, yet CPA-RA
  wins on cycles because it spends registers where the critical path
  needs them;
* **A4**: pinned vs LRU vs Belady residency per reference group;
* **A5/A6**: dual-ported RAMs and the multilevel planning profile;
* the worked example's pipeline stages (groups, DFG, cuts, allocators,
  cycle counter).

Table 1 and the policy comparison are computed once per session.
``repro table1`` and ``repro figure2`` print the artifacts themselves.
"""

import pytest

from repro.analysis import build_groups, rank_candidates
from repro.bench import (
    PAPER_TMEM,
    budget_sweep,
    figure2_report,
    generate_table1,
    latency_sweep,
    policy_comparison,
    residency_study,
)
from repro.core.cpara import CriticalPathAwareAllocator
from repro.core.frra import FullReuseAllocator
from repro.core.knapsack import KnapsackAllocator
from repro.core.pipeline import evaluate_kernel
from repro.core.prra import PartialReuseAllocator
from repro.dfg import LatencyModel, build_dfg, critical_graph, enumerate_cuts
from repro.hw import XCV1000
from repro.kernels import build_decfir, build_fir, build_mat, paper_kernels
from repro.sim.cycles import count_cycles
from repro.synth.estimate import Objective

BUDGETS = [4, 8, 16, 32, 64, 128]
LATENCIES = [1, 2, 4, 8]


@pytest.fixture(scope="session")
def table1():
    return generate_table1()


@pytest.fixture(scope="session")
def policy(example_kernel):
    """(saved accesses, cycles) per allocator at Nr=64, keyed by kernel."""
    return {
        kernel.name: policy_comparison(kernel)
        for kernel in [example_kernel, *paper_kernels()]
    }


@pytest.fixture(scope="module")
def example_groups(example_kernel):
    return build_groups(example_kernel)


# -- Table 1 (E4/E5) ----------------------------------------------------------


def test_table1(table1):
    rows = {(r.kernel, r.version): r for r in table1.rows}

    for kernel in ("fir", "decfir", "mat", "imi", "pat", "bic"):
        v1, v2, v3 = (rows[(kernel, v)] for v in ("v1", "v2", "v3"))
        # Cycles never regress with more registers.
        assert v2.cycles <= v1.cycles
        assert v3.cycles <= v1.cycles
        # v3 is at least as good as v2 in cycles everywhere.
        assert v3.cycles <= v2.cycles

    # Dec-FIR and PAT: v2 spends registers with no cycle gain and loses
    # wall-clock (mixed-storage operands); v3 reduces cycles.
    for kernel in ("decfir", "pat"):
        v1, v2, v3 = (rows[(kernel, v)] for v in ("v1", "v2", "v3"))
        assert v2.cycles == v1.cycles
        assert v2.total_registers > v1.total_registers
        assert v2.time_us > v1.time_us
        assert v3.cycles < v1.cycles

    # MAT and BIC, the paper's two exceptions: v3 does not improve
    # wall-clock over v2.
    for kernel in ("mat", "bic"):
        v2, v3 = rows[(kernel, "v2")], rows[(kernel, "v3")]
        assert v3.time_us >= v2.time_us * 0.999

    # Aggregates: v3's average cycle reduction is substantially larger
    # than v2's, its clock-rate loss stays in the single digits and its
    # wall-clock gain is double digits.
    assert table1.avg_cycle_reduction["v3"] > table1.avg_cycle_reduction["v2"]
    assert table1.avg_cycle_reduction["v3"] > 10.0
    assert table1.avg_wall_clock_gain["v3"] > 8.0
    assert 0.0 < table1.avg_clock_loss["v3"] < 15.0
    assert table1.v3_over_v2_cycles_pct > 0.0


# -- Figure 2 (E1-E3) ---------------------------------------------------------


def test_figure2():
    report = figure2_report()

    # Figure 2(b): the CG excludes c[j]; its cuts are {a,b}, {d}, {e}.
    assert set(report.structural_cuts) == {
        "{d[i][k]}", "{e[i][j][k]}", "{a[k], b[k][j]}",
    }
    assert not any("c[j]" in node for node in report.cg_nodes)

    # Figure 2(c): FR/PR match exactly; CPA within 5% (we model 1200).
    by_algo = {row.algorithm: row for row in report.rows}
    assert by_algo["FR-RA"].tmem_per_outer == PAPER_TMEM["FR-RA"]
    assert by_algo["PR-RA"].tmem_per_outer == PAPER_TMEM["PR-RA"]
    assert abs(by_algo["CPA-RA"].deviation_pct) < 5.0

    # The paper's register distributions, verbatim.
    assert by_algo["FR-RA"].distribution == (
        "a[k]=30 b[k][j]=1 d[i][k]=1 c[j]=20 e[i][j][k]=1"
    )
    assert by_algo["PR-RA"].distribution == (
        "a[k]=30 b[k][j]=1 d[i][k]=12 c[j]=20 e[i][j][k]=1"
    )
    assert by_algo["CPA-RA"].distribution == (
        "a[k]=16 b[k][j]=16 d[i][k]=30 c[j]=1 e[i][j][k]=1"
    )


# -- A1: cycles vs register budget --------------------------------------------


def _by_budget(kernel):
    points = budget_sweep(kernel, BUDGETS)
    return {(p.budget, p.algorithm): p.cycles for p in points}


def test_budget_sweep_fir():
    cycles = _by_budget(build_fir(n=128, taps=16))
    for algorithm in ("FR-RA", "PR-RA", "CPA-RA"):
        series = [cycles[(b, algorithm)] for b in BUDGETS]
        assert series == sorted(series, reverse=True), algorithm
    # CPA-RA never loses to FR-RA at any budget.
    for budget in BUDGETS:
        assert cycles[(budget, "CPA-RA")] <= cycles[(budget, "FR-RA")]


def test_budget_sweep_mat():
    cycles = _by_budget(build_mat(n=8))
    for budget in BUDGETS:
        assert cycles[(budget, "CPA-RA")] <= cycles[(budget, "FR-RA")]


# -- A2: the allocator gap grows with RAM latency -----------------------------


def _gaps(table):
    return [
        table[latency]["FR-RA"] - table[latency]["CPA-RA"]
        for latency in LATENCIES
    ]


def test_latency_sweep_example(example_kernel):
    gaps = _gaps(latency_sweep(example_kernel, LATENCIES))
    assert all(g >= 0 for g in gaps)
    assert gaps == sorted(gaps)  # advantage grows with L


def test_latency_sweep_fir():
    gaps = _gaps(latency_sweep(build_fir(n=128, taps=16), LATENCIES, budget=24))
    assert gaps == sorted(gaps)


# -- A3: saved accesses vs cycles ---------------------------------------------


def test_policy_comparison_example(policy, example_kernel):
    out = policy[example_kernel.name]
    # Knapsack is optimal among ALL-OR-NOTHING assignments, so it must
    # dominate FR-RA (the greedy 0/1 policy).  PR-RA and CPA-RA assign
    # partial coverage, which a 0/1 optimum may legitimately trail.
    assert out["KS-RA"][0] >= out["FR-RA"][0]
    # CPA-RA matches or beats every access-oriented policy on cycles.
    for algorithm in ("FR-RA", "PR-RA", "KS-RA", "NO-SR"):
        assert out["CPA-RA"][1] <= out[algorithm][1]


def test_policy_comparison_all_kernels(policy):
    for name, out in policy.items():
        assert out["CPA-RA"][1] <= out["NO-SR"][1], name


# -- A4: residency policies ---------------------------------------------------


def test_residency_fir():
    for p in residency_study(build_fir(n=64, taps=8)):
        assert p.opt <= p.lru
        assert p.opt <= p.pinned


def test_residency_strided_window():
    points = residency_study(build_decfir(n=32, taps=16, decimation=2))
    window = [p for p in points if "x[" in p.group and 1 < p.capacity < 16]
    assert window, "expected partial-capacity window points"
    # On a strided window LRU inserts dead values and evicts the window;
    # Belady's bypass must strictly beat it at intermediate capacities.
    assert any(p.opt < p.lru for p in window)


def test_residency_cyclic_sweep():
    points = residency_study(build_mat(n=8))
    b_rows = [p for p in points if p.group == "B[k][j]" and 1 < p.capacity < 64]
    # Cyclic sweep over B: LRU gets no reuse below full capacity.
    for p in b_rows:
        assert p.lru == 8 * 8 * 8  # every access misses
        assert p.pinned < p.lru


# -- A5/A6: architecture and planning-model ablations -------------------------


def test_dual_port_rams():
    kernel = build_mat(n=8)
    single = evaluate_kernel(kernel, budget=32, device=XCV1000, ram_ports=1)
    dual = evaluate_kernel(kernel, budget=32, device=XCV1000, ram_ports=2)
    for algorithm in ("FR-RA", "PR-RA", "CPA-RA"):
        # A second port never hurts.
        assert (
            dual.design(algorithm).total_cycles
            <= single.design(algorithm).total_cycles
        )
    # CPA-RA still beats FR-RA with dual ports: its win is cross-array.
    assert (
        dual.design("CPA-RA").total_cycles <= dual.design("FR-RA").total_cycles
    )


def test_multilevel_profile_ablation(example_kernel):
    paper_order = [
        m.group.name
        for m in rank_candidates(build_groups(example_kernel, multilevel=False))
    ]
    multi_order = [
        m.group.name
        for m in rank_candidates(build_groups(example_kernel, multilevel=True))
    ]
    # Paper-mode reproduces the paper's ranking; the multilevel model
    # demotes c[j] (its reuse is nearly free at one register already).
    assert paper_order == ["c[j]", "a[k]", "d[i][k]", "b[k][j]"]
    assert multi_order[0] != "c[j]"


# -- the worked example's pipeline stages -------------------------------------


def test_example_groups(example_groups):
    assert len(example_groups) == 5


def test_example_dfg(example_kernel, example_groups):
    assert len(build_dfg(example_kernel, example_groups)) == 7


def test_example_critical_graph(example_kernel, example_groups):
    dfg = build_dfg(example_kernel, example_groups)
    assert critical_graph(dfg, LatencyModel.realistic()).makespan > 0


def test_example_cuts(example_kernel, example_groups):
    dfg = build_dfg(example_kernel, example_groups)
    cg = critical_graph(dfg, LatencyModel.realistic())
    assert len(enumerate_cuts(cg, lambda _: True)) == 3


@pytest.mark.parametrize(
    "allocator_cls",
    [FullReuseAllocator, PartialReuseAllocator,
     CriticalPathAwareAllocator, KnapsackAllocator],
    ids=lambda c: c.name,
)
def test_example_allocators(example_kernel, example_groups, allocator_cls):
    allocation = allocator_cls().allocate(example_kernel, 64, example_groups)
    assert allocation.total_registers <= 64


def test_example_cycle_counter(example_kernel, example_groups):
    allocation = CriticalPathAwareAllocator().allocate(
        example_kernel, 64, example_groups
    )
    report = count_cycles(
        example_kernel, example_groups, allocation,
        Objective(LatencyModel.tmem(), ram_ports=1, overhead_per_iteration=0),
    )
    assert report.total_cycles > 0


def test_fir_groups():
    assert len(build_groups(build_fir())) == 3
