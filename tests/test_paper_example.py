"""E3: the paper's worked example, number for number.

Section 4 of the paper walks the three allocators over the Figure 1 code
with a 64-register budget.  These tests pin every stated outcome:

* FR-RA assigns c and a fully, leaves 11 registers stranded (total 53);
* PR-RA gives the stranded 11 to d (``beta_d = 12``), total 64;
* CPA-RA picks cut {d} (full 30), then splits 30 across {a, b} -> 16/16;
* Figure 2(c)'s memory cycles: 1800 / 1560 / ~1184 per outer iteration.
"""

import pytest

from repro.analysis import build_groups
from repro.bench.example import PAPER_TMEM, build_example_kernel, figure2_report
from repro.core import (
    CriticalPathAwareAllocator,
    FullReuseAllocator,
    PartialReuseAllocator,
)
from repro.dfg import LatencyModel
from repro.sim import count_cycles
from repro.synth.estimate import Objective


@pytest.fixture(scope="module")
def kernel():
    return build_example_kernel()


@pytest.fixture(scope="module")
def groups(kernel):
    return build_groups(kernel)


class TestFRRA:
    def test_distribution(self, kernel, groups):
        alloc = FullReuseAllocator().allocate(kernel, 64, groups)
        assert alloc.registers == {
            "a[k]": 30, "b[k][j]": 1, "c[j]": 20, "d[i][k]": 1, "e[i][j][k]": 1,
        }

    def test_total_and_leftover(self, kernel, groups):
        alloc = FullReuseAllocator().allocate(kernel, 64, groups)
        assert alloc.total_registers == 53
        assert alloc.leftover == 11


class TestPRRA:
    def test_leftover_goes_to_d(self, kernel, groups):
        alloc = PartialReuseAllocator().allocate(kernel, 64, groups)
        assert alloc.registers["d[i][k]"] == 12
        assert alloc.total_registers == 64


class TestCPARA:
    def test_distribution(self, kernel, groups):
        alloc = CriticalPathAwareAllocator().allocate(kernel, 64, groups)
        assert alloc.registers == {
            "a[k]": 16, "b[k][j]": 16, "c[j]": 1, "d[i][k]": 30, "e[i][j][k]": 1,
        }
        assert alloc.total_registers == 64

    def test_cut_sequence_in_trace(self, kernel, groups):
        alloc = CriticalPathAwareAllocator().allocate(kernel, 64, groups)
        trace = "\n".join(alloc.trace)
        assert "pick {d[i][k]}" in trace
        assert "pick {a[k], b[k][j]}" in trace
        assert trace.index("pick {d[i][k]}") < trace.index("pick {a[k], b[k][j]}")


class TestFigure2Tmem:
    """Figure 2(c): memory cycles per outer iteration."""

    def _tmem_per_outer(self, kernel, groups, allocator):
        alloc = allocator.allocate(kernel, 64, groups)
        report = count_cycles(
            kernel, groups, alloc, Objective(LatencyModel.tmem(), 1, 0)
        )
        return report.in_loop_cycles / kernel.nest.loops[0].trip_count

    def test_fr_ra_matches_exactly(self, kernel, groups):
        assert self._tmem_per_outer(kernel, groups, FullReuseAllocator()) == 1800

    def test_pr_ra_matches_exactly(self, kernel, groups):
        assert self._tmem_per_outer(kernel, groups, PartialReuseAllocator()) == 1560

    def test_cpa_ra_close_to_paper(self, kernel, groups):
        tmem = self._tmem_per_outer(kernel, groups, CriticalPathAwareAllocator())
        paper = PAPER_TMEM["CPA-RA"]
        assert abs(tmem - paper) / paper < 0.05  # within 5% (we get 1200)

    def test_ordering(self, kernel, groups):
        fr = self._tmem_per_outer(kernel, groups, FullReuseAllocator())
        pr = self._tmem_per_outer(kernel, groups, PartialReuseAllocator())
        cpa = self._tmem_per_outer(kernel, groups, CriticalPathAwareAllocator())
        assert cpa < pr < fr


class TestFigure2Report:
    def test_report_structure(self):
        rep = figure2_report()
        assert len(rep.rows) == 3
        assert set(rep.structural_cuts) == {
            "{d[i][k]}", "{e[i][j][k]}", "{a[k], b[k][j]}",
        }
        assert "read c[j]" not in rep.cg_nodes

    def test_report_deviations_small(self):
        rep = figure2_report()
        for row in rep.rows:
            assert abs(row.deviation_pct) < 5.0
