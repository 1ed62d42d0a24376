"""Integration tests: the full pipeline over (reduced-size) paper kernels."""

import numpy as np
import pytest
import residency_oracle

from repro.analysis.groups import build_groups
from repro.bench import residency_study
from repro.core.pipeline import PAPER_VERSIONS, evaluate_kernel
from repro.dfg import LatencyModel
from repro.kernels import (
    build_bic,
    build_decfir,
    build_fir,
    build_imi,
    build_mat,
    build_pat,
)

SMALL_KERNELS = [
    build_fir(n=32, taps=8),
    build_decfir(n=16, taps=8, decimation=2),
    build_mat(n=6),
    build_imi(pixels=16, frames=6),
    build_pat(text_len=64, pattern_len=16),
    build_bic(image=8, template=3),
]


@pytest.fixture(scope="module", params=SMALL_KERNELS, ids=lambda k: k.name)
def result(request):
    return evaluate_kernel(request.param, budget=20)


class TestPipelineRuns:
    def test_all_versions_present(self, result):
        assert set(result.designs) == set(PAPER_VERSIONS)

    def test_budget_respected(self, result):
        for design in result.designs.values():
            assert design.allocation.total_registers <= 20

    def test_versions_ordered_by_cycles(self, result):
        v1 = result.design("FR-RA").total_cycles
        v2 = result.design("PR-RA").total_cycles
        v3 = result.design("CPA-RA").total_cycles
        assert v2 <= v1
        assert v3 <= v1

    def test_slices_within_device(self, result):
        for design in result.designs.values():
            assert design.slices < 12288

    def test_clock_degrades_with_registers(self, result):
        v1 = result.design("FR-RA")
        v3 = result.design("CPA-RA")
        if (
            v3.allocation.total_registers
            > v1.allocation.total_registers
        ):
            assert v3.clock_ns >= v1.clock_ns

    def test_ram_accesses_positive(self, result):
        for design in result.designs.values():
            assert design.cycles.total_ram_accesses > 0


class TestLatencySensitivity:
    def test_cpa_gap_grows_with_latency(self):
        kern = build_fir(n=32, taps=8)
        gaps = []
        for latency in (1, 4):
            res = evaluate_kernel(
                kern,
                budget=12,
                model=LatencyModel.realistic(ram_latency=latency),
            )
            v1 = res.design("FR-RA").total_cycles
            v3 = res.design("CPA-RA").total_cycles
            gaps.append(v1 - v3)
        assert gaps[1] >= gaps[0]


class TestBenchHarnesses:
    def test_budget_sweep_monotone(self):
        from repro.bench import budget_sweep

        kern = build_fir(n=32, taps=8)
        points = budget_sweep(kern, [4, 8, 16], algorithms=("CPA-RA",))
        cycles = [p.cycles for p in points]
        assert cycles == sorted(cycles, reverse=True)

    def test_policy_comparison_contains_all(self):
        from repro.bench import policy_comparison

        kern = build_mat(n=6)
        out = policy_comparison(kern, budget=16)
        assert set(out) == {"FR-RA", "PR-RA", "CPA-RA", "KS-RA", "NO-SR"}
        # Knapsack saves at least as many accesses as any greedy.
        assert out["KS-RA"][0] >= out["FR-RA"][0]

    def test_residency_study_opt_wins(self):
        from repro.bench import residency_study

        points = residency_study(build_fir(n=16, taps=4))
        for p in points:
            assert p.opt <= p.lru


@pytest.mark.parametrize("kernel", SMALL_KERNELS, ids=lambda k: k.name)
def test_residency_study_matches_reference_simulators(kernel):
    """The Belady and LRU columns equal the one-access-at-a-time oracles."""
    grids = kernel.nest.meshgrids()
    streams = {
        group.name: np.broadcast_to(
            group.ref.flat_address_grid(grids), kernel.nest.trip_counts()
        ).reshape(-1)
        for group in build_groups(kernel)
    }
    for capacities in (None, [0, 1, 3, 64]):
        points = residency_study(kernel, capacities)
        assert points
        for p in points:
            stream = streams[p.group]
            label = f"{kernel.name} {p.group} capacity {p.capacity}"
            want_opt = residency_oracle.opt_trace(stream, p.capacity)[0]
            assert p.opt == int(want_opt.sum()), label
            want_lru = residency_oracle.lru_misses(stream, p.capacity)
            assert p.lru == int(want_lru.sum()), label
