"""Tests for pipeline options and error paths."""

import pytest

from repro.core import PAPER_VERSIONS, evaluate_kernel
from repro.dfg import LatencyModel
from repro.errors import (
    AllocationError,
    AnalysisError,
    BindingError,
    IRError,
    ReproError,
    SimulationError,
    SynthesisError,
    ValidationError,
)
from repro.hw import VIRTEX2_XC2V1000, XCV1000
from repro.kernels import build_fir


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [IRError, ValidationError, AnalysisError, AllocationError,
         SimulationError, SynthesisError, BindingError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_validation_is_ir_error(self):
        assert issubclass(ValidationError, IRError)


class TestPipelineOptions:
    @pytest.fixture(scope="class")
    def kernel(self):
        return build_fir(n=32, taps=8)

    def test_default_versions(self, kernel):
        result = evaluate_kernel(kernel, budget=12)
        assert tuple(result.designs) == PAPER_VERSIONS

    def test_custom_algorithms(self, kernel):
        result = evaluate_kernel(
            kernel, budget=12, algorithms=("NO-SR", "KS-RA")
        )
        assert set(result.designs) == {"NO-SR", "KS-RA"}

    def test_missing_design_raises(self, kernel):
        result = evaluate_kernel(kernel, budget=12, algorithms=("FR-RA",))
        with pytest.raises(ReproError):
            result.design("CPA-RA")

    def test_device_override_changes_clock(self, kernel):
        xcv = evaluate_kernel(kernel, budget=12, device=XCV1000)
        v2pro = evaluate_kernel(kernel, budget=12, device=VIRTEX2_XC2V1000)
        assert (
            v2pro.design("FR-RA").clock_ns < xcv.design("FR-RA").clock_ns
        )

    def test_model_override_changes_cycles(self, kernel):
        slow = evaluate_kernel(
            kernel, budget=12, model=LatencyModel.realistic(ram_latency=4)
        )
        fast = evaluate_kernel(
            kernel, budget=12, model=LatencyModel.realistic(ram_latency=1)
        )
        assert (
            slow.design("FR-RA").total_cycles
            > fast.design("FR-RA").total_cycles
        )

    def test_dual_ports_never_slower(self, kernel):
        single = evaluate_kernel(kernel, budget=12, ram_ports=1)
        dual = evaluate_kernel(kernel, budget=12, ram_ports=2)
        for algorithm in PAPER_VERSIONS:
            assert (
                dual.design(algorithm).total_cycles
                <= single.design(algorithm).total_cycles
            )

    def test_baseline_property(self, kernel):
        result = evaluate_kernel(kernel, budget=12)
        assert result.baseline is result.design("FR-RA")


class TestOneObjective:
    """OPT-RA searches the objective the design is reported under.

    ``evaluate_kernel`` resolves its model, RAM ports and overhead into
    one objective that both the allocator and ``build_design`` receive,
    so the trace's certified optimum is the reported cycle count under
    any setup, not only the default one.
    """

    SETUPS = {
        "ram-latency-4": dict(model=LatencyModel.realistic(ram_latency=4)),
        "no-overhead": dict(overhead_per_iteration=0),
        "dual-port-ram": dict(ram_ports=2),
    }

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @pytest.mark.parametrize(
        "name, budget", [("example", 16), ("fir", 32), ("imi", 32)]
    )
    def test_certified_optimum_is_the_reported_cycles(
        self, name, budget, setup, example_kernel
    ):
        import re

        from repro.kernels import get_kernel

        kernel = example_kernel if name == "example" else get_kernel(name)
        design = evaluate_kernel(
            kernel, budget=budget, algorithms=("OPT-RA",),
            **self.SETUPS[setup],
        ).design("OPT-RA")
        (line,) = [
            text for text in design.allocation.trace
            if text.startswith("opt-ra: certified optimum")
        ]
        certified = int(re.search(r"optimum (\d+) cycles", line).group(1))
        assert certified == design.total_cycles
        assert design.allocation.lower_bound == design.total_cycles
