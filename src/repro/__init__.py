"""repro: register allocation in the presence of scalar replacement.

A from-scratch reproduction of Baradaran & Diniz, *"A Register Allocation
Algorithm in the Presence of Scalar Replacement for Fine-Grain
Configurable Architectures"* (DATE 2005): the FR-RA / PR-RA / CPA-RA
allocators, the data-reuse analysis and critical-graph machinery they
need, and a simulated FPGA backend (cycle-exact memory model plus
area/clock estimators) that regenerates the paper's Table 1 and Figure 2.

Quickstart::

    from repro import KernelBuilder, INT16, evaluate_kernel

    b = KernelBuilder("demo")
    i = b.loop("i", 64); j = b.loop("j", 16)
    x = b.array("x", (79,), INT16)
    c = b.array("c", (16,), INT16)
    y = b.array("y", (64,), INT16, role="output")
    b.assign(y[i], y[i] + c[j] * x[i + j])
    result = evaluate_kernel(b.build(), budget=24)
    print(result.design("CPA-RA").allocation)

Subpackages: :mod:`repro.ir` (affine loop-nest IR), :mod:`repro.analysis`
(data-reuse analysis), :mod:`repro.dfg` (data-flow/critical graphs),
:mod:`repro.core` (the allocators), :mod:`repro.scalar` (coverage),
:mod:`repro.sim` (interpreters and cycle counting), :mod:`repro.hw` and
:mod:`repro.synth` (device models and estimators), :mod:`repro.kernels`
(the six benchmarks), :mod:`repro.bench` (Table 1 / Figure 2 harnesses).
"""

from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "BIT",
    "CriticalPathAwareAllocator",
    "Device",
    "FullReuseAllocator",
    "HardwareDesign",
    "INT8",
    "INT16",
    "INT32",
    "Kernel",
    "KernelBuilder",
    "KnapsackAllocator",
    "LatencyModel",
    "NaiveAllocator",
    "PAPER_REGISTER_BUDGET",
    "PartialReuseAllocator",
    "ReproError",
    "UINT8",
    "UINT16",
    "UINT32",
    "XCV1000",
    "build_design",
    "build_dfg",
    "build_groups",
    "count_cycles",
    "critical_graph",
    "enumerate_cuts",
    "evaluate_kernel",
    "figure2_report",
    "generate_table1",
    "get_kernel",
    "paper_kernels",
    "pretty",
    "rank_candidates",
    "random_inputs",
    "render_table1",
    "run_kernel",
    "run_scalar_replaced",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: a subpackage loads on the first use of one of its names,
    # so ``import repro`` stays free of numpy.  Plain import statements
    # keep every edge visible to the evaluation cone's AST import graph.
    if name in ("build_groups", "rank_candidates"):
        from repro import analysis as module
    elif name in ("figure2_report", "generate_table1", "render_table1"):
        from repro import bench as module
    elif name in (
        "Allocation", "CriticalPathAwareAllocator", "FullReuseAllocator",
        "KnapsackAllocator", "NaiveAllocator", "PartialReuseAllocator",
        "evaluate_kernel",
    ):
        from repro import core as module
    elif name in ("LatencyModel", "build_dfg", "critical_graph",
                  "enumerate_cuts"):
        from repro import dfg as module
    elif name in ("XCV1000", "Device"):
        from repro import hw as module
    elif name in (
        "BIT", "INT8", "INT16", "INT32", "UINT8", "UINT16", "UINT32",
        "Kernel", "KernelBuilder", "pretty",
    ):
        from repro import ir as module
    elif name in ("PAPER_REGISTER_BUDGET", "get_kernel", "paper_kernels"):
        from repro import kernels as module
    elif name in ("count_cycles", "random_inputs", "run_kernel",
                  "run_scalar_replaced"):
        from repro import sim as module
    elif name in ("HardwareDesign", "build_design"):
        from repro import synth as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
