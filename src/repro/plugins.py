"""The registered kernel and allocator names, importable without numpy.

Commands that evaluate nothing (``repro list``, ``--help``, an all-hit
``repro explore``) validate names and fill defaults from these tables
alone, so they never load the IR, the kernel builders or the
allocators.  The tables play no part in cache keys: every entry carries
one code stamp over the whole evaluation cone
(:mod:`repro.explore.versions`).  Each table maps a name to the module that
implements it, in the order of the live dispatch maps
(:data:`repro.kernels.registry.KERNEL_FACTORIES`,
``repro.core.pipeline._ALLOCATORS``); a test keeps the two in step.
Kernels registered into the live map at run time are not listed here:
kernel-name checks fall back to the live map for a name this table lacks.
"""

from __future__ import annotations

__all__ = ["ALLOCATOR_MODULES", "KERNEL_MODULES", "PAPER_REGISTER_BUDGET"]

#: The register budget the paper imposes on every implementation.
PAPER_REGISTER_BUDGET = 64

#: Kernel name -> the module of its builder.
KERNEL_MODULES = {
    "fir": "repro.kernels.fir",
    "decfir": "repro.kernels.decfir",
    "mat": "repro.kernels.mat",
    "imi": "repro.kernels.imi",
    "pat": "repro.kernels.pat",
    "bic": "repro.kernels.bic",
}

#: Allocator tag -> the module of its implementation.
ALLOCATOR_MODULES = {
    "FR-RA": "repro.core.frra",
    "PR-RA": "repro.core.prra",
    "CPA-RA": "repro.core.cpara",
    "KS-RA": "repro.core.knapsack",
    "NO-SR": "repro.core.naive",
    "OPT-RA": "repro.core.optra",
}
