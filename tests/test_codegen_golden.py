"""Golden-file tests for the VHDL backend.

The expected output for two (kernel, allocator) pairs is committed under
``tests/golden/``; any codegen change that alters the emitted VHDL fails
here loudly.  Comparison is over normalized text (trailing whitespace
and trailing blank lines stripped) so cosmetic whitespace churn does not
mask real regressions.

To regenerate after an *intentional* change::

    PYTHONPATH=src python -m repro vhdl fir --algorithm CPA-RA \
        > tests/golden/fir_cpa_ra.vhdl
    PYTHONPATH=src python -m repro vhdl mat --algorithm PR-RA \
        > tests/golden/mat_pr_ra.vhdl
"""

from pathlib import Path

import pytest

from repro.codegen import generate_vhdl
from repro.core.pipeline import allocator_by_name
from repro.kernels import get_kernel

GOLDEN_DIR = Path(__file__).parent / "golden"
PAIRS = (("fir", "CPA-RA"), ("mat", "PR-RA"))


def normalize(text: str) -> str:
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def golden_path(kernel_name: str, algorithm: str) -> Path:
    tag = algorithm.lower().replace("-", "_")
    return GOLDEN_DIR / f"{kernel_name}_{tag}.vhdl"


@pytest.mark.pinned
@pytest.mark.parametrize("kernel_name,algorithm", PAIRS)
def test_vhdl_matches_golden(kernel_name, algorithm):
    kernel = get_kernel(kernel_name)
    allocation = allocator_by_name(algorithm).allocate(kernel, 64)
    generated = normalize(generate_vhdl(kernel, allocation))
    expected = normalize(golden_path(kernel_name, algorithm).read_text())
    assert generated == expected, (
        f"VHDL for {kernel_name}/{algorithm} diverged from "
        f"{golden_path(kernel_name, algorithm)}; if the change is "
        f"intentional, regenerate the golden file (see module docstring)"
    )


@pytest.mark.parametrize("kernel_name,algorithm", PAIRS)
def test_golden_files_contain_entity(kernel_name, algorithm):
    """The committed goldens are real entities, not truncated artifacts."""
    text = golden_path(kernel_name, algorithm).read_text()
    tag = algorithm.lower().replace("-", "_")
    assert f"entity {kernel_name}_{tag} is" in text
    assert "end architecture behavioral;" in text
