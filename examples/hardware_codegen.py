#!/usr/bin/env python
"""From kernel to code: transform plan and behavioral VHDL.

Shows the code-generation back half of the flow on the paper's worked
example: the scalar-replacement plan (which register banks exist, what
fills them, what drains them) for each allocator, and the behavioral
VHDL entity emitted for the CPA-RA design — the artifact the paper fed
to Monet.

Run: ``python examples/hardware_codegen.py``
"""

from repro.analysis import build_groups
from repro.bench.example import build_example_kernel
from repro.codegen import generate_vhdl
from repro.core.pipeline import allocator_by_name
from repro.scalar.replace import plan_transform, render_transform

kernel = build_example_kernel()
groups = build_groups(kernel)

for name in ("FR-RA", "PR-RA", "CPA-RA"):
    allocation = allocator_by_name(name).allocate(kernel, 64, groups)
    plan = plan_transform(kernel, allocation, groups)
    print("=" * 72)
    print(render_transform(plan))
    print(
        f"/* totals: {plan.total_prologue_loads} prologue loads, "
        f"{plan.total_writebacks} write-backs */\n"
    )

print("=" * 72)
print("Behavioral VHDL for the CPA-RA design:\n")
allocation = allocator_by_name("CPA-RA").allocate(kernel, 64, groups)
print(generate_vhdl(kernel, allocation, groups))
