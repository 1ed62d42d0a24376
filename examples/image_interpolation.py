#!/usr/bin/env python
"""IMI end to end: functional verification plus hardware comparison.

The scenario the paper's introduction motivates: an image-processing
kernel whose working set dwarfs the register file.  This example

1. builds the IMI kernel (blend two source tiles into several
   intermediate frames),
2. executes it functionally on real pixel data and verifies the result
   against an independent numpy implementation,
3. re-executes it *through the allocated register files* and shows that
   the outputs are bit-identical while the RAM traffic drops,
4. compares the three allocators' hardware designs.

Run: ``python examples/image_interpolation.py``
"""

import numpy as np

from repro import evaluate_kernel, run_kernel, run_scalar_replaced
from repro.analysis import build_groups
from repro.kernels import build_imi, imi_reference

kernel = build_imi(pixels=64, frames=32)
print(f"kernel: {kernel.description}")

# -- Real inputs: a gradient tile and a noise tile ---------------------------
rng = np.random.default_rng(2005)
img_a = np.linspace(0, 255, 64, dtype=np.int64)
img_b = rng.integers(0, 256, size=64, dtype=np.int64)
w1 = np.linspace(0, 256, 32, dtype=np.int64)
w2 = 256 - w1
inputs = {"imgA": img_a, "imgB": img_b, "w1": w1, "w2": w2}

golden = run_kernel(kernel, inputs)
expected = imi_reference(img_a, img_b, w1, w2)
assert np.array_equal(golden["out"], expected)
print("functional check vs numpy reference: OK")

# -- Through the register files ----------------------------------------------
groups = build_groups(kernel)
result = evaluate_kernel(kernel, budget=64)
naive_traffic = kernel.total_memory_accesses()
print(f"\nnaive RAM traffic: {naive_traffic} accesses")
for algorithm in ("FR-RA", "PR-RA", "CPA-RA"):
    design = result.design(algorithm)
    run = run_scalar_replaced(kernel, groups, design.allocation, inputs)
    assert np.array_equal(run.memory["out"], expected), algorithm
    traffic = sum(run.ram_accesses.values())
    print(
        f"  {algorithm:7s} [{design.allocation.distribution()}]\n"
        f"          traffic {traffic:6d} accesses "
        f"({100 * (1 - traffic / naive_traffic):+.1f}%), outputs identical"
    )

# -- Hardware comparison -------------------------------------------------------
baseline = result.design("FR-RA")
print("\nhardware designs (XCV1000, 64-register budget):")
for algorithm in ("FR-RA", "PR-RA", "CPA-RA"):
    design = result.design(algorithm)
    print(
        f"  {algorithm:7s} {design.total_cycles:6d} cycles @ "
        f"{design.clock_ns:.1f} ns = {design.wall_clock_us:8.1f} us "
        f"(x{design.speedup_over(baseline):.2f})"
    )
print(
    "\nNote the PR-RA trap the paper describes: it dumps the spare "
    "registers into one image while the other still misses every "
    "iteration, so cycles do not move but the clock pays for the "
    "partial-coverage control. CPA-RA splits the registers across the "
    "cut {imgA, imgB} so both inputs of the blend arrive from registers "
    "in the covered iterations."
)
