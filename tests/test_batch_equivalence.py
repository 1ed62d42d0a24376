"""Batched evaluation: a design point's iterations as pattern classes.

The cycle counter classifies every iteration into a joint hit/miss
pattern class and evaluates each class once with a multiplier.  The
classes are read off the evaluated design
(``design_for(query)[0].cycles.pattern_counts``): they must cover the
whole iteration space, and the steady state must dominate.  Bit-identity
of the batched path against the unbatched reference coverage is pinned
by ``test_fuzz_properties.py``.
"""

import pytest

from repro.explore import DesignQuery
from repro.explore.evaluate import design_for
from repro.kernels import KERNEL_FACTORIES, get_kernel


def _classes(query):
    design, _ = design_for(query)
    return design.cycles.pattern_counts


def test_iteration_classes_expose_steady_state():
    classes = _classes(DesignQuery(kernel="fir", allocator="CPA-RA", budget=64))
    total = sum(count for _, count, _ in classes)
    assert total == 1024 * 32
    # steady state dominates: the largest class covers most iterations
    assert max(count for _, count, _ in classes) > total // 2


@pytest.mark.parametrize("kernel", sorted(KERNEL_FACTORIES))
def test_pattern_classes_cover_space_per_kernel(kernel):
    classes = _classes(DesignQuery(kernel=kernel, allocator="PR-RA", budget=64))
    space = 1
    for trip in get_kernel(kernel).nest.trip_counts():
        space *= trip
    assert sum(count for _, count, _ in classes) == space
