"""Property tests of the iteration-class partition.

:class:`~repro.scalar.coverage.IterationClasses` splits a kernel's
iterations once into classes on which every coverage mask is constant,
and the whole cycle objective runs on per-class vectors.  These tests
pin the partition against the per-iteration oracles, on the registered
kernels (tier-1) and on the 120-seed fuzz corpus (``-m oracle``):

* the class weights sum to the iteration count;
* every canonical result, at every register count in ``0..beta+1``,
  under both anchors and as the meet, expands to exactly the masks of
  ``coverage_oracle.py``;
* ``count_cycles`` and ``best_anchors`` reports equal
  ``cycle_oracle.py``'s, also when the counter is handed the oracle's
  per-iteration masks and has to gather them onto the partition;
* the verifying gather rejects a partition in which two classes with
  different signatures were merged.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import coverage_oracle
from cycle_oracle import reference_best_anchors, reference_count_cycles
from fuzz_kernels import random_case
from repro.analysis.groups import build_groups
from repro.core.allocation import Allocation
from repro.dfg.latency import LatencyModel
from repro.errors import AnalysisError, SimulationError
from repro.explore.context import EvalContext
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.scalar.coverage import GroupCoverage, IterationClasses, coverage_for
from repro.sim.cycles import best_anchors, count_cycles
from repro.synth.estimate import Objective, classify_operand_storage

MODEL = LatencyModel.realistic(ram_latency=2)
OBJECTIVE = Objective(MODEL, ram_ports=1, overhead_per_iteration=1)
REGISTERED = sorted(KERNEL_FACTORIES)


def check_partition(kernel, groups):
    """The canonical coverage map of ``kernel``, its partition checked."""
    coverages = coverage_for(kernel, groups)
    classes = coverages.classes
    assert classes.size == int(np.prod(kernel.nest.trip_counts()))
    assert int(classes.weights.sum()) == classes.size
    assert (classes.weights > 0).all()
    assert classes.inverse.dtype.itemsize <= 4
    assert classes.inverse.shape == (classes.size,)
    # Each representative is the first iteration of its own class.
    assert np.array_equal(
        classes.inverse[classes.representatives], np.arange(classes.count)
    )
    return coverages


def _assert_same_masks(got, want, classes, label):
    assert got.classes is classes, label
    for name in ("read_miss", "write_miss", "retain"):
        left, right = getattr(got, name), getattr(want, name)
        if left is None or right is None:
            assert left is None and right is None, f"{label}: {name}"
        else:
            assert np.array_equal(left, right), f"{label}: {name}"
    for name in ("ram_reads", "write_misses", "writeback_stores", "kind",
                 "covered", "region_level"):
        assert getattr(got, name) == getattr(want, name), f"{label}: {name}"
    # The oracle's grids gather onto the partition, to the class masks.
    for mine, theirs in zip(got.class_masks(classes), want.class_masks(classes)):
        assert np.array_equal(mine, theirs), label


def check_expansions(kernel, groups, coverages):
    """Every canonical result expands to the oracle's masks."""
    classes = coverages.classes
    for group in groups:
        fast = coverages[group.name]
        slow = coverage_oracle.ReferenceCoverage(kernel, group)
        for registers in range(fast.beta + 2):
            label = f"{kernel.name}:{group.name} r={registers}"
            low = slow.result(registers, anchor="low")
            # Only pinned coverage depends on the anchor.
            high = (
                slow.result(registers, anchor="high")
                if slow.kind == "pinned" else low
            )
            _assert_same_masks(fast.result(registers, "low"), low, classes,
                               f"{label} low")
            _assert_same_masks(fast.result(registers, "high"), high, classes,
                               f"{label} high")
            meet = fast.meet(registers)
            assert meet.classes is classes, label
            assert np.array_equal(meet.read_miss, low.read_miss & high.read_miss)
            assert np.array_equal(
                meet.write_miss, low.write_miss & high.write_miss
            )
            assert meet.writeback_stores == low.writeback_stores, label


def _allocation(kernel, groups, registers):
    registers = {g.name: registers.get(g.name, 1) for g in groups}
    return Allocation(
        kernel_name=kernel.name,
        algorithm="ORACLE",
        budget=sum(registers.values()),
        registers=registers,
        betas={g.name: g.full_registers for g in groups},
    )


class _Foreign(dict):
    """A coverage map whose partition was swapped for ``classes``."""

    def __init__(self, coverages, classes):
        super().__init__(coverages)
        self.classes = classes


def sample_registers(groups, count, seed):
    """The all-mandatory and all-full vectors plus ``count`` random ones."""
    rng = random.Random(seed)
    vectors = [
        {g.name: 1 for g in groups},
        {g.name: g.full_registers for g in groups},
    ]
    for _ in range(count):
        vectors.append(
            {g.name: rng.randint(1, g.full_registers) for g in groups}
        )
    return vectors


def check_reports(kernel, groups, vectors):
    """Counts and anchor searches equal the reference counter's, on the
    canonical coverage and on the oracle's gathered masks."""
    context = EvalContext()
    dfg = context.dfg(kernel, groups)
    coverages = context.coverages(kernel, groups)
    foreign = coverage_oracle.reference_coverages(kernel, groups)
    for registers in vectors:
        allocation = _allocation(kernel, groups, registers)
        want = reference_count_cycles(
            kernel, groups, allocation, MODEL, 1, 1
        )
        for given in (None, foreign):
            got = count_cycles(
                kernel, groups, allocation, OBJECTIVE, coverages=given,
                context=context,
            )
            assert got == want, (kernel.name, registers, given is None)
        candidates = [
            g.name
            for g in groups
            if classify_operand_storage(
                g, coverages[g.name], registers[g.name]
            ) == "both"
            and coverages[g.name].kind == "pinned"
        ][:4]
        assert best_anchors(
            kernel, groups, allocation, OBJECTIVE, dfg, coverages,
            candidates, context,
        ) == reference_best_anchors(kernel, groups, allocation, MODEL, 1, 1)


@pytest.mark.parametrize("name", REGISTERED)
def test_registered_kernel_classes(name):
    kernel = get_kernel(name)
    groups = build_groups(kernel)
    coverages = check_partition(kernel, groups)
    check_expansions(kernel, groups, coverages)
    check_reports(kernel, groups, sample_registers(groups, 2, seed=len(name)))


def test_registered_class_counts():
    """The partition is as coarse as the masks allow: 64-512 classes."""
    counts = {}
    for name in REGISTERED:
        kernel = get_kernel(name)
        counts[name] = coverage_for(kernel, build_groups(kernel)).classes.count
    assert counts == {
        "bic": 135, "decfir": 128, "fir": 64, "imi": 128, "mat": 512,
        "pat": 128,
    }


@pytest.mark.slow
@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(120))
def test_fuzz_kernel_classes(seed):
    case = random_case(seed)
    coverages = check_partition(case.kernel, case.groups)
    check_expansions(case.kernel, case.groups, coverages)
    check_reports(
        case.kernel, case.groups, sample_registers(case.groups, 2, seed=seed)
    )


def _merged(classes, keep, drop):
    """A copy of ``classes`` in which class ``drop`` joined ``keep``."""
    representatives, weights, inverse = (
        classes.representatives, classes.weights, classes.inverse
    )
    merged = IterationClasses(classes.shape)
    weights = weights.copy()
    weights[keep] += weights[drop]
    weights[drop] = 0
    merged.__dict__["_partition"] = (
        representatives,
        weights,
        np.where(inverse == drop, keep, inverse).astype(inverse.dtype),
    )
    return merged


def test_gather_rejects_merged_classes():
    """Merge two classes whose signatures differ: gathering a mask that
    tells them apart must raise, and so must a count over it."""
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    coverages = coverage_for(kernel, groups)
    classes = coverages.classes
    result = coverages["c[j]"].result(12)
    read, _ = result.class_masks(classes)
    keep = int(np.flatnonzero(read)[0])
    drop = int(np.flatnonzero(~read)[0])
    merged = _merged(classes, keep, drop)
    assert np.array_equal(classes.gather(result.read_miss), read)
    with pytest.raises(SimulationError):
        merged.gather(result.read_miss)
    with pytest.raises(SimulationError):
        count_cycles(
            kernel, groups, _allocation(kernel, groups, {"c[j]": 12}),
            Objective(MODEL, ram_ports=1, overhead_per_iteration=0),
            coverages=_Foreign(coverages, merged),
        )


def test_partition_is_closed_once_built():
    kernel = get_kernel("fir")
    groups = build_groups(kernel)
    coverages = coverage_for(kernel, groups)
    assert coverages.classes.count == 64
    with pytest.raises(AnalysisError):
        GroupCoverage(kernel, groups[0], coverages.classes)
