"""Reference cycle objective: the straightforward classifier, test-only.

This is the cycle counter written the plain way.  The channel list is
rebuilt for every count from the masks themselves, the pattern grid is
``int64`` and built with shifts, each distinct pattern gets a fresh hit
map and a fresh schedule, and the anchor search runs one full count per
combination.  It shares nothing with :mod:`repro.sim.cycles` except the
coverage masks, the DFG and the list scheduler.  The differential tests
in ``test_cycle_oracle.py`` pin the production counter's packed planes,
cost tables and shared anchor base against it.
"""

from __future__ import annotations

import numpy as np

from repro.dfg.build import build_dfg
from repro.dfg.nodes import ReadNode, WriteNode
from repro.scalar.coverage import GroupCoverage
from repro.sim.cycles import CycleReport
from repro.sim.scheduler import schedule_iteration
from repro.synth.estimate import classify_operand_storage

__all__ = ["reference_best_anchors", "reference_coverages", "reference_count_cycles"]


def reference_coverages(kernel, groups):
    """Fresh coverage computers, shared with no context."""
    return {g.name: GroupCoverage(kernel, g) for g in groups}


def reference_count_cycles(
    kernel,
    groups,
    allocation,
    model,
    ram_ports=1,
    overhead_per_iteration=0,
    anchors=None,
    coverages=None,
):
    """The full :class:`CycleReport` of one count, computed from scratch."""
    anchors = anchors or {}
    coverages = coverages or reference_coverages(kernel, groups)
    dfg = build_dfg(kernel, groups)
    shape = kernel.nest.trip_counts()

    channels = []  # (group, kind, miss grid)
    writebacks = 0
    ram_accesses = {}
    for group in groups:
        result = coverages[group.name].result(
            allocation.registers_for(group.name),
            anchor=anchors.get(group.name, "low"),
        )
        ram_accesses[group.name] = (
            int(result.read_miss.sum())
            + int(result.write_miss.sum())
            + result.writeback_stores
        )
        writebacks += result.writeback_stores
        active_read = any(
            not s.is_write and s.site_id not in group.forwarded
            for s in group.sites
        )
        if result.read_miss.any() or active_read:
            channels.append((group.name, "read", result.read_miss))
        if any(s.is_write for s in group.sites):
            channels.append((group.name, "write", result.write_miss))

    pattern = np.zeros(shape, dtype=np.int64)
    for bit, (_, _, miss) in enumerate(channels):
        pattern |= miss.astype(np.int64) << bit
    counts = np.bincount(pattern.reshape(-1), minlength=1)

    node_channel = {}
    for node in dfg.nodes:
        if isinstance(node, ReadNode):
            kind = "read"
        elif isinstance(node, WriteNode):
            kind = "write"
        else:
            continue
        for bit, (group_name, ch_kind, _) in enumerate(channels):
            if ch_kind == kind and group_name == node.group_name:
                node_channel[node.uid] = bit
                break

    in_loop = 0
    memory_cycles = 0
    rows = []
    for value, count in enumerate(counts.tolist()):
        if count == 0:
            continue
        hit = {
            uid: not bool((value >> bit) & 1)
            for uid, bit in node_channel.items()
        }
        schedule = schedule_iteration(dfg, model, hit, ram_ports)
        cost = schedule.makespan + overhead_per_iteration
        in_loop += cost * count
        memory_cycles += schedule.memory_cycles * count
        misses = tuple(
            f"{channels[bit][0]}:{channels[bit][1]}"
            for bit in range(len(channels))
            if (value >> bit) & 1
        )
        rows.append((misses, count, cost))
    assert sum(count for _, count, _ in rows) == pattern.size

    epilogue = writebacks * model.ram_latency
    return CycleReport(
        in_loop_cycles=in_loop,
        epilogue_cycles=epilogue,
        memory_cycles=memory_cycles + epilogue,
        ram_accesses=ram_accesses,
        pattern_counts=tuple(rows),
    )


def reference_best_anchors(
    kernel,
    groups,
    allocation,
    model,
    ram_ports=1,
    overhead_per_iteration=0,
    coverages=None,
):
    """The anchor search as one full reference count per combination.

    Candidates are the partially covered pinned groups (at most four);
    the first combination in mask order with the fewest total cycles
    wins.
    """
    coverages = coverages or reference_coverages(kernel, groups)
    candidates = [
        g.name
        for g in groups
        if classify_operand_storage(
            g, coverages[g.name], allocation.registers_for(g.name)
        ) == "both"
        and coverages[g.name].kind == "pinned"
    ][:4]
    best = None
    for mask in range(1 << len(candidates)):
        anchors = {
            name: ("high" if (mask >> bit) & 1 else "low")
            for bit, name in enumerate(candidates)
        }
        report = reference_count_cycles(
            kernel, groups, allocation, model, ram_ports,
            overhead_per_iteration, anchors, coverages,
        )
        if best is None or report.total_cycles < best.total_cycles:
            best = report
    return best
