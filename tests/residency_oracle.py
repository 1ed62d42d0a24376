"""Reference residency simulators: the straightforward dict/heap code, test-only.

These are the register-file simulators written the plain way, one access
at a time: an ``OrderedDict`` LRU, a touched-set pinned file, Belady
with bypass as a ``max`` scan over the resident next uses, and plain
Belady (no bypass, :func:`belady_misses`), the bound the property tests
hold the bypassing policy to.  They share
nothing with :mod:`repro.sim.residency` except :func:`next_uses`.
:func:`trace_rows` is the single-period row memo (the first batched
trace): rows with a previously seen normalized signature replay their
recorded trace.  The differential tests in ``test_sim_residency.py``,
``test_trace_engine.py``, ``test_stack_distances.py`` and the coverage
oracle (``coverage_oracle.py``) pin the production array kernels,
period-ladder replay and one-pass stack distances against them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.sim.residency import next_uses

__all__ = [
    "lru_misses",
    "pinned_misses",
    "belady_misses",
    "opt_trace",
    "trace_rows",
]

#: Normalized stand-ins with no valid absolute counterpart: a next use
#: beyond the end of the stream, and an eviction that did not happen.
_NO_NEXT_USE = np.int64(2**62)
_NO_EVICTION = np.int64(-(2**62))


def lru_misses(stream, capacity: int) -> np.ndarray:
    """LRU miss flags, one ``OrderedDict`` step per access."""
    addresses = np.asarray(stream).reshape(-1)
    misses = np.ones(len(addresses), dtype=bool)
    if capacity == 0:
        return misses
    resident: OrderedDict[int, None] = OrderedDict()
    for position, address in enumerate(addresses.tolist()):
        if address in resident:
            resident.move_to_end(address)
            misses[position] = False
        else:
            resident[address] = None
            if len(resident) > capacity:
                resident.popitem(last=False)
    return misses


def pinned_misses(stream, pinned) -> np.ndarray:
    """Pinned-file miss flags: a pinned address misses on first touch only."""
    addresses = np.asarray(stream).reshape(-1)
    misses = np.ones(len(addresses), dtype=bool)
    touched: set[int] = set()
    for position, address in enumerate(addresses.tolist()):
        if address in pinned:
            if address in touched:
                misses[position] = False
            else:
                touched.add(address)
    return misses


def belady_misses(stream, capacity: int) -> np.ndarray:
    """Belady miss flags without bypass: every miss is installed.

    On a miss with a full file the resident value with the farthest
    next use (a plain ``max`` scan) is evicted, even when the newcomer's
    own next use is farther still.
    """
    addresses = np.asarray(stream).reshape(-1)
    n = len(addresses)
    misses = np.ones(n, dtype=bool)
    if capacity == 0:
        return misses
    nxt = next_uses(addresses).tolist()
    resident: dict[int, int] = {}
    for position, address in enumerate(addresses.tolist()):
        if address in resident:
            misses[position] = False
        elif len(resident) >= capacity:
            del resident[max(resident, key=resident.__getitem__)]
        resident[address] = nxt[position]
    return misses


def _empty_trace(n: int):
    return (
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
        np.full(n, -1, dtype=np.int64),
        np.zeros(n, dtype=bool),
    )


def _trace_span(addresses, nxt, capacity, start, stop, resident, out) -> None:
    """Belady with bypass over ``[start, stop)``; mutates ``resident``.

    The victim is the resident value with the farthest next use (a plain
    ``max`` scan; next uses are unique, so there are no ties).
    """
    misses, inserted, evicted, freed = out
    n = len(addresses)
    for position in range(start, stop):
        address = int(addresses[position])
        mine = int(nxt[position])
        if address in resident:
            misses[position] = False
            if mine >= n:
                del resident[address]  # last use: free the register
                freed[position] = True
            else:
                resident[address] = mine
            continue
        if mine >= n:
            continue  # never used again: bypass
        if len(resident) < capacity:
            resident[address] = mine
            inserted[position] = True
            continue
        victim = max(resident, key=resident.__getitem__)
        if resident[victim] > mine:
            del resident[victim]
            resident[address] = mine
            inserted[position] = True
            evicted[position] = victim
        # else: bypass (victim is more useful than we are)


def opt_trace(stream, capacity: int, row_len: "int | None" = None):
    """``(misses, inserted, evicted, freed)`` of Belady with bypass.

    With a ``row_len`` dividing the stream length the rows go through
    :func:`trace_rows`; otherwise every access is simulated.
    """
    addresses = np.asarray(stream).reshape(-1)
    n = len(addresses)
    out = _empty_trace(n)
    if capacity == 0 or n == 0:
        return out
    nxt = next_uses(addresses)
    if row_len and 0 < row_len < n and n % row_len == 0:
        trace_rows(addresses, nxt, capacity, row_len, {}, out)
    else:
        _trace_span(addresses, nxt, capacity, 0, n, {}, out)
    return out


def trace_rows(addresses, nxt, capacity, row_len, resident, out) -> None:
    """Row-batched Belady: steady rows replay a recorded trace.

    A row's behaviour is a pure function of its *normalized signature*:
    the pre-row register state, the row's addresses and the row's
    next-use positions, all taken relative to the row's base address and
    start position (Belady compares next-use positions, so uniform
    shifts cancel).
    """
    misses, inserted, evicted, freed = out
    n = len(addresses)
    rows = n // row_len
    by_row = addresses.reshape(rows, row_len).astype(np.int64)
    bases = by_row[:, :1]
    address_rel = by_row - bases
    next_by_row = nxt.reshape(rows, row_len)
    row_starts = np.arange(rows, dtype=np.int64)[:, None] * row_len
    next_rel = np.where(next_by_row >= n, _NO_NEXT_USE, next_by_row - row_starts)
    memo: dict[tuple, tuple] = {}
    for row in range(rows):
        start = row * row_len
        stop = start + row_len
        base = int(bases[row, 0])
        signature = (
            tuple(sorted((a - base, u - start) for a, u in resident.items())),
            address_rel[row].tobytes(),
            next_rel[row].tobytes(),
        )
        replay = memo.get(signature)
        if replay is None:
            _trace_span(addresses, nxt, capacity, start, stop, resident, out)
            memo[signature] = (
                misses[start:stop].copy(),
                inserted[start:stop].copy(),
                np.where(
                    evicted[start:stop] >= 0,
                    evicted[start:stop] - base,
                    _NO_EVICTION,
                ),
                freed[start:stop].copy(),
                tuple(sorted((a - base, u - start) for a, u in resident.items())),
            )
            continue
        miss_row, insert_row, eviction_rel, freed_row, post_state = replay
        misses[start:stop] = miss_row
        inserted[start:stop] = insert_row
        evicted[start:stop] = np.where(
            eviction_rel != _NO_EVICTION, eviction_rel + base, -1
        )
        freed[start:stop] = freed_row
        resident.clear()
        resident.update((a + base, u + start) for a, u in post_state)
