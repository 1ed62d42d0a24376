"""Property-based tests for the residency simulators (hypothesis)."""

import numpy as np
import residency_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.residency import lru_misses, opt_trace, pinned_misses

streams = st.lists(st.integers(0, 9), min_size=1, max_size=120).map(
    lambda xs: np.array(xs, dtype=np.int64)
)
capacities = st.integers(0, 12)


def opt_bypass_misses(stream, capacity):
    """The production Belady-with-bypass miss flags."""
    return opt_trace(stream, capacity)[0]


@given(streams, capacities)
@settings(max_examples=150, deadline=None)
def test_opt_never_beaten_by_lru(stream, capacity):
    belady = residency_oracle.belady_misses(stream, capacity)
    assert belady.sum() <= lru_misses(stream, capacity).sum()


@given(streams, capacities)
@settings(max_examples=150, deadline=None)
def test_opt_trace_agrees_with_bypassless_opt_bound(stream, capacity):
    """Belady-with-bypass can only match or beat Belady-without-bypass."""
    with_bypass = opt_trace(stream, capacity)[0].sum()
    without = residency_oracle.belady_misses(stream, capacity).sum()
    assert with_bypass <= without


@given(streams, capacities)
@settings(max_examples=150, deadline=None)
def test_misses_lower_bounded_by_distinct_addresses(stream, capacity):
    distinct = len(set(stream.tolist()))
    for policy in (lru_misses, opt_bypass_misses):
        assert policy(stream, capacity).sum() >= (distinct if capacity else len(stream)) - (
            0 if capacity else 0
        )
        assert policy(stream, capacity).sum() >= distinct if capacity > 0 else True


@given(streams, st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_capacity_monotone(stream, capacity):
    """More registers never cause more misses."""
    for policy in (lru_misses, opt_bypass_misses):
        assert (
            policy(stream, capacity + 1).sum() <= policy(stream, capacity).sum()
        )


@given(streams)
@settings(max_examples=100, deadline=None)
def test_full_capacity_gives_cold_misses_only(stream):
    distinct = len(set(stream.tolist()))
    assert lru_misses(stream, distinct).sum() == distinct
    assert residency_oracle.belady_misses(stream, distinct).sum() == distinct
    assert opt_trace(stream, distinct)[0].sum() == distinct


@given(streams, capacities)
@settings(max_examples=150, deadline=None)
def test_opt_trace_replay_is_sound(stream, capacity):
    """Replaying the trace never claims a hit on an absent value and never
    exceeds capacity — the exact property the interpreter relies on."""
    misses, inserted, evicted, freed = opt_trace(stream, capacity)
    resident: set[int] = set()
    for pos, addr in enumerate(stream.tolist()):
        if misses[pos]:
            if evicted[pos] >= 0:
                assert int(evicted[pos]) in resident
                resident.discard(int(evicted[pos]))
            if inserted[pos]:
                resident.add(addr)
        else:
            assert addr in resident
            if freed[pos]:
                resident.discard(addr)
        assert len(resident) <= capacity


@given(streams, st.sets(st.integers(0, 9), max_size=6))
@settings(max_examples=100, deadline=None)
def test_pinned_miss_structure(stream, pinned):
    misses = pinned_misses(stream, pinned)
    seen: set[int] = set()
    for pos, addr in enumerate(stream.tolist()):
        if addr in pinned and addr in seen:
            assert not misses[pos]
        else:
            assert misses[pos]
        seen.add(addr)
