"""Tests for the residency simulators (LRU / pinned / Belady)."""

import numpy as np
import pytest
import residency_oracle as oracle

from repro.errors import SimulationError
from repro.sim.residency import (
    lru_misses,
    next_uses,
    opt_trace,
    pinned_misses,
    prev_uses,
)


def stream(*values):
    return np.array(values, dtype=np.int64)


def opt_count(s, capacity):
    return int(opt_trace(s, capacity)[0].sum())


def lru_count(s, capacity):
    return int(lru_misses(s, capacity).sum())


class TestLRU:
    def test_basic_hits(self):
        misses = lru_misses(stream(1, 2, 1, 2), capacity=2)
        assert misses.tolist() == [True, True, False, False]

    def test_eviction_order(self):
        misses = lru_misses(stream(1, 2, 3, 1), capacity=2)
        assert misses.tolist() == [True, True, True, True]

    def test_move_to_end_on_hit(self):
        # 1,2,1,3: hit on 1 refreshes it, so 2 is evicted by 3.
        misses = lru_misses(stream(1, 2, 1, 3, 1), capacity=2)
        assert misses.tolist() == [True, True, False, True, False]

    def test_capacity_zero(self):
        assert lru_misses(stream(1, 1, 1), 0).all()

    def test_cyclic_sweep_thrashes(self):
        # Sequential sweep larger than capacity: LRU misses everything.
        s = np.tile(np.arange(5), 4)
        assert lru_misses(s, 4).all()

    def test_negative_capacity(self):
        with pytest.raises(SimulationError):
            lru_misses(stream(1), -1)


class TestPinned:
    def test_pinned_hits_after_first_touch(self):
        s = np.tile(np.arange(3), 3)
        misses = pinned_misses(s, {0, 1})
        # First sweep all miss; later sweeps hit 0,1 and miss 2.
        assert misses.tolist() == [True, True, True, False, False, True,
                                   False, False, True]

    def test_empty_pin_set(self):
        assert pinned_misses(stream(1, 1), set()).all()


class TestOpt:
    def test_opt_beats_lru_on_sweep(self):
        s = np.tile(np.arange(5), 4)
        assert opt_count(s, 4) < lru_count(s, 4)

    def test_opt_never_worse_than_lru(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.integers(0, 8, size=60)
            for cap in (1, 2, 3, 5):
                assert opt_count(s, cap) <= lru_count(s, cap)

    def test_full_capacity_means_cold_misses_only(self):
        rng = np.random.default_rng(3)
        s = rng.integers(0, 6, size=50)
        distinct = len(set(s.tolist()))
        assert opt_count(s, distinct) == distinct
        assert lru_count(s, distinct) == distinct


class TestOptTrace:
    def test_trace_consistent_with_misses(self):
        rng = np.random.default_rng(11)
        s = rng.integers(0, 10, size=80)
        for cap in (1, 2, 4):
            misses, inserted, evicted, freed = opt_trace(s, cap)
            # Replay the trace and confirm hits always find the value.
            resident: set[int] = set()
            for pos, addr in enumerate(s.tolist()):
                if misses[pos]:
                    if evicted[pos] >= 0:
                        resident.discard(int(evicted[pos]))
                    if inserted[pos]:
                        resident.add(addr)
                else:
                    assert addr in resident, f"claimed hit at {pos} not resident"
                    if freed[pos]:
                        resident.discard(addr)
                assert len(resident) <= cap

    def test_bypass_for_dead_values(self):
        # 9 is touched once: never inserted.
        misses, inserted, evicted, freed = opt_trace(stream(9, 1, 1), 1)
        assert misses.tolist() == [True, True, False]
        assert not inserted[0]

    def test_strided_window_keeps_reusable_values(self):
        # Dec-FIR-like: row 0 = 0..5, row 1 = 2..7 (stride 2).
        s = stream(0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 6, 7)
        misses, *_ = opt_trace(s, 4)
        # The second row must hit on 2,3,4,5.
        assert misses[6:10].tolist() == [False, False, False, False]

    def test_trace_capacity_zero(self):
        misses, inserted, evicted, freed = opt_trace(stream(1, 1), 0)
        assert misses.all()
        assert not inserted.any()


class TestEngines:
    """The array kernels against the reference oracle, at unit scale.

    (The fuzz suite drives the heavy differential coverage; these are
    quick, debuggable pins against ``residency_oracle.py``.)
    """

    def test_use_links_are_mirrors(self):
        s = stream(3, 1, 3, 2, 1, 3)
        nxt = next_uses(s)
        prv = prev_uses(s)
        assert nxt.tolist() == [2, 4, 5, 6, 6, 6]
        assert prv.tolist() == [-1, -1, 0, -1, 1, 2]

    def test_lru_engines_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.integers(0, 8, size=50)
            for capacity in (0, 1, 3, 8):
                assert np.array_equal(
                    lru_misses(s, capacity), oracle.lru_misses(s, capacity)
                )

    def test_pinned_engines_agree(self):
        s = np.tile(np.arange(4), 3)
        for pinned in (set(), {0, 2}, {0, 1, 2, 3}, {9}):
            assert np.array_equal(
                pinned_misses(s, pinned), oracle.pinned_misses(s, pinned)
            )

    def test_opt_trace_agrees_with_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = rng.integers(0, 10, size=48)
            for capacity in (0, 1, 2, 5, 12):
                for row_len in (None, 8, 12):
                    expected = oracle.opt_trace(s, capacity, row_len=row_len)
                    got = opt_trace(
                        s, capacity, periods=(row_len,) if row_len else None
                    )
                    for left, right in zip(expected, got):
                        assert np.array_equal(left, right)

    def test_period_ladder_equals_plain(self):
        # 2 rows of 3 tiles of 2: tile-periodic, row bases irregular.
        s = stream(0, 1, 4, 5, 8, 9, 100, 101, 110, 111, 120, 121)
        plain = oracle.opt_trace(s, 3)
        laddered = opt_trace(s, 3, periods=(6, 2))
        for left, right in zip(plain, laddered):
            assert np.array_equal(left, right)

    def test_non_divisor_row_len_falls_back(self):
        s = stream(0, 1, 2, 0, 1, 2, 0)
        # A period of 3 does not divide the length 7: plain fallback.
        for trace, fallback in (
            (opt_trace, opt_trace(s, 2, periods=(3,))),
            (oracle.opt_trace, oracle.opt_trace(s, 2, row_len=3)),
        ):
            for left, right in zip(trace(s, 2), fallback):
                assert np.array_equal(left, right)
