"""The span recorder behind ``--profile``: nested self time.

The recorder tests run on a fake clock, so every total is exact; the
evaluation tests check that failed and crashed points keep the stages
their spans charged before the error.
"""

import pytest

from repro import spans
from repro.explore import DesignQuery, EvalContext
from repro.explore.evaluate import evaluate_query, evaluate_query_safe
from repro.spans import collect, span
from repro.synth import estimate


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "time", fake)
    return fake


def test_a_span_outside_a_collector_records_nothing(clock):
    with span("idle"):
        clock.now += 1.0
    with collect() as stages:
        pass
    assert stages == {}


def test_nested_spans_charge_self_time(clock):
    with collect() as stages:
        with span("outer"):
            clock.now += 1.0
            with span("inner"):
                clock.now += 2.0
            with span("inner"):
                clock.now += 4.0
            clock.now += 8.0
    # Self times add up to the outermost span's wall time.
    assert stages == {"outer": 9.0, "inner": 6.0}


def test_a_span_nested_in_its_own_name_counts_once(clock):
    with collect() as stages:
        with span("trace"):
            clock.now += 1.0
            with span("trace"):
                clock.now += 2.0
    assert stages == {"trace": 3.0}


def test_a_span_left_by_an_exception_is_charged(clock):
    with collect() as stages:
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    clock.now += 2.0
                    raise RuntimeError("boom")
    assert stages == {"outer": 0.0, "inner": 2.0}


def test_a_nested_collector_keeps_its_own_totals(clock):
    with collect() as outer:
        with span("a"):
            with collect() as inner:
                with span("b"):
                    clock.now += 2.0
            clock.now += 1.0
    assert inner == {"b": 2.0}
    assert outer == {"a": 3.0}


def test_a_failed_point_keeps_its_partial_stages():
    # imi at budget 4 is below the per-reference register floor.
    record = evaluate_query(
        DesignQuery(kernel="imi", allocator="PR-RA", budget=4),
        context=EvalContext(),
    )
    assert not record.ok and not record.crash
    assert {"kernel", "alloc"} <= set(record.stages)
    assert "cycles" not in record.stages


def test_a_crashed_point_keeps_its_partial_stages(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("cycle counter bug")

    monkeypatch.setattr(estimate, "count_with_best_anchors", crash)
    record = evaluate_query_safe(
        DesignQuery(kernel="fir", allocator="PR-RA", budget=8),
        context=EvalContext(),
    )
    assert record.crash
    assert {"kernel", "alloc", "dfg_schedule", "cycles"} <= set(
        record.stages
    )
    assert "other" not in record.stages
