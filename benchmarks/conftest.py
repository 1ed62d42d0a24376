"""Shared configuration for the benchmark suite.

Each benchmark regenerates one paper artifact (table/figure) or one
ablation of :mod:`repro.bench.sweeps`.  Heavy flows run once per
benchmark via ``benchmark.pedantic`` — we are measuring the reproduction
pipeline itself, and more importantly printing the regenerated artifacts
(run with ``-s`` to see them).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Benchmark ``fn`` with a single measured round (heavy pipelines)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    return run_once
