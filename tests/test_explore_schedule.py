"""The cost model (`repro.explore.schedule`) and parent-format caches."""

import hashlib
import json

import pytest

from repro.explore import (
    CostModel,
    DesignQuery,
    ExplorationSpace,
    Executor,
    ResultCache,
    static_cost,
)
from repro.explore.schedule import ALLOCATOR_WEIGHT, COST_MODEL_META_KEY


def q(kernel="fir", allocator="FR-RA", budget=8):
    return DesignQuery(kernel=kernel, allocator=allocator, budget=budget)


class TestStaticCost:
    def test_positive_for_every_registered_point(self):
        for query in ExplorationSpace(budgets=(8, 64)).expand():
            assert static_cost(query) > 0

    def test_allocator_weights_order_the_prior(self):
        # The exact knapsack must be scheduled as the most expensive pass.
        costs = {
            alloc: static_cost(q(allocator=alloc)) for alloc in ALLOCATOR_WEIGHT
        }
        assert costs["KS-RA"] > costs["FR-RA"] > costs["NO-SR"]

    def test_bigger_kernels_cost_more(self):
        from repro.kernels import build_fir

        tiny = DesignQuery.from_kernel(
            build_fir(n=8, taps=4), allocator="FR-RA", budget=8
        )
        assert static_cost(q(kernel="fir")) > static_cost(tiny)

    def test_unbuildable_subject_defaults_instead_of_raising(self):
        broken = DesignQuery(
            kernel="weird", allocator="FR-RA", budget=8,
            kernel_json='{"broken": true}',
        )
        assert static_cost(broken) > 0


class TestCostModel:
    def test_cold_start_is_the_static_prior(self):
        model = CostModel()
        assert model.observations == 0
        assert model.estimate(q()) == static_cost(q())

    def test_exact_pair_mean_wins(self):
        model = CostModel()
        for seconds in (1.0, 3.0):
            model.observe(q(), seconds)
        model.observe(q(allocator="NO-SR"), 100.0)
        assert model.estimate(q()) == pytest.approx(2.0)

    def test_kernel_fallback_scales_by_allocator_weight(self):
        model = CostModel()
        model.observe(q(allocator="FR-RA"), 2.0)
        # KS-RA never measured: kernel mean x its static weight.
        assert model.estimate(q(allocator="KS-RA")) == pytest.approx(
            2.0 * ALLOCATOR_WEIGHT["KS-RA"]
        )

    def test_global_fallback_is_positive_and_prior_ordered(self):
        model = CostModel()
        model.observe(q(kernel="mat"), 5.0)
        fir_ks = model.estimate(q(kernel="fir", allocator="KS-RA"))
        fir_no = model.estimate(q(kernel="fir", allocator="NO-SR"))
        assert fir_ks > fir_no > 0

    def test_from_cache_learns_real_timings(self, tmp_path):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("FR-RA", "NO-SR"), budgets=(8, 16)
        )
        Executor(jobs=1, cache=tmp_path).run(space)
        model = CostModel.from_cache(ResultCache(tmp_path))
        assert model.observations == 4
        for query in space.expand():
            assert model.estimate(query) > 0

    def test_from_cache_tolerates_missing_or_garbage(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        assert CostModel.from_cache(ResultCache(tmp_path)).observations == 0
        assert CostModel.from_cache(None).observations == 0


class TestParentFormatCaches:
    """Caches written before the evaluation knobs were retired: entries
    carry ``trace_engine``/``batch`` provenance and cost-model rows a
    per-engine ``engine`` field.  Both must keep working."""

    @staticmethod
    def _checksum(doc):
        body = {key: value for key, value in doc.items() if key != "checksum"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def test_parent_entry_is_a_hit_and_engine_rows_merge(self, tmp_path):
        query = q(allocator="CPA-RA", budget=16)
        cache = ResultCache(tmp_path)
        Executor(jobs=1, cache=cache).run([query])
        doc = json.loads(cache.backend.read(query.digest()))
        assert "trace_engine" not in doc and "batch" not in doc
        # Rewrite the entry the way the parent format stored it.
        doc["trace_engine"] = "array"
        doc["batch"] = True
        doc["checksum"] = self._checksum(doc)
        cache.backend.write(
            query.digest(), json.dumps(doc, indent=2, sort_keys=True)
        )
        cache.write_meta(COST_MODEL_META_KEY, {"version": 1, "rows": [
            {"kernel": "fir", "kernel_json_digest": None,
             "allocator": "CPA-RA", "engine": "array",
             "mean": 1.0, "weight": 3.0},
            {"kernel": "fir", "kernel_json_digest": None,
             "allocator": "CPA-RA", "engine": "reference",
             "mean": 5.0, "weight": 1.0},
            {"kernel": "mat", "kernel_json_digest": None,
             "allocator": "FR-RA", "engine": None,
             "mean": 2.0, "weight": 1.0},
        ]})

        resumed = Executor(jobs=1, cache=ResultCache(tmp_path)).run([query])
        assert resumed.stats.cache_hits == 1
        assert resumed.stats.hit_rate == 1.0
        assert resumed.stats.corrupt == 0

        model = CostModel()
        assert model.absorb_doc(cache.read_meta(COST_MODEL_META_KEY)) == 3
        # The two engine rows of one (kernel, allocator) pair merge by
        # weight: (3 * 1.0 + 1 * 5.0) / 4.
        assert model.explain(query) == (2.0, "pair")
        assert model.estimate(q(kernel="mat")) == 2.0
        rows = model.to_doc()["rows"]
        assert [(r["kernel"], r["weight"]) for r in rows] == [
            ("fir", 4.0), ("mat", 1.0),
        ]
        assert all("engine" not in row for row in rows)


class TestAdaptiveExecutor:
    def test_warm_cache_schedules_identically_to_cold(self, tmp_path):
        # Scheduling changes chunk shapes only, never results: a warm
        # cost model (second executor, same cache, fresh re-evaluation)
        # reproduces the cold run's records exactly.
        space = ExplorationSpace(
            kernels=("fir", "mat"),
            allocators=("FR-RA", "NO-SR"),
            budgets=(8,),
        )
        cold = Executor(jobs=2, cache=tmp_path).run(space)
        warm = Executor(jobs=2, cache=tmp_path, reuse_cache=False).run(space)
        assert [r.to_dict() for r in cold] == [r.to_dict() for r in warm]
        assert warm.stats.evaluated == 4
