"""Unit tests for the repro.explore engine itself."""

import json
from pathlib import Path

import pytest

from repro.dfg.latency import LatencyModel
from repro.errors import ReproError
from repro.explore import (
    DesignQuery,
    DesignRecord,
    ExplorationSpace,
    Executor,
    LatencySpec,
    ResultCache,
    ResultSet,
    evaluate_query,
)
from repro.hw.device import XCV300
from repro.kernels import build_fir


class TestLatencySpec:
    def test_default_roundtrip(self):
        assert LatencySpec.from_model(None) == LatencySpec()
        assert LatencySpec().to_model() is None

    def test_named_models_roundtrip(self):
        for model in (LatencyModel.tmem(3), LatencyModel.realistic(4)):
            spec = LatencySpec.from_model(model)
            rebuilt = spec.to_model()
            assert rebuilt.ram_latency == model.ram_latency
            assert dict(rebuilt.op_latency) == dict(model.op_latency)

    def test_custom_model_roundtrip(self):
        from repro.ir.expr import Op

        custom = LatencyModel(
            op_latency={op: 7 for op in Op}, ram_latency=3, reg_latency=1
        )
        spec = LatencySpec.from_model(custom)
        assert spec.kind == "custom"
        rebuilt = spec.to_model()
        assert dict(rebuilt.op_latency) == dict(custom.op_latency)
        assert rebuilt.ram_latency == 3 and rebuilt.reg_latency == 1
        # Survives the cache's JSON round trip too.
        assert LatencySpec.from_key(spec.key()) == spec

    def test_custom_model_evaluates_like_direct_pipeline(self):
        from repro.core.pipeline import evaluate_kernel
        from repro.ir.expr import Op

        kernel = build_fir(n=8, taps=4)
        custom = LatencyModel(op_latency={op: 2 for op in Op}, ram_latency=4)
        query = DesignQuery.from_kernel(
            kernel, allocator="PR-RA", budget=8,
            latency=LatencySpec.from_model(custom),
        )
        record = evaluate_query(query)
        direct = evaluate_kernel(
            kernel, budget=8, algorithms=("PR-RA",), model=custom
        ).design("PR-RA")
        assert record.cycles == direct.total_cycles
        assert record.wall_clock_us == direct.wall_clock_us

    def test_named_ram_latency_zero_normalizes_to_kind_default(self):
        # Bare realistic == the pipeline's default model (two-cycle RAM),
        # so `--latency realistic` and `--latency default` agree.
        assert LatencySpec("realistic").ram_latency == 2
        assert "L=2" in LatencySpec("realistic").label
        assert LatencySpec("tmem", 0) == LatencySpec("tmem", 1)

    def test_bare_realistic_matches_pipeline_default(self):
        query = DesignQuery.from_kernel(
            build_fir(n=8, taps=4), allocator="PR-RA", budget=8
        )
        default = evaluate_query(query)
        import dataclasses

        realistic = evaluate_query(
            dataclasses.replace(query, latency=LatencySpec("realistic"))
        )
        assert realistic.cycles == default.cycles
        assert realistic.wall_clock_us == default.wall_clock_us

    def test_coerce_and_validation(self):
        assert LatencySpec.coerce("tmem") == LatencySpec("tmem")
        assert LatencySpec.coerce(("realistic", 4)) == LatencySpec("realistic", 4)
        with pytest.raises(ReproError):
            LatencySpec("bogus")
        with pytest.raises(ReproError):
            LatencySpec("default", 3)
        with pytest.raises(ReproError):
            LatencySpec("custom", 2)  # custom without op latencies
        with pytest.raises(ReproError):
            LatencySpec("realistic", -1)


class TestDesignQuery:
    def test_registry_kernel_stays_by_name(self):
        query = DesignQuery.from_kernel("fir", allocator="PR-RA", budget=8)
        assert query.kernel_json is None
        assert query.build_kernel().name == "fir"

    def test_custom_kernel_embeds_json(self):
        kernel = build_fir(n=8, taps=4)
        query = DesignQuery.from_kernel(kernel, allocator="PR-RA", budget=8)
        assert query.kernel_json is not None
        assert query.build_kernel() == kernel

    def test_custom_device_embeds_json(self):
        query = DesignQuery.from_kernel(
            "fir", allocator="PR-RA", budget=8, device=XCV300
        )
        assert query.device_json is None  # XCV300 is in the catalog
        assert query.build_device() == XCV300

    def test_digest_distinguishes_configs(self):
        base = DesignQuery.from_kernel("fir", allocator="PR-RA", budget=8)
        other = DesignQuery.from_kernel("fir", allocator="PR-RA", budget=16)
        assert base.digest() != other.digest()
        assert base.digest() == DesignQuery.from_key(base.key()).digest()

    def test_unknown_names_fail(self):
        with pytest.raises(ReproError):
            DesignQuery("nope", "PR-RA", 8).build_kernel()
        with pytest.raises(ReproError):
            DesignQuery("fir", "PR-RA", 8, device="nope").build_device()


class TestSpace:
    def test_size_and_expand(self):
        space = ExplorationSpace(
            kernels=("fir", "mat"), allocators=("FR-RA", "PR-RA"),
            budgets=(8, 16, 64),
        )
        assert space.size == len(space.expand()) == 12
        # allocator is the innermost axis
        first_two = space.expand()[:2]
        assert [q.allocator for q in first_two] == ["FR-RA", "PR-RA"]
        assert {q.kernel for q in first_two} == {"fir"}

    def test_scalars_are_promoted(self):
        space = ExplorationSpace(kernels="fir", allocators="NO-SR", budgets=8)
        assert space.size == 1

    def test_latency_pair_is_one_spec(self):
        # The documented "(kind, ram_latency) pair" form, unwrapped.
        space = ExplorationSpace(kernels="fir", latencies=("realistic", 2))
        assert space.latencies == (LatencySpec("realistic", 2),)
        two = ExplorationSpace(
            kernels="fir", latencies=[("realistic", 2), ("tmem", 1)]
        )
        assert len(two.latencies) == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            ExplorationSpace(kernels=("nope",))
        with pytest.raises(ReproError):
            ExplorationSpace(allocators=("nope",))
        with pytest.raises(ReproError):
            ExplorationSpace(budgets=(0,))
        with pytest.raises(ReproError):
            ExplorationSpace(devices=("nope",))
        with pytest.raises(ReproError):
            ExplorationSpace(ram_ports=(3,))
        with pytest.raises(ReproError):
            ExplorationSpace(kernels=())


class TestCache:
    def query(self):
        return DesignQuery.from_kernel(
            build_fir(n=8, taps=4), allocator="PR-RA", budget=8
        )

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        query = self.query()
        assert cache.lookup(query) == (None, "miss")
        record = evaluate_query(query)
        location = cache.put(record)
        assert Path(location).parent == tmp_path
        assert cache.lookup(query) == (record, "hit")
        assert len(cache) == 1

    def test_entry_records_dependency_cone_versions(self, tmp_path):
        # One stamp over the cone's module hashes, Python and numpy: no
        # per-module map.
        from repro.explore.versions import VersionRegistry

        cache = ResultCache(tmp_path)
        query = self.query()
        cache.put(evaluate_query(query))
        doc = json.loads(cache.backend.read(query.digest()))
        assert "versions" not in doc
        assert doc["stamp"] == VersionRegistry().stamp()

    def test_stale_stamp_misses(self, tmp_path):
        from repro.explore.cache import _entry_checksum

        cache = ResultCache(tmp_path)
        query = self.query()
        cache.put(evaluate_query(query))
        doc = json.loads(cache.backend.read(query.digest()))
        doc["stamp"] = "0" * 64
        # Re-stamp the checksum: this simulates a *stale* entry (written
        # by other code), not a torn write — the envelope must stay
        # self-consistent or the integrity check fires first.
        doc["checksum"] = _entry_checksum(doc)
        cache.backend.write(query.digest(), json.dumps(doc))
        assert cache.lookup(query) == (None, "stale")
        # A stale entry is not quarantined.
        assert cache.backend.read(query.digest()) is not None
        assert cache.backend.quarantined() == []

    def test_corrupt_entry_is_a_warned_miss(self, tmp_path):
        from repro.explore import CacheCorruptionWarning

        cache = ResultCache(tmp_path)
        query = self.query()
        cache.put(evaluate_query(query))
        digest = query.digest()
        entry = cache.backend.read(digest).decode()
        # garbage bytes, valid-but-wrong-shape JSON, truncation, and a
        # current-format entry with a missing checksum all warn and
        # miss, never raise
        for garbage in (
            "{not json",
            "[]",
            entry[: len(entry) // 2],
            '{"format": 4, "stamp": "oops", "record": {}}',
        ):
            cache.backend.write(digest, garbage)
            with pytest.warns(CacheCorruptionWarning, match=r"\.json"):
                record, status = cache.lookup(query)
            assert record is None and status == "corrupt"
            # The damaged entry was moved aside, not left in place.
            assert cache.backend.read(digest) is None
            assert [blob.name for blob in cache.backend.quarantined()] == [
                digest
            ]

    def test_fresh_registry_per_cache_instance(self, tmp_path):
        # A long-lived process must observe source edits made between
        # sweeps, so each cache builds its own registry by default.
        assert ResultCache(tmp_path).registry is not ResultCache(tmp_path).registry

    def test_failed_records_cache_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        query = DesignQuery.from_kernel("imi", allocator="NO-SR", budget=4)
        record = evaluate_query(query)
        assert not record.ok
        cache.put(record)
        cached = cache.get(query)
        assert cached == record and cached.error_type == "AllocationError"


class TestExecutor:
    def space(self):
        return ExplorationSpace(
            kernels=(build_fir(n=8, taps=4),),
            allocators=("FR-RA", "PR-RA", "NO-SR"),
            budgets=(4, 8),
        )

    def test_jobs_do_not_change_results(self):
        serial = Executor(jobs=1).run(self.space())
        threaded = Executor(jobs=2).run(self.space())
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in threaded]

    def test_resume_hits_cache_completely(self, tmp_path):
        first = Executor(jobs=1, cache=tmp_path).run(self.space())
        assert first.stats.evaluated == 6 and first.stats.cache_hits == 0
        second = Executor(jobs=1, cache=tmp_path).run(self.space())
        assert second.stats.evaluated == 0
        assert second.stats.cache_hits == 6
        assert second.stats.hit_rate == 1.0
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_reuse_cache_false_reevaluates(self, tmp_path):
        Executor(jobs=1, cache=tmp_path).run(self.space())
        rerun = Executor(jobs=1, cache=tmp_path, reuse_cache=False).run(
            self.space()
        )
        assert rerun.stats.evaluated == 6 and rerun.stats.cache_hits == 0

    def test_progress_callback(self):
        seen = []
        Executor(jobs=1).run(
            self.space(), progress=lambda done, total: seen.append((done, total))
        )
        assert seen[0] == (0, 6) and seen[-1] == (6, 6)

    def test_bad_jobs(self):
        with pytest.raises(ReproError):
            Executor(jobs=0)


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        space = ExplorationSpace(
            kernels=("fir", "mat"),
            allocators=("FR-RA", "PR-RA", "NO-SR"),
            budgets=(8, 64),
        )
        return Executor(jobs=1).run(space)

    def test_filter_and_group(self, results):
        fir = results.filter(kernel="fir")
        assert len(fir) == 6
        assert {r.query.kernel for r in fir} == {"fir"}
        assert len(results.filter(kernel="fir", budget=64)) == 3
        assert len(results.filter(allocator=("FR-RA", "PR-RA"))) == 8
        groups = results.group_by("kernel")
        assert set(groups) == {"fir", "mat"}
        pairs = results.group_by("kernel", "budget")
        assert set(pairs) == {("fir", 8), ("fir", 64), ("mat", 8), ("mat", 64)}

    def test_filter_unknown_field(self, results):
        with pytest.raises(ReproError):
            results.filter(bogus=1)

    def test_filter_latency_accepts_spec_label_and_kind(self, results):
        # All twelve points ran under the default model.
        assert len(results.filter(latency=LatencySpec())) == 12
        assert len(results.filter(latency="default")) == 12
        space = ExplorationSpace(
            kernels="fir", allocators="NO-SR", budgets=8,
            latencies=[LatencySpec(), ("realistic", 4)],
        )
        mixed = Executor(jobs=1).run(space)
        assert len(mixed.filter(latency=LatencySpec("realistic", 4))) == 1
        assert len(mixed.filter(latency="realistic(L=4)")) == 1
        assert len(mixed.filter(latency="realistic")) == 1  # bare kind

    def test_best_and_pareto(self, results):
        best = results.filter(kernel="fir").best("cycles")
        assert best.cycles == min(
            r.cycles for r in results.filter(kernel="fir")
        )
        frontier = results.filter(kernel="fir").pareto(
            "cycles", "total_registers"
        )
        assert 0 < len(frontier) <= 6
        # No frontier point dominates another.
        for a in frontier:
            for b in frontier:
                dominated = (
                    b.cycles <= a.cycles
                    and b.total_registers <= a.total_registers
                    and (b.cycles, b.total_registers)
                    != (a.cycles, a.total_registers)
                )
                assert not dominated

    def test_exports(self, results):
        doc = json.loads(results.to_json())
        assert len(doc["records"]) == len(results)
        assert doc["stats"]["total"] == len(results)
        csv_lines = results.to_csv().splitlines()
        assert len(csv_lines) == len(results) + 1
        assert csv_lines[0].startswith("kernel,allocator,budget")
        rendered = results.render(title="t")
        assert rendered.splitlines()[0] == "t"

    def test_failures_split(self):
        space = ExplorationSpace(
            kernels=("imi",), allocators=("NO-SR", "FR-RA"), budgets=(4, 16)
        )
        results = Executor(jobs=1).run(space)
        assert len(results.failures()) == 2
        assert len(results.ok()) == 2
        assert results.stats.failures == 2
        # Failed records render and export without blowing up.
        assert "AllocationError" in results.render()
        assert "AllocationError" in results.to_csv()

    def test_record_roundtrip(self, results):
        for record in results:
            assert DesignRecord.from_dict(record.to_dict()) == record
