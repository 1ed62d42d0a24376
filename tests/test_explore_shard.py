"""Deterministic sharding (`repro.explore.shard`) and stitched resumes."""

import pytest

from repro.errors import ReproError
from repro.explore import (
    ExplorationSpace,
    Executor,
    parse_shard,
    shard_index,
    shard_queries,
)


def small_space():
    return ExplorationSpace(
        kernels=("fir", "mat"),
        allocators=("FR-RA", "NO-SR"),
        budgets=(8, 16),
    )


class TestParseShard:
    def test_accepts_string_and_pair(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)
        assert parse_shard((2, 3)) == (2, 3)

    @pytest.mark.parametrize(
        "bad", ["0/4", "5/4", "-1/4", "x/4", "3", "1/0", "1/"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ReproError):
            parse_shard(bad)


class TestShardAssignment:
    def test_partition_is_complete_and_disjoint(self):
        queries = small_space().expand()
        for count in (1, 2, 3, 5):
            shards = [shard_queries(queries, i, count)
                      for i in range(1, count + 1)]
            digests = [q.digest() for shard in shards for q in shard]
            assert sorted(digests) == sorted(q.digest() for q in queries)
            assert len(set(digests)) == len(digests)

    def test_assignment_ignores_position(self):
        # Hash-based on the digest: reversing the list moves nothing.
        queries = small_space().expand()
        assert [shard_index(q, 4) for q in queries] == [
            shard_index(q, 4) for q in reversed(queries)
        ][::-1]

    def test_stable_under_insertion(self):
        # Growing the space (new budgets) must not reshuffle old points.
        before = small_space().expand()
        grown = ExplorationSpace(
            kernels=("fir", "mat"),
            allocators=("FR-RA", "NO-SR"),
            budgets=(8, 16, 24, 64),
        ).expand()
        assignment = {q.digest(): shard_index(q, 3) for q in grown}
        for query in before:
            assert assignment[query.digest()] == shard_index(query, 3)

    def test_shard_preserves_space_order(self):
        queries = small_space().expand()
        shard = shard_queries(queries, 1, 2)
        positions = [queries.index(q) for q in shard]
        assert positions == sorted(positions)


class TestShardedExecution:
    def test_two_shards_plus_resume_stitch_bit_identically(self, tmp_path):
        space = small_space()
        full = Executor(jobs=1).run(space)  # reference, no cache

        for index in (1, 2):
            part = Executor(jobs=1, cache=tmp_path, shard=(index, 2)).run(space)
            assert part.stats.cache_hits == 0  # disjoint: no overlap
            assert len(part) < len(full)

        stitched = Executor(jobs=1, cache=tmp_path).run(space)
        assert stitched.stats.evaluated == 0
        assert stitched.stats.cache_hits == len(full)
        assert [r.to_dict() for r in stitched] == [r.to_dict() for r in full]

    def test_shard_spec_as_string_and_passthrough(self, tmp_path):
        space = small_space()
        via_str = Executor(shard="1/2").run(space)
        via_tuple = Executor(shard=(1, 2)).run(space)
        assert [r.to_dict() for r in via_str] == [r.to_dict() for r in via_tuple]

    def test_single_shard_is_the_whole_space(self):
        space = small_space()
        assert len(Executor(shard=(1, 1)).run(space)) == space.size

    def test_invalid_shard_rejected_at_construction(self):
        with pytest.raises(ReproError):
            Executor(shard=(3, 2))
        with pytest.raises(ReproError):
            Executor(shard="0/2")
