"""Deterministic space sharding for multi-machine sweeps.

A shard spec ``(index, count)`` — written ``"i/N"`` on the CLI — selects
the subset of a design space one machine evaluates.  Assignment is
hash-based on each query's content digest
(:meth:`~repro.explore.query.DesignQuery.digest`), so it is

* **deterministic** — every machine derives the same partition with no
  coordination;
* **stable under insertion** — adding points to a space (a new budget, a
  new kernel) never moves an existing point to a different shard, so
  previously cached shards stay disjoint and valid;
* **complete and disjoint** — every query lands in exactly one shard.

Independent machines run ``repro explore --shard i/N`` against a shared
cache directory (writes are atomic, so sharing is safe); a final
unsharded run over the same cache stitches the full
:class:`~repro.explore.results.ResultSet` from cache with zero
re-evaluations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.explore.query import DesignQuery

__all__ = ["ShardSpec", "parse_shard", "shard_index", "shard_queries"]

#: A validated ``(index, count)`` pair, 1-based, ``1 <= index <= count``.
ShardSpec = "tuple[int, int]"


def parse_shard(spec: "str | tuple[int, int]") -> "tuple[int, int]":
    """Normalize/validate an ``"i/N"`` string or ``(i, N)`` pair."""
    if isinstance(spec, str):
        head, sep, tail = spec.partition("/")
        try:
            if not sep:
                raise ValueError(spec)
            index, count = int(head), int(tail)
        except ValueError:
            raise ReproError(
                f"malformed shard spec {spec!r}; expected 'i/N', e.g. '1/4'"
            )
    else:
        index, count = spec
    if count < 1:
        raise ReproError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ReproError(
            f"shard index must be in 1..{count}, got {index}"
        )
    return index, count


def shard_index(query: DesignQuery, count: int) -> int:
    """The 1-based shard that owns ``query`` in an ``N``-way partition.

    Derived from the query's content digest alone, so it never depends
    on the point's position in (or the size of) the expanded space.
    """
    if count < 1:
        raise ReproError(f"shard count must be >= 1, got {count}")
    return int(query.digest()[:16], 16) % count + 1


def shard_queries(
    queries: "Sequence[DesignQuery] | Iterable[DesignQuery]",
    index: int,
    count: int,
) -> "list[DesignQuery]":
    """The ordered subsequence of ``queries`` owned by shard ``index``."""
    index, count = parse_shard((index, count))
    return [q for q in queries if shard_index(q, count) == index]
