"""The directory backend's segment format.

Each writer process appends ``b"<digest> <nbytes>\\n" + text + b"\\n"``
records (and ``b"<digest> -\\n"`` tombstones) to its own ``*.pack``
segment; reads go through an index over every segment.  These tests
pin the byte format, the precedence rules, torn tails, fork safety,
compaction, and that files the backend did not write are never entries.
"""

import json
import multiprocessing
import os
import re
import time
import warnings

import pytest

from repro.explore import (
    CacheCorruptionWarning,
    DirBackend,
    Executor,
    ExplorationSpace,
    ResultCache,
    RetryPolicy,
)

SPACE = ExplorationSpace(
    kernels=("fir", "mat"), allocators=("FR-RA", "NO-SR"), budgets=(8,)
)
QUERIES = SPACE.expand()
TARGET = QUERIES[0]
FAST = dict(point_timeout=2.5, retry=RetryPolicy(max_retries=2, backoff=0.0))
AN_HOUR_AGO = time.time() - 3600


def sweep(cache, queries=SPACE):
    return Executor(cache=cache, **FAST).run(queries)


def docs(result):
    return [record.to_dict() for record in result.records]


def segments(root):
    return sorted(root.glob("*.pack"))


def age(*paths):
    for path in paths:
        os.utime(path, (AN_HOUR_AGO, AN_HOUR_AGO))


def entry_bytes(tmp_path, query=TARGET):
    """The stored bytes of ``query``'s entry, from a scratch cache."""
    scratch = ResultCache(tmp_path / "scratch")
    sweep(scratch, [query])
    return scratch.backend.read(query.digest())


# -- the record format --------------------------------------------------------


def test_records_and_tombstones_are_framed_as_specified(tmp_path):
    backend = DirBackend(tmp_path)
    location = backend.write("ab12", "one\ntwo")
    (segment,) = segments(tmp_path)
    assert re.fullmatch(rf"\d+-{os.getpid()}-[0-9a-f]{{8}}\.pack",
                        segment.name)
    assert location == f"{segment}#ab12"
    assert segment.read_bytes() == b"ab12 7\none\ntwo\n"
    assert backend.delete("ab12") == 7
    assert segment.read_bytes() == b"ab12 7\none\ntwo\nab12 -\n"
    assert backend.read("ab12") is None
    assert DirBackend(tmp_path).read("ab12") is None
    assert backend.delete("ab12") == 0


def test_stored_text_is_opaque_and_exact_byte(tmp_path):
    texts = {
        "a": '{"x": 1}\n\n  indented\n',
        "b": "",
        "c": "ends without newline é",
        "d": b"\xff torn utf-8 \xfe".decode("utf-8", "surrogateescape"),
        "e": "7 3\nlooks like a header\nd -\n",
    }
    backend = DirBackend(tmp_path)
    for name, text in texts.items():
        backend.write(name, text)
    for reader in (backend, DirBackend(tmp_path)):
        for name, text in texts.items():
            assert reader.read(name) == text.encode(
                "utf-8", "surrogateescape"
            )
        assert [entry.name for entry in reader.entries()] == sorted(texts)


def test_later_records_supersede_earlier_ones(tmp_path):
    (tmp_path / "0-1-aaaa.pack").write_bytes(b"d1 5\nolder\nd2 5\nolder\n")
    (tmp_path / "1-1-aaaa.pack").write_bytes(
        b"d1 5\nfirst\nd1 6\nsecond\nd3 4\ngone\nd2 -\n"
    )
    (tmp_path / "2-1-aaaa.pack").write_bytes(b"d3 5\nagain\n")
    backend = DirBackend(tmp_path)
    assert backend.read("d1") == b"second"
    assert backend.read("d2") is None  # a tombstone masks an earlier record
    assert backend.read("d3") == b"again"
    assert backend.count() == 2


def test_own_writes_update_the_index_in_place(tmp_path):
    backend = DirBackend(tmp_path)
    assert backend.read("d") is None  # builds the (empty) index
    backend.write("d", "one")
    assert backend.read("d") == b"one"
    backend.write("d", "two")
    assert backend.read("d") == b"two"
    assert len(segments(tmp_path)) == 1

    # Another process's write is seen after a refresh.
    other = DirBackend(tmp_path)
    other.write("e", "theirs")
    assert backend.read("e") is None
    backend.refresh()
    assert backend.read("e") == b"theirs"
    # Having indexed a segment that ranks after its own, the next write
    # opens a new segment, so it supersedes what it read.
    backend.write("e", "mine")
    assert len(segments(tmp_path)) == 3
    assert DirBackend(tmp_path).read("e") == b"mine"


def test_fsync_fsyncs_every_append(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    backend = DirBackend(tmp_path, fsync=True)
    backend.write("a", "1")
    backend.write("b", "2")
    backend.delete("a")
    assert len(synced) == 3
    DirBackend(tmp_path / "plain").write("a", "1")
    assert len(synced) == 3


def test_a_forked_child_writes_its_own_segment(tmp_path):
    backend = DirBackend(tmp_path)
    backend.write("parent", "before")
    child = multiprocessing.get_context("fork").Process(
        target=backend.write, args=("child", "forked")
    )
    child.start()
    child.join(timeout=30)
    assert not child.is_alive() and child.exitcode == 0
    backend.write("parent2", "after")
    first, second = segments(tmp_path)
    assert {first.read_bytes(), second.read_bytes()} == {
        b"parent 6\nbefore\nparent2 5\nafter\n",
        b"child 6\nforked\n",
    }
    fresh = DirBackend(tmp_path)
    assert [fresh.read(n) for n in ("parent", "child", "parent2")] == [
        b"before", b"forked", b"after",
    ]


def test_a_short_write_retires_the_segment(tmp_path, monkeypatch):
    backend = DirBackend(tmp_path)
    backend.write("a", "whole")
    real_write = os.write
    monkeypatch.setattr(
        os, "write", lambda fd, data: real_write(fd, data[: len(data) // 2])
    )
    with pytest.raises(OSError):
        backend.write("b", "cut short")
    monkeypatch.setattr(os, "write", real_write)
    backend.write("c", "next")
    torn, fresh = segments(tmp_path)
    assert torn.read_bytes().startswith(b"a 5\nwhole\n")
    assert fresh.read_bytes() == b"c 4\nnext\n"
    reader = DirBackend(tmp_path)
    assert reader.read("b") is None and reader.read("c") == b"next"


def test_a_writer_whose_segment_was_compacted_opens_a_new_one(tmp_path):
    writer = DirBackend(tmp_path)
    writer.write("a", "old")
    writer.write("a", "new")
    age(*segments(tmp_path))
    assert DirBackend(tmp_path).compact(60.0)  # another process's gc
    writer.write("b", "after")
    assert len(segments(tmp_path)) == 2
    fresh = DirBackend(tmp_path)
    assert (fresh.read("a"), fresh.read("b")) == (b"new", b"after")


def _write_many(root, tag, n):
    backend = DirBackend(root)
    for i in range(n):
        backend.write(f"{tag}{i}", f"{tag}:{i}\n" * (i % 5))


def test_concurrent_writers_lose_no_entry(tmp_path):
    """More writer processes than cores, one directory: every entry of
    every writer reads back, each writer from its own segment."""
    fork = multiprocessing.get_context("fork")
    writers = [
        fork.Process(target=_write_many, args=(tmp_path, tag, 300))
        for tag in "abcd"
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
    assert all(not w.is_alive() and w.exitcode == 0 for w in writers)
    assert len(segments(tmp_path)) == len(writers)
    reader = DirBackend(tmp_path)
    assert reader.count() == 4 * 300
    for tag in "abcd":
        for i in range(300):
            assert reader.read(f"{tag}{i}") == f"{tag}:{i}\n".encode() * (
                i % 5
            )
    assert ResultCache(tmp_path).fsck().tmp == ()


def test_a_tail_torn_only_in_flight_is_never_truncated(tmp_path):
    """An index built while an append was in flight sees a torn tail;
    once that append has completed, the tail is no orphan."""
    whole = b"a 3\none\nb 5\ntwo!!\n"
    segment = tmp_path / "1-1-aaaa.pack"
    segment.write_bytes(whole[:-4])
    backend = DirBackend(tmp_path)
    assert backend.read("b") is None  # the index saw the tail torn
    with open(segment, "ab") as handle:
        handle.write(whole[-4:] + b"c 1\n")  # completes, then tears
    age(segment)
    (orphan,) = backend.tmp_orphans(60.0)
    assert orphan == f"{segment}@{len(whole)}"
    assert backend.remove_tmp(orphan)
    assert segment.read_bytes() == whole
    assert backend.tmp_orphans(0.0) == []
    assert DirBackend(tmp_path).read("b") == b"two!!"


def test_fsck_scans_what_other_writers_stored_since(tmp_path):
    cache = ResultCache(tmp_path)
    sweep(cache, QUERIES[:1])  # builds this cache's index
    sweep(ResultCache(tmp_path), QUERIES[1:])  # another writer
    assert cache.fsck().scanned == len(QUERIES)


# -- torn appends -------------------------------------------------------------


def test_a_torn_append_is_a_miss_not_corruption(tmp_path):
    """A writer killed mid-append leaves a record shorter than its
    header says, without its trailing newline: a plain miss, listed by
    fsck under tmp once aged, truncated by --repair only then, and
    evaluated again by the next sweep."""
    raw = entry_bytes(tmp_path)
    root = tmp_path / "cache"
    cache = ResultCache(root)
    sweep(cache, QUERIES[1:])
    (segment,) = segments(root)
    whole = segment.stat().st_size
    with open(segment, "ab") as handle:
        handle.write(b"%s %d\n" % (TARGET.digest().encode(), len(raw)))
        handle.write(raw[: len(raw) // 2])

    cache = ResultCache(root)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheCorruptionWarning)
        assert cache.lookup(TARGET) == (None, "miss")
    assert len(cache) == len(QUERIES) - 1

    # Young: perhaps an append still in flight, so left alone.
    young = cache.fsck(repair=True)
    assert young.tmp == () and young.reaped == 0 and young.clean
    assert segment.stat().st_size > whole

    age(segment)
    report = cache.fsck()
    assert report.tmp == (f"{segment}@{whole}",)
    assert report.corrupt == () and not report.clean
    assert report.ok == len(QUERIES) - 1
    repaired = cache.fsck(repair=True)
    assert repaired.reaped == 1
    assert segment.stat().st_size == whole
    assert cache.fsck().clean

    resumed = sweep(ResultCache(root))
    assert resumed.stats.evaluated == 1
    assert resumed.stats.cache_hits == len(QUERIES) - 1
    assert resumed.stats.corrupt == 0
    assert ResultCache(root).lookup(TARGET)[1] == "hit"


# -- compaction and files the backend did not write ---------------------------


def test_gc_folds_segments_into_one(tmp_path):
    root = tmp_path / "cache"
    first = sweep(ResultCache(root))
    cache = ResultCache(root)  # a second writer, with its own segment
    cache.backend.write("f" * 16, "superseded")
    cache.backend.write("f" * 16, "still garbage")
    cache.backend.write("e" * 16, "deleted")
    cache.backend.delete("e" * 16)
    assert len(segments(root)) == 2
    assert len(cache) == len(QUERIES) + 1

    # A segment written within TMP_MAX_AGE may have a live writer:
    # nothing is folded.
    cache.gc()
    assert len(segments(root)) == 2

    age(*segments(root))
    report = cache.gc()
    assert (report.stale_removed, report.quarantine_removed) == (0, 0)
    (compacted,) = segments(root)
    assert b"superseded" not in compacted.read_bytes()
    assert b"e" * 16 not in compacted.read_bytes()
    for reader in (cache, ResultCache(root)):
        assert len(reader) == len(QUERIES) + 1
        assert reader.backend.read("f" * 16) == b"still garbage"
    resumed = sweep(ResultCache(root))
    assert resumed.stats.cache_hits == len(QUERIES)
    assert docs(resumed) == docs(first)
    assert ResultCache(root).fsck().ok == len(QUERIES)

    # Compacting a single segment of live records only is a no-op.
    age(compacted)
    cache.gc()
    assert segments(root) == [compacted]


def test_files_the_backend_did_not_write_are_never_entries(tmp_path):
    """Files beside the segments are not entries: neither counted,
    scanned, pruned nor deleted.  That includes a ``<digest>.json``
    entry file of the earlier one-file-per-entry layout, whose point is
    a miss that the next sweep evaluates again."""
    raw = entry_bytes(tmp_path)
    root = tmp_path / "cache"
    sweep(ResultCache(root), QUERIES[1:])
    (root / "runs").mkdir()
    strays = {
        root / "notes.json": b'{"format": 2}',
        root / "runs" / "plot.json": b"{}",
        root / f"{TARGET.digest()}.json": raw,
    }
    for path, data in strays.items():
        path.write_bytes(data)
    age(*strays)

    cache = ResultCache(root)
    assert len(cache) == len(QUERIES) - 1
    report = cache.fsck(repair=True)
    assert report.clean and report.scanned == report.ok == len(QUERIES) - 1
    pruned = cache.gc(days=0)
    assert (pruned.stale_removed, pruned.quarantine_removed) == (0, 0)
    resumed = sweep(ResultCache(root))
    assert resumed.stats.evaluated == 1
    assert resumed.stats.cache_hits == len(QUERIES) - 1
    for path, data in strays.items():
        assert path.read_bytes() == data


def test_gc_prunes_by_tombstone_while_a_segment_is_young(tmp_path):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    sweep(cache)
    stale = {"format": 2, "query": {}, "record": {}, "versions": {}}
    stale_text = json.dumps(stale)
    cache.backend.write("0" * 16, stale_text)
    time.sleep(0.05)
    report = cache.gc(days=0)
    assert report.stale_removed == 1
    assert report.bytes_reclaimed == len(stale_text)
    (segment,) = segments(root)
    assert segment.read_bytes().endswith(b"%s -\n" % (b"0" * 16))
    assert len(ResultCache(root)) == len(QUERIES)

    age(segment)
    assert cache.gc(days=0).stale_removed == 0
    (compacted,) = segments(root)
    assert compacted != segment
    assert stale_text.encode() not in compacted.read_bytes()
    assert sweep(ResultCache(root)).stats.cache_hits == len(QUERIES)
