"""Cache backend tests (PR 10): DirBackend/SqliteBackend parity.

Both backends must be observably identical through the
:class:`ResultCache` facade — same entry docs, same
corruption/quarantine behaviour, same fsck/gc accounting, same
tolerance of what earlier versions left behind — and the SQLite backend
must additionally
survive two *processes* sweeping disjoint shards into one database
file concurrently.
"""

import errno
import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.explore import (
    CacheCorruptionWarning,
    DesignQuery,
    DirBackend,
    Executor,
    ExplorationSpace,
    ResultCache,
    RetryPolicy,
    SqliteBackend,
    VersionRegistry,
    backend_for,
)
from repro.explore.cache import ENTRY_FORMAT, _entry_checksum
from repro.explore.versions import EVALUATION_CONE

SPACE = ExplorationSpace(
    kernels=("fir", "mat"), allocators=("FR-RA", "NO-SR"), budgets=(8,)
)
QUERIES = SPACE.expand()
TARGET = QUERIES[0]

FAST = dict(
    point_timeout=2.5,
    retry=RetryPolicy(max_retries=2, backoff=0.0),
)

BACKENDS = ("dir", "sqlite")


def make_cache(tmp_path, backend):
    if backend == "dir":
        return ResultCache(tmp_path / "cache")
    return ResultCache(f"sqlite:{tmp_path / 'cache.db'}")


def sweep(cache=None, **kwargs):
    opts = dict(FAST)
    opts.update(kwargs)
    return Executor(cache=cache, **opts).run(SPACE)


def docs(result):
    return [record.to_dict() for record in result.records]


# -- backend resolution -------------------------------------------------------


def test_backend_for_resolution(tmp_path):
    assert isinstance(backend_for(f"sqlite:{tmp_path}/c.db"), SqliteBackend)
    assert isinstance(backend_for(f"dir:{tmp_path}/c"), DirBackend)
    assert isinstance(backend_for(tmp_path / "c"), DirBackend)
    assert isinstance(backend_for(str(tmp_path / "c")), DirBackend)
    passthrough = DirBackend(tmp_path / "c")
    assert backend_for(passthrough) is passthrough
    with pytest.raises(ReproError):
        backend_for("sqlite:")


def test_sqlite_missing_db_is_a_plain_miss(tmp_path):
    db = tmp_path / "absent.db"
    cache = ResultCache(f"sqlite:{db}")
    assert cache.get(TARGET) is None
    assert len(cache) == 0
    # A pure read must not materialize the database file.
    assert not db.exists()


def test_path_for_rejects_non_directory_backends(tmp_path):
    cache = ResultCache(f"sqlite:{tmp_path / 'c.db'}")
    with pytest.raises(ReproError, match="directory"):
        cache.path_for(TARGET)


def test_sqlite_os_error_translation():
    exc = SqliteBackend._os_error(Exception("database or disk is full"))
    assert isinstance(exc, OSError) and exc.errno == errno.ENOSPC
    exc = SqliteBackend._os_error(
        Exception("attempt to write a readonly database")
    )
    assert isinstance(exc, OSError) and exc.errno == errno.EROFS


# -- parity through the ResultCache facade ------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_roundtrip_and_resume(backend, tmp_path):
    reference = sweep()
    cache = make_cache(tmp_path, backend)
    first = sweep(cache=cache)
    assert first.stats.evaluated == len(QUERIES)
    assert len(cache) == len(QUERIES)
    resumed = sweep(cache=make_cache(tmp_path, backend))
    assert resumed.stats.cache_hits == len(QUERIES)
    assert resumed.stats.evaluated == 0
    assert docs(resumed) == docs(first) == docs(reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_corruption_quarantines_and_heals(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    cache.corrupt_entry(TARGET)
    with pytest.warns(CacheCorruptionWarning, match="quarantined corrupted"):
        resumed = sweep(cache=make_cache(tmp_path, backend))
    assert resumed.stats.cache_hits == len(QUERIES) - 1
    assert resumed.stats.evaluated == 1  # the poisoned point re-ran
    fresh = make_cache(tmp_path, backend)
    assert len(fresh.backend.quarantined()) == 1
    assert fresh.get(TARGET) is not None  # healed by the re-evaluation


@pytest.mark.parametrize("backend", BACKENDS)
def test_fsck_reports_and_repairs(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    cache.corrupt_entry(TARGET)
    report = cache.fsck(repair=False)
    assert report.scanned == len(QUERIES)
    assert report.ok == len(QUERIES) - 1
    assert len(report.corrupt) == 1
    assert report.quarantined == 0
    assert not report.clean
    assert len(cache.backend.quarantined()) == 0  # report-only
    repaired = cache.fsck(repair=True)
    assert len(repaired.corrupt) == 1
    assert repaired.quarantined == 1
    assert len(cache.backend.quarantined()) == 1
    assert len(cache) == len(QUERIES) - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_gc_prunes_quarantine_and_stale_formats(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    cache.corrupt_entry(TARGET)
    cache.fsck(repair=True)  # -> one quarantined blob
    valid = len(cache)  # the repaired cache: every query but the poisoned one
    stale = {"format": 2, "query": {}, "record": {}, "versions": {}}
    cache.backend.write("0" * 16, json.dumps(stale))
    assert len(cache) == valid + 1

    # Young garbage survives a 30-day cutoff...
    untouched = cache.gc(days=30)
    assert untouched.quarantine_removed == 0
    assert untouched.stale_removed == 0
    # ...and falls to an immediate one.
    time.sleep(0.05)
    report = cache.gc(days=0)
    assert report.quarantine_removed == 1
    assert report.stale_removed == 1
    assert report.bytes_reclaimed > 0
    assert "gc: pruned 1 quarantined + 1 stale-format entries" in (
        report.summary()
    )
    assert len(cache.backend.quarantined()) == 0
    assert len(cache) == valid  # valid entries never touched
    with pytest.raises(ReproError):
        cache.gc(days=-1)


def write_legacy_meta(cache, backend):
    """Store a cost-model document the way earlier versions did: a
    ``meta/`` file beside the entries, or a row of a ``meta`` table."""
    text = json.dumps({"version": 1, "rows": [
        {"kernel": "fir", "kernel_json_digest": None, "allocator": "FR-RA",
         "mean": 0.01, "weight": 1.0},
    ]}, indent=2, sort_keys=True)
    if backend == "dir":
        meta = cache.root / "meta"
        meta.mkdir()
        (meta / "cost_model.json").write_text(text)
        return lambda: (meta / "cost_model.json").read_text()
    with sqlite3.connect(str(cache.root)) as conn:
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL,"
            " updated_at REAL NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta VALUES (?, ?, ?)",
            ("cost_model", text, time.time()),
        )

    def read():
        with sqlite3.connect(str(cache.root)) as conn:
            return conn.execute(
                "SELECT value FROM meta WHERE key = 'cost_model'"
            ).fetchone()[0]
    return read


@pytest.mark.parametrize("backend", BACKENDS)
def test_legacy_meta_store_is_ignored(backend, tmp_path, capsys):
    """A cache that still holds an earlier version's cost-model document
    resumes with every point a hit; fsck neither counts nor quarantines
    the leftover document, and nothing rewrites it."""
    cache = make_cache(tmp_path, backend)
    first = sweep(cache=cache)
    read_meta = write_legacy_meta(cache, backend)
    before = read_meta()

    resumed = sweep(cache=make_cache(tmp_path, backend))
    assert resumed.stats.cache_hits == len(QUERIES)
    assert resumed.stats.corrupt == 0
    assert docs(resumed) == docs(first)
    assert len(make_cache(tmp_path, backend)) == len(QUERIES)

    spec = str(cache.root) if backend == "dir" else f"sqlite:{cache.root}"
    assert main(["cache", "fsck", spec, "--repair"]) == 0
    out = capsys.readouterr().out
    assert f"{len(QUERIES)} entries: {len(QUERIES)} ok" in out
    assert "0 corrupt" in out
    assert "quarantined" not in out
    assert make_cache(tmp_path, backend).backend.quarantined() == []
    assert read_meta() == before


def test_parent_entry_is_a_hit(tmp_path):
    """An entry as caches written before the evaluation knobs were
    retired stored it, with ``trace_engine``/``batch`` provenance in an
    ``indent=2`` layout, is still a hit."""
    query = DesignQuery(kernel="fir", allocator="CPA-RA", budget=16)
    cache = ResultCache(tmp_path)
    Executor(jobs=1, cache=cache).run([query])
    doc = json.loads(cache.backend.read(query.digest()))
    assert "trace_engine" not in doc and "batch" not in doc
    doc["trace_engine"] = "array"
    doc["batch"] = True
    doc["checksum"] = _entry_checksum(doc)
    cache.backend.write(
        query.digest(), json.dumps(doc, indent=2, sort_keys=True)
    )

    resumed = Executor(jobs=1, cache=ResultCache(tmp_path)).run([query])
    assert resumed.stats.cache_hits == 1
    assert resumed.stats.hit_rate == 1.0
    assert resumed.stats.corrupt == 0


# -- entry layout, compatibility and integrity --------------------------------


def compact(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def stored(cache, query=TARGET):
    return cache.backend.read(query.digest())


def rewrite(cache, raw, query=TARGET):
    cache.backend.write(query.digest(), raw.decode("utf-8"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_entry_is_one_canonical_compact_line(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    for query in QUERIES:
        raw = stored(cache, query)
        doc = json.loads(raw)
        assert raw.decode("utf-8") == compact(doc)
        assert doc["checksum"] == _entry_checksum(doc)
        assert doc["format"] == ENTRY_FORMAT


@pytest.mark.parametrize("backend", BACKENDS)
def test_indented_entries_still_hit(backend, tmp_path):
    """Entries in the earlier ``indent=2`` layout verify the slow way."""
    cache = make_cache(tmp_path, backend)
    first = sweep(cache=cache)
    for query in QUERIES:
        doc = json.loads(stored(cache, query))
        rewrite(cache, json.dumps(doc, indent=2, sort_keys=True).encode(),
                query)
    fresh = make_cache(tmp_path, backend)
    for query, record in zip(QUERIES, first.records):
        hit, status = fresh.lookup(query)
        assert status == "hit"
        assert hit == record and hit.seconds == record.seconds
    resumed = sweep(cache=make_cache(tmp_path, backend))
    assert resumed.stats.cache_hits == len(QUERIES)


def resealed(doc):
    """``doc`` as one compact entry under a valid checksum."""
    body = {key: value for key, value in doc.items() if key != "checksum"}
    return compact(dict(body, checksum=_entry_checksum(body))).encode()


@pytest.mark.parametrize("backend", BACKENDS)
def test_parent_format_entries_are_stale_misses(backend, tmp_path):
    """Format-3 entries (a per-module ``versions`` map, no stamp) are
    stale misses, never corrupt: fsck counts them, gc prunes them."""
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    for query in QUERIES:
        doc = json.loads(stored(cache, query))
        del doc["stamp"]
        doc.update(format=3, versions={"repro.explore.evaluate": "0" * 12})
        rewrite(cache, resealed(doc), query)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheCorruptionWarning)
        statuses = [cache.lookup(query)[1] for query in QUERIES]
    assert statuses == ["stale"] * len(QUERIES)
    report = cache.fsck()
    assert (report.ok, report.stale_format, report.corrupt) == (
        0, len(QUERIES), (),
    )
    assert len(cache.backend.quarantined()) == 0
    time.sleep(0.05)
    assert cache.gc(days=0).stale_removed == len(QUERIES)
    assert len(cache) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_stamp_that_is_not_a_string_is_corrupt(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    doc = json.loads(stored(cache))
    doc["stamp"] = {"repro.explore.evaluate": "0" * 12}
    rewrite(cache, resealed(doc))
    assert len(cache.fsck().corrupt) == 1
    with pytest.warns(CacheCorruptionWarning, match="stamp is not a string"):
        assert cache.lookup(TARGET) == (None, "corrupt")
    assert len(cache.backend.quarantined()) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_byte_flips_in_a_compact_entry_never_hit(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    raw = stored(cache)
    assert cache.lookup(TARGET)[1] == "hit"
    # The prefix, the checksum hex and its closing quote, the first body
    # bytes and a stride through the rest.  Renaming the "format" key
    # reads as an entry of another format (a stale miss, as in any
    # layout), so those bytes are left out.
    format_key = raw.index(b'"format"')
    renames_format = range(format_key + 1, format_key + 7)
    positions = sorted(
        {0, 1, 11, 12, 13, 40, 76, 77, 78, 79, 80, len(raw) - 1}
        | set(range(90, len(raw), 97))
    )
    for at in positions:
        if at in renames_format:
            continue
        damaged = bytearray(raw)
        damaged[at] = ord("~") if raw[at] != ord("~") else ord("!")
        rewrite(cache, bytes(damaged))
        with pytest.warns(CacheCorruptionWarning):
            assert cache.lookup(TARGET) == (None, "corrupt"), at
        assert stored(cache) is None, at  # moved aside...
        assert len(cache.backend.quarantined()) == 1  # ...under its digest


@pytest.mark.parametrize("backend", BACKENDS)
def test_smuggled_checksum_key_takes_the_full_check(backend, tmp_path):
    """A body holding its own "checksum" key hashes right byte for byte,
    but the parsed document keeps the last duplicate key: the full
    check, not the byte check, must decide, and it says corrupt."""
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    doc = json.loads(stored(cache))
    del doc["checksum"]
    body = compact({**doc, "checksum": "0" * 64})
    digest = hashlib.sha256(body.encode()).hexdigest()
    rewrite(cache, f'{{"checksum":"{digest}",{body[1:]}'.encode())
    with pytest.warns(CacheCorruptionWarning):
        assert cache.lookup(TARGET) == (None, "corrupt")


@pytest.mark.parametrize("backend", BACKENDS)
def test_fsck_accepts_both_layouts(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    for query in QUERIES[::2]:
        doc = json.loads(stored(cache, query))
        rewrite(cache, json.dumps(doc, indent=2, sort_keys=True).encode(),
                query)
    report = cache.fsck()
    assert report.scanned == report.ok == len(QUERIES)
    assert report.clean


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_record_of_another_query_is_never_served(backend, tmp_path):
    """An entry with a valid checksum, stored under one query's digest
    but holding another query's record, is corrupt: quarantined and
    warned, never a hit.  Both the envelope's query and the record's
    own query must match the query looked up."""
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    other = QUERIES[-1]
    assert (other.kernel, other.allocator) == ("mat", "NO-SR")
    hit, status = cache.lookup(TARGET)
    assert status == "hit" and hit.query is TARGET

    rewrite(cache, stored(cache, other))
    with pytest.warns(CacheCorruptionWarning, match="another query"):
        assert cache.lookup(TARGET) == (None, "corrupt")
    assert stored(cache) is None
    assert len(cache.backend.quarantined()) == 1

    sweep(cache=cache)  # heals the entry
    doc = json.loads(stored(cache))
    del doc["checksum"]
    doc["record"]["query"] = other.key()
    rewrite(cache, compact({**doc, "checksum": _entry_checksum(doc)}).encode())
    with pytest.warns(CacheCorruptionWarning, match="another query"):
        assert cache.lookup(TARGET) == (None, "corrupt")


@pytest.mark.parametrize("backend", BACKENDS)
def test_fsck_flags_an_entry_filed_under_another_digest(backend, tmp_path):
    cache = make_cache(tmp_path, backend)
    sweep(cache=cache)
    rewrite(cache, stored(cache, QUERIES[-1]))
    report = cache.fsck()
    assert report.scanned == len(QUERIES)
    assert report.ok == len(QUERIES) - 1
    assert len(report.corrupt) == 1 and TARGET.digest() in report.corrupt[0]
    assert cache.fsck(repair=True).quarantined == 1
    assert cache.fsck().clean


@pytest.mark.parametrize("backend", BACKENDS)
def test_refresh_forgets_memoized_verdicts(backend, tmp_path, copied_tree,
                                           monkeypatch):
    cache = ResultCache(make_cache(tmp_path, backend).backend,
                        VersionRegistry(copied_tree))
    sweep(cache=cache)
    assert [cache.lookup(q)[1] for q in QUERIES] == ["hit"] * len(QUERIES)

    # The lookup stamp is hashed once per registry, not per lookup.
    calls = []
    real = VersionRegistry.module_hash
    monkeypatch.setattr(
        VersionRegistry, "module_hash",
        lambda self, module: calls.append(module) or real(self, module),
    )
    assert [cache.lookup(q)[1] for q in QUERIES] == ["hit"] * len(QUERIES)
    assert calls == []

    mat_py = copied_tree / "kernels" / "mat.py"
    mat_py.write_text(mat_py.read_text() + "\n# edited\n")
    cache.refresh()
    assert [cache.lookup(q)[1] for q in QUERIES] == ["stale"] * len(QUERIES)
    assert calls == list(EVALUATION_CONE)


# -- two processes, one SQLite file -------------------------------------------


def _spawn_shard(db, shard):
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "explore",
            "--kernels", "fir", "mat",
            "--allocators", "FR-RA", "NO-SR",
            "--budgets", "8", "16",
            "--cache-dir", f"sqlite:{db}",
            "--shard", shard, "--jobs", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_two_process_sqlite_concurrency(tmp_path):
    """Two sweeps, one database: disjoint shards written concurrently
    from separate processes, then stitched by an unsharded resume with
    100% hits and records identical to a fresh uncached sweep."""
    db = tmp_path / "shared.db"
    grid = ExplorationSpace(
        kernels=("fir", "mat"),
        allocators=("FR-RA", "NO-SR"),
        budgets=(8, 16),
    )
    procs = [_spawn_shard(db, "1/2"), _spawn_shard(db, "2/2")]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"shard failed:\n{out}\n{err}"

    opts = dict(FAST)
    stitched = Executor(cache=f"sqlite:{db}", **opts).run(grid)
    assert stitched.stats.cache_hits == len(grid.expand()) == 8
    assert stitched.stats.evaluated == 0
    fresh = Executor(**opts).run(grid)
    assert docs(stitched) == docs(fresh)


def test_sqlite_connect_waits_out_a_lock_on_a_fresh_file(tmp_path):
    """Opening a fresh database while another connection holds its write
    lock waits the lock out: the WAL switch retries instead of failing
    with "database is locked" (the race of two sweeps opening one new
    file together)."""
    db = tmp_path / "fresh.db"
    blocker = sqlite3.connect(db, isolation_level=None, check_same_thread=False)
    blocker.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, blocker.execute, ("COMMIT",))
    started = time.perf_counter()
    release.start()
    try:
        conn = SqliteBackend(db, timeout=5.0)._connect(create=True)
        waited = time.perf_counter() - started
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        conn.close()
    finally:
        release.join()
        blocker.close()
    assert mode == "wal"
    assert waited >= 0.1


# -- CLI surfaces -------------------------------------------------------------


def test_cli_sqlite_cache_dir(capsys, tmp_path):
    db = tmp_path / "cli.db"
    code = main([
        "explore", "--kernels", "fir", "--allocators", "FR-RA",
        "--budgets", "8", "--cache-dir", f"sqlite:{db}",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert db.exists()
    code = main([
        "explore", "--kernels", "fir", "--allocators", "FR-RA",
        "--budgets", "8", "--cache-dir", f"sqlite:{db}",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "1 cache hits" in captured.err


def test_cli_cache_fsck_gc(capsys, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    sweep(cache=cache)
    cache.corrupt_entry(TARGET)
    cache.fsck(repair=True)
    time.sleep(0.05)
    code = main([
        "cache", "fsck", str(tmp_path / "cache"), "--gc", "--gc-days", "0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "gc: pruned 1 quarantined" in out
