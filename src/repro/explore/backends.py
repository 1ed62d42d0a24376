"""Pluggable storage backends for the exploration result cache.

:class:`~repro.explore.cache.ResultCache` owns the entry *semantics* —
JSON entry documents, sha256 checksums, code-stamp staleness,
quarantine-on-corruption — while a :class:`CacheBackend` owns the entry
*storage*.  Two backends ship:

:class:`DirBackend`
    What a bare path selects: each writer process appends
    length-framed entries to its own segment file under a root
    directory, and reads go through an in-memory index;
    ``quarantine/`` holds damaged entries.

:class:`SqliteBackend`
    A single-file SQLite database in WAL mode (``entries`` /
    ``quarantine`` tables), selected by the ``sqlite:``
    URI scheme (``--cache-dir sqlite:sweep.db``).  WAL plus a busy
    timeout makes one database safe for *concurrent* sweeps — readers
    never block the writer and writers queue instead of failing — so
    sharded runs on one machine can share a single cache file.  The
    stored text is the same JSON document ``DirBackend`` writes, so
    checksum and stamp semantics are identical on both backends.

Backends store and return opaque text; they never parse entries.

``sqlite3`` write errors that mean "the disk is full / read-only" are
translated to ``OSError`` with the matching ``errno``, so the
executor's read-only-cache degradation works identically on both
backends.
"""

from __future__ import annotations

import errno
import os
import sqlite3
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "CacheBackend",
    "DirBackend",
    "SqliteBackend",
    "StoredEntry",
    "backend_for",
]

#: Subdirectory (DirBackend) damaged entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Suffix of a DirBackend segment file (see :class:`DirBackend`).
SEGMENT_SUFFIX = ".pack"

#: How long (seconds) a writer waits on a locked SQLite database before
#: giving up — generous, because a concurrent sweep's transaction is
#: milliseconds long.
SQLITE_BUSY_TIMEOUT = 10.0


@dataclass(frozen=True)
class StoredEntry:
    """One stored blob's bookkeeping, backend-agnostically.

    ``name`` is the entry digest (or the quarantined blob's name),
    ``location`` a human-readable place for reports, ``age`` seconds
    since the blob was written (best effort), ``size`` its bytes.
    """

    name: str
    location: str
    age: float
    size: int


class CacheBackend:
    """Storage contract between :class:`ResultCache` and its medium."""

    def describe(self) -> str:
        raise NotImplementedError

    def exists(self) -> bool:
        """Whether the medium is there at all; checking creates nothing."""
        raise NotImplementedError

    def read(self, name: str) -> "bytes | None":
        """Raw entry bytes, or None on a miss.  Never raises on a miss."""
        raise NotImplementedError

    def write(self, name: str, text: str) -> str:
        """Publish one entry; returns its location."""
        raise NotImplementedError

    def delete(self, name: str) -> int:
        """Delete one entry; returns the bytes freed (0 if absent)."""
        raise NotImplementedError

    def entries(self) -> "list[StoredEntry]":
        """Every stored entry (never quarantined blobs), sorted."""
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def quarantine(self, name: str) -> "str | None":
        """Move a damaged entry aside; its new location, or None."""
        raise NotImplementedError

    def quarantined(self) -> "list[StoredEntry]":
        raise NotImplementedError

    def delete_quarantined(self, name: str) -> int:
        """Delete one quarantined blob; returns the bytes freed."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Forget anything read so far; the next read sees the medium anew."""

    def tmp_orphans(self, max_age: float) -> "list[str]":
        """In-flight-write leftovers older than ``max_age`` (dir only)."""
        return []

    def remove_tmp(self, path: str) -> bool:
        return False

    def compact(self, idle: float) -> bool:
        """Reclaim the space of deleted entries; whether it did (dir only)."""
        return False


class DirBackend(CacheBackend):
    """Entries appended to per-writer segment files under ``root``.

    Each writer process appends to its own segment,
    ``<time_ns>-<pid>-<random hex>.pack``, created with
    ``O_CREAT|O_EXCL|O_APPEND`` on its first write (a forked child
    notices the new pid and creates its own).  One record is
    ``b"<digest> <nbytes>\\n" + text + b"\\n"``, written by a single
    ``os.write`` (and fsync'd when ``fsync=True``); a delete or
    quarantine appends the tombstone ``b"<digest> -\\n"``.

    Reads go through an index (digest -> segment, offset, length) built
    on the first read after construction or :meth:`refresh`.  Segments
    are read in name order, and a later record or tombstone supersedes
    an earlier one.  This process's own writes update the index in
    place.  A record cut short by a writer killed mid-append is a *torn
    tail*: the index skips it, :meth:`tmp_orphans` lists it once its
    segment has aged, and :meth:`remove_tmp` truncates it.
    :meth:`compact` folds every segment into one.

    The backend touches only the top-level ``*.pack`` segments, its
    own ``.*.tmp`` compaction files and ``quarantine/*.json``; any
    other file under ``root`` is never an entry.
    """

    def __init__(self, root: "Path | str", fsync: bool = False):
        self.root = Path(root)
        self.fsync = fsync
        #: This process's open segment: path, descriptor, end offset,
        #: and the pid that opened it.
        self._segment: "str | None" = None
        self._fd: "int | None" = None
        self._end = 0
        self._pid = 0
        self._closer: "weakref.finalize | None" = None
        #: digest -> (segment, offset, nbytes).  None until the first
        #: read builds it.
        self._index: "dict[str, tuple[str, int, int]] | None" = None
        #: (segment, offset) of each torn tail the index build found.
        self._torn: "list[tuple[str, int]]" = []

    def describe(self) -> str:
        return str(self.root)

    def exists(self) -> bool:
        return self.root.is_dir()

    # -- the index -------------------------------------------------------

    def refresh(self) -> None:
        self._index = None

    def _entries_index(self) -> "dict[str, tuple[str, int, int]]":
        if self._index is None:
            self._load()
        return self._index

    def _load(self) -> "list[str]":
        """Build the index; the segments it read."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            names = []
        segments = [
            str(self.root / n) for n in names if n.endswith(SEGMENT_SUFFIX)
        ]
        index: "dict[str, tuple[str, int, int]]" = {}
        torn = []
        for segment in segments:
            tail = _index_segment(segment, index)
            if tail is not None:
                torn.append((segment, tail))
        self._index, self._torn = index, torn
        if self._segment is not None and segments[-1:] > [self._segment]:
            # Another writer's segment ranks after ours: retire ours, so
            # whatever this process writes next supersedes what it read.
            self.close()
        return segments

    def _read_at(self, path: str, offset: int, size: int) -> "bytes | None":
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                raw = os.pread(fd, size, offset)
            finally:
                os.close(fd)
        except OSError:
            return None  # gone since the index was built (a compaction)
        return raw if len(raw) == size else None

    # -- this process's segment ------------------------------------------

    def _append(self, record: bytes) -> int:
        """Append one record to this process's segment; its offset.

        A new segment is opened on the first append, in a forked child,
        and once a ``gc`` in another process has compacted this one away.
        """
        if (
            self._fd is None
            or self._pid != os.getpid()
            or os.fstat(self._fd).st_nlink == 0
        ):
            self._open_segment()
        offset = self._end
        try:
            written = os.write(self._fd, record)
            if written != len(record):
                raise OSError(
                    errno.ENOSPC, f"short write to {self._segment}"
                )
            if self.fsync:
                os.fsync(self._fd)
        except OSError:
            # Whatever reached the file is a torn tail; append nothing
            # after it.
            self.close()
            raise
        self._end += written
        return offset

    def _open_segment(self) -> None:
        # In a forked child this closes only the child's inherited copy.
        self.close()
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._new_segment_name()
        self._fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644
        )
        self._closer = weakref.finalize(self, os.close, self._fd)
        self._segment, self._end, self._pid = path, 0, os.getpid()

    def _new_segment_name(self) -> str:
        """``<time_ns>-<pid>-<random hex>.pack``: name order is creation
        order, and no two writers pick the same name."""
        stem = f"{time.time_ns()}-{os.getpid()}-{os.urandom(4).hex()}"
        return str(self.root / f"{stem}{SEGMENT_SUFFIX}")

    def close(self) -> None:
        """Close this process's segment; the next write opens a new one."""
        if self._closer is not None:
            self._closer()
        self._segment = self._fd = self._closer = None

    # -- the storage contract --------------------------------------------

    def read(self, name: str) -> "bytes | None":
        where = self._entries_index().get(name)
        return None if where is None else self._read_at(*where)

    def write(self, name: str, text: str) -> str:
        data = text.encode("utf-8", "surrogateescape")
        header = _header(name, len(data))
        offset = self._append(header + data + b"\n")
        if self._index is not None:
            start = offset + len(header)
            self._index[name] = (self._segment, start, len(data))
        return f"{self._segment}#{name}"

    def delete(self, name: str) -> int:
        where = self._entries_index().get(name)
        if where is None:
            return 0
        try:
            self._append(_header(name, None))
        except OSError:
            return 0
        del self._index[name]
        return where[2]

    def _scan(self, directory: Path) -> "list[StoredEntry]":
        if not directory.is_dir():
            return []
        now = time.time()
        found: list[StoredEntry] = []
        for path in sorted(directory.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished mid-scan (a concurrent repair)
            found.append(StoredEntry(
                name=path.stem,
                location=str(path),
                age=max(0.0, now - stat.st_mtime),
                size=stat.st_size,
            ))
        return found

    def entries(self) -> "list[StoredEntry]":
        now = time.time()
        stats: "dict[str, os.stat_result]" = {}
        found: list[StoredEntry] = []
        for name, (path, _, size) in sorted(self._entries_index().items()):
            try:
                if path not in stats:
                    stats[path] = os.stat(path)
            except OSError:
                continue  # vanished mid-scan (a concurrent repair)
            found.append(StoredEntry(
                name=name,
                location=f"{path}#{name}",
                age=max(0.0, now - stats[path].st_mtime),
                size=size,
            ))
        return found

    def count(self) -> int:
        return len(self._entries_index())

    def quarantine(self, name: str) -> "str | None":
        where = self._entries_index().get(name)
        if where is None:
            return None
        raw = self._read_at(*where)
        if raw is None:
            return None
        target = self.root / QUARANTINE_DIR / f"{name}.json"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(raw)
            self._append(_header(name, None))
        except OSError:
            return None
        del self._index[name]
        return str(target)

    def quarantined(self) -> "list[StoredEntry]":
        return self._scan(self.root / QUARANTINE_DIR)

    def delete_quarantined(self, name: str) -> int:
        path = self.root / QUARANTINE_DIR / f"{name}.json"
        try:
            size = path.stat().st_size
            path.unlink()
            return size
        except OSError:
            return 0

    def tmp_orphans(self, max_age: float) -> "list[str]":
        """Aged compaction temp files and torn segment tails.

        A torn tail is listed as ``<segment>@<offset>``.  Both are left
        alone while younger than ``max_age``: the temp file may be a
        running compaction's, the tail a concurrent writer's append
        still in flight.
        """
        self._entries_index()
        cutoff = time.time() - max_age
        candidates = [(str(tmp), str(tmp)) for tmp in self.root.glob(".*.tmp")]
        for segment, offset in self._torn:
            # Parse again from where the index stopped: what looked torn
            # then may have been an append in flight, or truncated since.
            tail = _index_segment(segment, {}, offset)
            if tail is not None:
                candidates.append((segment, f"{segment}@{tail}"))
        orphans: list[str] = []
        for path, orphan in sorted(candidates):
            try:
                if os.stat(path).st_mtime < cutoff:
                    orphans.append(orphan)
            except OSError:
                continue
        return orphans

    def remove_tmp(self, path: str) -> bool:
        segment, _, offset = path.rpartition("@")
        try:
            if segment.endswith(SEGMENT_SUFFIX):
                os.truncate(segment, int(offset))
            else:
                os.unlink(path)
        except (OSError, ValueError):
            return False
        return True

    def compact(self, idle: float) -> bool:
        """Fold every segment into one.

        The live records are written to a temp file that is renamed to
        a new segment; the segments folded in are then deleted.  Nothing
        happens (False) while a segment was written within ``idle``
        seconds, whose writer may still be appending, or when one
        segment already holds exactly the live records.
        """
        segments = self._load()
        try:
            newest = max((os.stat(s).st_mtime for s in segments), default=0.0)
            if not segments or time.time() - newest < idle:
                return False
            if len(segments) == 1 and os.stat(segments[0]).st_size == sum(
                len(_header(name, size)) + size + 1
                for name, (_, _, size) in self._index.items()
            ):
                return False  # already one segment of live records only
        except OSError:
            return False
        self.close()
        target = self._new_segment_name()
        tmp = self.root / f".{Path(target).name}.tmp"
        index: "dict[str, tuple[str, int, int]]" = {}
        with open(tmp, "wb") as out:
            offset = 0
            for name, where in sorted(self._index.items()):
                raw = self._read_at(*where)
                if raw is None:
                    continue
                header = _header(name, len(raw))
                out.write(header + raw + b"\n")
                index[name] = (target, offset + len(header), len(raw))
                offset += len(header) + len(raw) + 1
            if self.fsync:
                out.flush()
                os.fsync(out.fileno())
        os.replace(tmp, target)
        for path in segments:
            try:
                os.unlink(path)
            except OSError:
                continue
        self._index, self._torn = index, []
        return True


def _header(name: str, nbytes: "int | None") -> bytes:
    """The header line of a record of ``nbytes`` bytes, or (None) the
    whole of a tombstone."""
    if nbytes is None:
        return b"%s -\n" % name.encode()
    return b"%s %d\n" % (name.encode(), nbytes)


def _index_segment(
    segment: str,
    index: "dict[str, tuple[str, int, int]]",
    offset: int = 0,
) -> "int | None":
    """Apply one segment's records and tombstones, from ``offset`` on,
    to ``index``.

    Returns the offset of its torn tail (an incomplete or unreadable
    last record), or None when the segment ends on a whole record.
    """
    try:
        handle = open(segment, "rb")
    except OSError:
        return None  # gone since the listing (a compaction)
    with handle:
        handle.seek(offset)
        while True:
            header = handle.readline()
            if not header:
                return None
            fields = header.split()
            if not header.endswith(b"\n") or len(fields) != 2:
                return offset
            name = fields[0].decode("utf-8", "surrogateescape")
            if fields[1] == b"-":
                index.pop(name, None)
                offset += len(header)
                continue
            if not fields[1].isdigit():
                return offset
            size = int(fields[1])
            handle.seek(size, os.SEEK_CUR)
            if handle.read(1) != b"\n":
                return offset
            index[name] = (segment, offset + len(header), size)
            offset += len(header) + size + 1


class SqliteBackend(CacheBackend):
    """A single-file SQLite cache (WAL mode), safe for concurrent sweeps.

    The database is created lazily on first write, so pointing a
    read-only consumer at a nonexistent path stays a plain miss (like a
    nonexistent cache directory).  Every write is one short transaction;
    WAL mode lets concurrent sweeps sharing the file read while another
    writes, and :data:`SQLITE_BUSY_TIMEOUT` queues writers instead of
    failing them.
    """

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS entries ("
        " digest TEXT PRIMARY KEY, doc TEXT NOT NULL,"
        " created_at REAL NOT NULL)",
        "CREATE TABLE IF NOT EXISTS quarantine ("
        " name TEXT PRIMARY KEY, doc TEXT NOT NULL,"
        " quarantined_at REAL NOT NULL)",
    )

    def __init__(self, path: "Path | str", timeout: float = SQLITE_BUSY_TIMEOUT):
        self.path = Path(path)
        self.timeout = timeout
        self._conn: "sqlite3.Connection | None" = None

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def exists(self) -> bool:
        return self.path.is_file()

    def _connect(self, create: bool) -> "sqlite3.Connection | None":
        if self._conn is not None:
            return self._conn
        if not create and not self.path.exists():
            return None
        if self.path.parent != Path():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=self.timeout)
        try:
            self._use_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            for statement in self.SCHEMA:
                conn.execute(statement)
            conn.commit()
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ReproError(
                f"{self.path} is not a usable SQLite cache: {exc}"
            ) from exc
        self._conn = conn
        return conn

    def _use_wal(self, conn: sqlite3.Connection) -> None:
        """Switch the database to WAL mode, unless it already is.

        The busy timeout does not cover the switch: while another
        connection holds a write lock on a fresh file, ``PRAGMA
        journal_mode=WAL`` fails at once with "database is locked".
        Processes opening one new database together race exactly
        there, so the switch is retried until :attr:`timeout` runs out.
        """
        deadline = time.monotonic() + self.timeout
        pause = 0.005
        while True:
            try:
                (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
                if mode.lower() != "wal":
                    conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(pause)
            pause = min(2 * pause, 0.1)

    @staticmethod
    def _os_error(exc: sqlite3.OperationalError) -> "OSError | None":
        """Translate disk-full/read-only failures to executor-visible errno."""
        message = str(exc).lower()
        if "full" in message:
            return OSError(errno.ENOSPC, str(exc))
        if "readonly" in message or "read-only" in message:
            return OSError(errno.EROFS, str(exc))
        return None

    def _write_row(self, sql: str, params: tuple) -> None:
        conn = self._connect(create=True)
        try:
            with conn:
                conn.execute(sql, params)
        except sqlite3.OperationalError as exc:
            translated = self._os_error(exc)
            if translated is not None:
                raise translated from exc
            raise

    def read(self, name: str) -> "bytes | None":
        conn = self._connect(create=False)
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT doc FROM entries WHERE digest = ?", (name,)
            ).fetchone()
        except sqlite3.OperationalError:
            return None  # locked beyond patience: a miss, not a crash
        return row[0].encode("utf-8", "surrogateescape") if row else None

    def write(self, name: str, text: str) -> str:
        self._write_row(
            "INSERT OR REPLACE INTO entries (digest, doc, created_at)"
            " VALUES (?, ?, ?)",
            (name, text, time.time()),
        )
        return f"{self.describe()}#{name}"

    def delete(self, name: str) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        row = conn.execute(
            "SELECT length(doc) FROM entries WHERE digest = ?", (name,)
        ).fetchone()
        if row is None:
            return 0
        with conn:
            conn.execute("DELETE FROM entries WHERE digest = ?", (name,))
        return int(row[0])

    def _rows(self, table: str, key: str, stamp: str) -> "list[StoredEntry]":
        conn = self._connect(create=False)
        if conn is None:
            return []
        now = time.time()
        return [
            StoredEntry(
                name=name,
                location=f"{self.describe()}#{name}",
                age=max(0.0, now - float(written)),
                size=int(size),
            )
            for name, size, written in conn.execute(
                f"SELECT {key}, length(doc), {stamp} FROM {table}"
                f" ORDER BY {key}"
            )
        ]

    def entries(self) -> "list[StoredEntry]":
        return self._rows("entries", "digest", "created_at")

    def count(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        return int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])

    def quarantine(self, name: str) -> "str | None":
        conn = self._connect(create=False)
        if conn is None:
            return None
        try:
            with conn:
                row = conn.execute(
                    "SELECT doc FROM entries WHERE digest = ?", (name,)
                ).fetchone()
                if row is None:
                    return None
                conn.execute(
                    "INSERT OR REPLACE INTO quarantine"
                    " (name, doc, quarantined_at) VALUES (?, ?, ?)",
                    (name, row[0], time.time()),
                )
                conn.execute(
                    "DELETE FROM entries WHERE digest = ?", (name,)
                )
        except sqlite3.OperationalError:
            return None
        return f"{self.describe()}#quarantine/{name}"

    def quarantined(self) -> "list[StoredEntry]":
        return self._rows("quarantine", "name", "quarantined_at")

    def delete_quarantined(self, name: str) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        row = conn.execute(
            "SELECT length(doc) FROM quarantine WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return 0
        with conn:
            conn.execute("DELETE FROM quarantine WHERE name = ?", (name,))
        return int(row[0])

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def backend_for(
    spec: "CacheBackend | Path | str", fsync: bool = False
) -> CacheBackend:
    """Resolve a cache location spec to a backend.

    A :class:`CacheBackend` instance passes through; a ``sqlite:PATH``
    URI selects :class:`SqliteBackend`; anything else (a plain path,
    optionally prefixed ``dir:``) selects :class:`DirBackend`.
    """
    if isinstance(spec, CacheBackend):
        return spec
    text = str(spec)
    if text.startswith("sqlite:"):
        target = text[len("sqlite:"):]
        if not target:
            raise ReproError(
                f"bad cache URI {text!r}: expected sqlite:PATH"
            )
        return SqliteBackend(target)
    if text.startswith("dir:"):
        text = text[len("dir:"):]
    return DirBackend(Path(text), fsync=fsync)
