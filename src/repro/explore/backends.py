"""Pluggable storage backends for the exploration result cache.

:class:`~repro.explore.cache.ResultCache` owns the entry *semantics* —
JSON entry documents, sha256 checksums, code-stamp staleness,
quarantine-on-corruption — while a :class:`CacheBackend` owns the entry
*storage*.  Two backends ship:

:class:`DirBackend`
    The original layout: one ``<digest>.json`` file per entry under a
    root directory, ``quarantine/`` for damaged entries, atomic
    tmp+rename writes (optionally fsync'd).  This is what a bare path
    selects.

:class:`SqliteBackend`
    A single-file SQLite database in WAL mode (``entries`` /
    ``quarantine`` tables), selected by the ``sqlite:``
    URI scheme (``--cache-dir sqlite:sweep.db``).  WAL plus a busy
    timeout makes one database safe for *concurrent* sweeps — readers
    never block the writer and writers queue instead of failing — so
    sharded runs on one machine can share a single cache file instead
    of a directory of thousands of entries.  The stored text is the
    same JSON document ``DirBackend`` writes, so checksum and
    stamp semantics are identical on both backends.

Backends store and return opaque text; they never parse entries.  The
one deliberate exception is :meth:`CacheBackend.corrupt`, the chaos
hook behind the ``corrupt-write`` fault kind, which flips one byte of a
just-written entry the way a torn write would.

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

#: Subdirectory (DirBackend) where earlier versions kept a cost-model
#: document.  It is not an entry: counts skip it, and nothing reads it.
LEGACY_META_DIR = "meta"

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

    def read(self, name: str) -> "bytes | None":
        """Raw entry bytes, or None on a miss.  Never raises on a miss."""
        raise NotImplementedError

    def write(self, name: str, text: str) -> "Path | str":
        """Atomically publish one entry; returns its location."""
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

    def tmp_orphans(self, max_age: float) -> "list[str]":
        """In-flight-write leftovers older than ``max_age`` (dir only)."""
        return []

    def remove_tmp(self, path: str) -> bool:
        return False

    def corrupt(self, name: str) -> None:
        """Chaos hook: damage one stored entry like a torn write would."""
        raise NotImplementedError

    def clear(self) -> int:
        raise NotImplementedError


class DirBackend(CacheBackend):
    """One ``<digest>.json`` file per entry under ``root`` (the classic
    layout).  ``fsync=True`` flushes each entry to stable storage before
    the atomic rename."""

    def __init__(self, root: "Path | str", fsync: bool = False):
        self.root = Path(root)
        self.fsync = fsync

    def describe(self) -> str:
        return str(self.root)

    def _path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def read(self, name: str) -> "bytes | None":
        try:
            return self._path(name).read_bytes()
        except OSError:
            return None

    def write(self, name: str, text: str) -> Path:
        path = self._path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        if self.fsync:
            with open(tmp, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
        else:
            tmp.write_text(text)
        os.replace(tmp, path)
        return path

    def delete(self, name: str) -> int:
        path = self._path(name)
        try:
            size = path.stat().st_size
            path.unlink()
            return size
        except OSError:
            return 0

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
        return self._scan(self.root)

    def count(self) -> int:
        if not self.root.is_dir():
            return 0
        skip = (self.root / QUARANTINE_DIR, self.root / LEGACY_META_DIR)
        return sum(
            1 for path in self.root.rglob("*.json")
            if not any(where in path.parents for where in skip)
        )

    def quarantine(self, name: str) -> "str | None":
        path = self._path(name)
        target_dir = self.root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            os.replace(path, target)
            return str(target)
        except OSError:
            return None

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
        if not self.root.is_dir():
            return []
        cutoff = time.time() - max_age
        orphans: list[str] = []
        for tmp in sorted(self.root.glob(".*.tmp")):
            try:
                if tmp.stat().st_mtime < cutoff:
                    orphans.append(str(tmp))
            except OSError:
                continue
        return orphans

    def remove_tmp(self, path: str) -> bool:
        try:
            Path(path).unlink()
            return True
        except OSError:
            return False

    def corrupt(self, name: str) -> None:
        path = self._path(name)
        data = bytearray(path.read_bytes())
        if not data:
            return
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    def clear(self) -> int:
        removed = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.json"):
                path.unlink()
                removed += 1
            for sub in self.root.iterdir():
                if sub.is_dir() and not any(sub.iterdir()):
                    sub.rmdir()
        return removed


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

    def corrupt(self, name: str) -> None:
        raw = self.read(name)
        if not raw:
            return
        text = raw.decode("utf-8", "surrogateescape")
        middle = len(text) // 2
        flipped = "~" if text[middle] != "~" else "!"
        self._write_row(
            "UPDATE entries SET doc = ? WHERE digest = ?",
            (text[:middle] + flipped + text[middle + 1:], name),
        )

    def clear(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        removed = self.count()
        with conn:
            conn.execute("DELETE FROM entries")
            conn.execute("DELETE FROM quarantine")
        return removed

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
