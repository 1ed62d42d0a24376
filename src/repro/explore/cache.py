"""Content-addressed result cache for exploration sweeps.

Entry semantics (one JSON document per design point)::

    {"checksum", "format", "query", "record", "seconds", "stamp"}

``seconds`` is the point's measured evaluation wall time — envelope
bookkeeping (like ``stamp``), not part of the record's identity: it
is reattached to the record on lookup.

An entry is stored as one compact line,
``json.dumps(doc, sort_keys=True, separators=(",", ":"))``: because
``"checksum"`` sorts first, the text is ``{"checksum":"<hex>",``
followed by the very bytes the checksum was computed over (minus their
opening brace).  The same document written with ``indent=2`` reads
back identically.

Each entry is keyed by the query's content digest and guarded by the
*code stamp* (see :mod:`repro.explore.versions`): one sha256 over the
sources of the evaluation cone, the Python ``major.minor`` and the numpy
version.  An entry whose stamp differs from the current tree's is
stale, so an edit anywhere in the cone re-evaluates every point, and an
edit outside it (``codegen/``, ``bench/``, the CLI) leaves every entry
valid.  Entries of another format (format 3 recorded a per-module
``versions`` map instead) are stale-format misses.

**Storage** is delegated to a :class:`~repro.explore.backends.CacheBackend`
(:mod:`repro.explore.backends`): a plain path selects a directory
where each writer process appends entries to its own segment file
(:class:`~repro.explore.backends.DirBackend`, so concurrent sweeps
sharing a directory never write into one file), while a
``sqlite:PATH`` URI stores the same documents in a single WAL-mode
SQLite file (:class:`~repro.explore.backends.SqliteBackend`) that
concurrent sweeps can share safely.  Entry semantics — checksums,
stamps, quarantine — are identical either way.

**Integrity**: every entry carries a sha256 ``checksum`` over its own
canonical JSON, so bit rot and torn writes are detected even when the
damage still parses (compact entries are verified by their bytes, see
:func:`_checksum_ok`).  Damaged entries (truncated writes, garbage
bytes, schema drift, checksum mismatch) are treated as misses but
*moved aside* into the backend's quarantine area — a
:class:`CacheCorruptionWarning` names the location, the re-evaluated
point overwrites cleanly, and the damaged bytes survive for
post-mortem.  :meth:`ResultCache.fsck` scans every entry offline (CLI:
``repro cache fsck [--repair] [--gc]``); :meth:`ResultCache.gc` prunes
aged quarantine blobs and stale entries (another format or another
code stamp) and lets the backend compact what is left;
:meth:`ResultCache.reap_tmp` clears what writers killed mid-write left
behind (a segment's torn tail, a compaction's temp file), which the
executor calls at every sweep start.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.explore.backends import CacheBackend, backend_for
from repro.explore.query import DesignQuery, DesignRecord
from repro.explore.versions import VersionRegistry, query_vector

__all__ = [
    "ResultCache",
    "CacheCorruptionWarning",
    "ENTRY_FORMAT",
    "FsckReport",
    "GcReport",
]

#: Schema version of cache entries; bump on incompatible layout changes.
#: Format 3 added the entry-envelope ``checksum``; format 4 replaced
#: the per-module ``versions`` map with one ``stamp`` string.
ENTRY_FORMAT = 4

#: Default age (seconds) past which a torn segment tail or an orphaned
#: ``.*.tmp`` file is considered dead rather than a concurrent shard's
#: in-flight write; ``gc`` compacts only segments idle this long.
TMP_MAX_AGE = 60.0

#: Default ``gc`` pruning age, in days: quarantined corpses and stale
#: entries younger than this are kept (they may still be wanted for
#: post-mortem, or by a checkout that still has the code they match).
GC_DAYS = 30.0


class CacheCorruptionWarning(UserWarning):
    """A cache entry existed but could not be decoded or verified."""


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _entry_checksum(doc: dict) -> str:
    """sha256 over the entry's canonical JSON, minus the checksum itself."""
    body = {key: value for key, value in doc.items() if key != "checksum"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


#: ``raw[:13]`` of a compact entry; its hex checksum is ``raw[13:77]``,
#: then ``",`` and the rest of the canonical body from ``raw[79:]``.
_COMPACT_HEAD = b'{"checksum":"'


def _checksum_ok(raw: bytes, doc: dict) -> bool:
    """Whether ``doc``, parsed from ``raw``, matches its stored checksum.

    Fast path for the compact layout :meth:`ResultCache.put` writes:
    when sha256 of ``b"{" + raw[79:]`` equals the hex in ``raw[13:77]``,
    the stored body is byte for byte the canonical dump the checksum
    was computed over, so re-encoding ``doc`` would give the same
    verdict.  A body that holds the token ``"checksum"`` could smuggle
    a second top-level checksum key past the prefix, so it takes the
    slow path, as does every other layout and every mismatch.
    """
    body = raw[79:]
    if (
        raw[:13] == _COMPACT_HEAD
        and raw[77:79] == b'",'
        and b'"checksum"' not in body
        and hashlib.sha256(b"{" + body).hexdigest().encode() == raw[13:77]
    ):
        return True
    return doc.get("checksum") == _entry_checksum(doc)


def _decode_entry(raw: bytes) -> "dict | None":
    """The verified current-format document in ``raw``.

    None for an entry of another format (a stale-format miss); raises
    ``ValueError``/``TypeError``/``KeyError`` for a damaged one.
    """
    # UnicodeDecodeError is a ValueError: a torn write that is no
    # longer UTF-8 counts as damaged.
    doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict):
        raise TypeError("entry is not a JSON object")
    if doc.get("format") != ENTRY_FORMAT:
        return None
    if not _checksum_ok(raw, doc):
        raise ValueError("entry checksum mismatch (torn write or bit rot)")
    if not isinstance(doc["stamp"], str):
        raise TypeError("entry's stamp is not a string")
    return doc


@dataclass(frozen=True)
class FsckReport:
    """What :meth:`ResultCache.fsck` found (and, with repair, did).

    ``corrupt`` and ``tmp`` are the offending locations; ``quarantined``
    / ``reaped`` count repair actions actually taken (0 on a scan-only
    pass).
    """

    scanned: int
    ok: int
    stale_format: int
    corrupt: "tuple[str, ...]"
    tmp: "tuple[str, ...]"
    quarantined: int = 0
    reaped: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.tmp

    def summary(self) -> str:
        text = (
            f"{self.scanned} entries: {self.ok} ok, "
            f"{self.stale_format} stale format, "
            f"{len(self.corrupt)} corrupt, "
            f"{len(self.tmp)} orphaned tmp"
        )
        if self.quarantined or self.reaped:
            text += (
                f"; repaired: {self.quarantined} quarantined, "
                f"{self.reaped} tmp reaped"
            )
        return text


@dataclass(frozen=True)
class GcReport:
    """What :meth:`ResultCache.gc` pruned."""

    quarantine_removed: int
    stale_removed: int
    bytes_reclaimed: int

    def summary(self) -> str:
        return (
            f"gc: pruned {self.quarantine_removed} quarantined + "
            f"{self.stale_removed} stale entries, reclaimed "
            f"{self.bytes_reclaimed} bytes"
        )


class ResultCache:
    """Cached :class:`DesignRecord` documents over a storage backend.

    ``root`` names the storage: a path or ``CacheBackend`` for the
    segment directory, or a ``sqlite:PATH`` URI for the single-file
    SQLite backend (see :mod:`repro.explore.backends`).

    ``registry`` selects the source tree lookups compare stamps
    against; tests point it at a copied tree to exercise real
    edit-then-resume flows.  The two directions differ on purpose:

    * **lookups** compare with the stamp of a fresh registry rebuilt by
      :meth:`refresh` — which the executor calls at the start of every
      run — so a long-lived process (REPL, notebook) notices source
      edits made between sweeps and marks entries stale;
    * **writes** record :func:`~repro.explore.versions.query_vector`,
      the stamp of the installed tree taken once per process before the
      evaluation stack is imported — the fingerprint of the code
      actually *loaded*.  After an in-process edit, re-evaluated points
      still run the old imported modules; stamping them with the edited
      files' hashes would launder stale results as current.  Recording
      the as-loaded stamp keeps those entries stale until a fresh
      process re-evaluates them with the new code.

    ``fsync=True`` (directory backend) additionally fsyncs each entry
    as it is appended, so a machine crash cannot lose an entry the
    sweep reported written — off by default (the checksum catches torn
    writes either way, at read time instead of write time).
    """

    def __init__(
        self,
        root: "CacheBackend | Path | str",
        registry: "VersionRegistry | None" = None,
        fsync: bool = False,
    ):
        self.backend = backend_for(root, fsync=fsync)
        self.registry = registry or VersionRegistry()

    def describe(self) -> str:
        return self.backend.describe()

    def refresh(self) -> None:
        """Re-read the source tree for subsequent lookups.

        Rebuilds the lookup registry over the same root, dropping its
        cached hashes and stamp, so edits made since the last sweep are
        observed even when the cache (or its executor) instance is
        reused; the backend likewise forgets its index, so entries
        other processes stored since are seen.  The write stamp is
        deliberately untouched — it fingerprints the loaded code, not
        the current disk state.
        """
        self.registry = VersionRegistry(
            self.registry.root, self.registry.package
        )
        self.backend.refresh()

    def lookup(self, query: DesignQuery) -> "tuple[DesignRecord | None, str]":
        """``(record, status)`` with status in hit/miss/stale/corrupt.

        * ``miss`` — no entry stored;
        * ``corrupt`` — an entry exists but cannot be decoded, fails
          its checksum, or holds the record of another query (warned,
          moved to quarantine);
        * ``stale`` — decodes, but its stamp differs from the current
          tree's (or the entry is of another format);
        * ``hit`` — decodes, verifies, and its stamp matches.
        """
        digest = query.digest()
        raw = self.backend.read(digest)
        if raw is None:
            return None, "miss"
        try:
            doc = _decode_entry(raw)
            if doc is None:
                return None, "stale"
            key = query.key()
            if doc["query"] != key or doc["record"]["query"] != key:
                raise ValueError("entry holds the record of another query")
            seconds = doc.get("seconds")
            record = DesignRecord.from_dict(
                doc["record"],
                seconds=float(seconds)
                if isinstance(seconds, (int, float)) else None,
                query=query,
            )
        except (KeyError, TypeError, ValueError) as exc:
            moved = self.backend.quarantine(digest)
            where = f" (moved to {moved})" if moved else ""
            warnings.warn(
                f"quarantined corrupted cache entry "
                f"{self.backend.describe()}#{digest}{where}: {exc}",
                CacheCorruptionWarning,
                stacklevel=2,
            )
            return None, "corrupt"
        if doc["stamp"] != self.registry.stamp():
            return None, "stale"
        return record, "hit"

    def get(self, query: DesignQuery) -> "DesignRecord | None":
        """The cached record for ``query``, or None on miss/stale/corrupt."""
        record, _ = self.lookup(query)
        return record

    def put(self, record: DesignRecord) -> str:
        """Persist ``record``; returns the entry location."""
        if record.truncated:
            raise ReproError(
                f"refusing to cache truncated {record.query.allocator} "
                f"record for {record.query.kernel}: an anytime incumbent "
                f"under a node/time box is not the point's exact answer"
            )
        body = _canonical({
            "format": ENTRY_FORMAT,
            "query": record.query.key(),
            "record": record.to_dict(),
            "seconds": record.seconds,
            "stamp": query_vector(),
        })
        checksum = hashlib.sha256(body.encode()).hexdigest()
        # "checksum" sorts first, so this is the canonical dump of the
        # whole entry (the layout _checksum_ok verifies by its bytes).
        return self.backend.write(
            record.query.digest(), f'{{"checksum":"{checksum}",{body[1:]}'
        )

    def corrupt_entry(self, query: DesignQuery) -> None:
        """Chaos hook: damage ``query``'s stored entry like a torn write.

        Replaces one character mid-text through the backend's own
        ``read`` and ``write``, so every backend is damaged alike; used
        by the ``corrupt-write`` fault kind.
        """
        digest = query.digest()
        raw = self.backend.read(digest)
        if not raw:
            return
        text = raw.decode("utf-8", "surrogateescape")
        middle = len(text) // 2
        flipped = "~" if text[middle] != "~" else "!"
        self.backend.write(digest, text[:middle] + flipped + text[middle + 1:])

    def reap_tmp(self, max_age: float = TMP_MAX_AGE) -> int:
        """Clear in-flight-write leftovers older than ``max_age`` seconds.

        A writer killed mid-append leaves a torn segment tail, and a
        ``gc`` killed mid-compaction a ``.*.tmp`` file; anything younger
        than ``max_age`` may be a concurrent shard's in-flight write and
        is left alone.  Returns how many were cleared (always 0 on the
        SQLite backend — WAL transactions leave no orphans).
        """
        return self._reap(self.backend.tmp_orphans(max_age))

    def _reap(self, orphans: "list[str]") -> int:
        """Delete the listed tmp files; how many went."""
        return sum(1 for orphan in orphans if self.backend.remove_tmp(orphan))

    def _verify_text(
        self, name: str, raw: "bytes | None", stamp: "str | None" = None
    ) -> "str | None":
        """Why the blob stored as ``name`` is not a valid current-format
        entry (None if ok).  An entry filed under another query's
        digest, or whose record names another query, is corrupt; given
        a ``stamp``, a valid entry recording another one is stale."""
        if raw is None:
            return "stale-format"  # vanished mid-scan: not this scan's problem
        try:
            doc = _decode_entry(raw)
            if doc is None:
                return "stale-format"
            query = DesignQuery.from_key(doc["query"])
            DesignRecord.from_dict(doc["record"], query=query)
            if query.digest() != name or doc["record"]["query"] != doc["query"]:
                return "corrupt"
        except (KeyError, TypeError, ValueError):
            return "corrupt"
        if stamp is not None and doc["stamp"] != stamp:
            return "stale"
        return None

    def fsck(
        self, repair: bool = False, tmp_max_age: float = TMP_MAX_AGE
    ) -> FsckReport:
        """Scan every entry: decode, checksum, record round-trip.

        With ``repair=True``, corrupt entries are moved to quarantine
        and in-flight-write leftovers older than ``tmp_max_age`` are
        cleared.
        Stale-format entries (older schema versions) are reported but
        left in place — they are harmless misses, and pruning them is
        :meth:`gc`'s job.
        """
        self.backend.refresh()  # what is stored now, not at the last sweep
        scanned = ok = stale_format = 0
        corrupt: list[str] = []
        quarantined = reaped = 0
        for entry in self.backend.entries():
            scanned += 1
            problem = self._verify_text(
                entry.name, self.backend.read(entry.name)
            )
            if problem is None:
                ok += 1
            elif problem == "stale-format":
                stale_format += 1
            else:
                corrupt.append(entry.location)
                if repair and self.backend.quarantine(entry.name) is not None:
                    quarantined += 1
        tmp = self.backend.tmp_orphans(tmp_max_age)
        if repair:
            reaped = self._reap(tmp)
        return FsckReport(
            scanned=scanned,
            ok=ok,
            stale_format=stale_format,
            corrupt=tuple(corrupt),
            tmp=tuple(tmp),
            quarantined=quarantined,
            reaped=reaped,
        )

    def gc(self, days: float = GC_DAYS) -> GcReport:
        """Prune quarantined corpses and stale entries.

        All accumulate forever otherwise: quarantine keeps every damaged
        blob for post-mortem, and entries written by an older schema or
        under another code stamp than the current tree's are misses
        that no sweep overwrites unless it re-runs their query.
        Anything younger than ``days`` is kept.  Entries at the current
        stamp are never touched, whatever their age.  This is the one
        maintenance pass that takes the stamp (hashing the cone).  Last,
        the backend compacts its storage unless a writer was active
        within :data:`TMP_MAX_AGE`.
        """
        if days < 0:
            raise ReproError(f"gc days must be >= 0, got {days}")
        cutoff = days * 86400.0
        self.backend.refresh()
        stamp = self.registry.stamp()
        quarantine_removed = stale_removed = freed = 0
        for blob in self.backend.quarantined():
            if blob.age > cutoff:
                freed += self.backend.delete_quarantined(blob.name)
                quarantine_removed += 1
        for entry in self.backend.entries():
            if entry.age <= cutoff:
                continue
            problem = self._verify_text(
                entry.name, self.backend.read(entry.name), stamp
            )
            if problem not in ("stale", "stale-format"):
                continue  # current or corrupt: not gc's to delete
            freed += self.backend.delete(entry.name)
            stale_removed += 1
        self.backend.compact(TMP_MAX_AGE)
        return GcReport(
            quarantine_removed=quarantine_removed,
            stale_removed=stale_removed,
            bytes_reclaimed=freed,
        )

    def __len__(self) -> int:
        return self.backend.count()
