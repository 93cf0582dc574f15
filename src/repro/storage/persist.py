"""Durable databases: a checkpoint log plus a write-ahead log, one replay.

A persistent database is a directory of two logs in one record
vocabulary (:mod:`repro.storage.wal` frames both)::

    <data-dir>/
        snapshot.log       # the checkpoint: the state as of checkpoint_seq
        wal.log            # commit/DDL records since the checkpoint

``wal.log`` holds what happened since the checkpoint: row-level commit
deltas stamped with their MVCC commit version — each one the commit's
own :class:`~repro.storage.mvcc.CommitChange` resolved to rows, never a
comparison of table states — full states (``direct``) for a
materialized view's recomputed contents, and DDL records.
``snapshot.log`` says the same things about the state *at* the
checkpoint, in the records the logging hooks would have written had
the database been built that instant: a ``checkpoint`` header (format,
catalog version, and the counter fields every record carries — its
``seq`` is the checkpoint's), then ``create_table`` + ``direct`` per
table, ``create_view`` per view,
``create_matview`` + ``direct`` + ``matview_fresh`` (+ ``matview_stale``)
per materialized view, and the header once more as the closing frame.
Every record kind has one builder, shared by the hook that logs it and
by :meth:`PersistentStore.checkpoint`, and one branch in
:meth:`PersistentStore._replay`.

A checkpoint streams those frames into ``snapshot.log.tmp``, fsyncs it,
renames it over ``snapshot.log`` and only then empties ``wal.log``, so a
crash at any step leaves a complete snapshot plus a log that covers
everything after it.

Recovery = replay ``snapshot.log``, then every complete ``wal.log``
record whose sequence number exceeds the checkpoint's (which makes
replay idempotent across repeated recoveries and across a crash between
the rename and the log reset), truncate any torn log tail, and raise the
process-global MVCC counters above everything either log recorded — so a
kill at any byte offset recovers exactly the durable committed prefix,
with version stamps that stay monotone across restarts. A snapshot is
all-or-nothing: one that is torn, corrupt or of another format, and a
format-1 directory (``MANIFEST.json`` + heap files), are refused with an
:class:`~repro.errors.OperationalError` rather than partly recovered.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import closing
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from ..catalog.schema import Attribute, Schema
from ..datatypes import from_jsonsafe_value, to_jsonsafe_value, type_from_name
from ..errors import OperationalError
from . import mvcc
from .wal import (
    DURABILITY_MODES,
    WriteAheadLog,
    encode_record,
    read_records,
    truncate_log,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog, MatviewEntry, TableEntry, ViewEntry
    from ..engine.database import Database
    from .table import HeapTable, Row

SNAPSHOT_NAME = "snapshot.log"
WAL_NAME = "wal.log"
V1_MANIFEST_NAME = "MANIFEST.json"  # recognised only to refuse the directory
FORMAT_VERSION = 2

# Rewrite the snapshot once the log outgrows this many bytes (tunable
# per database; CHECKPOINT forces one regardless).
DEFAULT_CHECKPOINT_BYTES = 16 * 1024 * 1024


def _encode_row(row: "Row") -> list:
    return [to_jsonsafe_value(v) for v in row]


def _decode_row(row: list) -> "Row":
    return tuple(from_jsonsafe_value(v) for v in row)


def _decode_pairs(pairs: Iterable[list]) -> list[tuple[int, "Row"]]:
    return [(rid, _decode_row(row)) for rid, row in pairs]


def _columns(schema: Schema) -> list[list[str]]:
    return [[a.name, a.type.value] for a in schema]


def _schema(columns: list[list[str]]) -> Schema:
    return Schema(Attribute(name, type_from_name(t)) for name, t in columns)


def _versions(versions: dict) -> dict[str, int]:
    return {str(name): int(version) for name, version in versions.items()}


# ---------------------------------------------------------------------------
# Record builders: the one description of each relation-level fact, used
# by the hook that logs it and by the checkpoint that restates it.
# ---------------------------------------------------------------------------


def _create_table_record(entry: "TableEntry") -> dict:
    return {
        "kind": "create_table",
        "name": entry.name,
        "columns": _columns(entry.schema),
        "provenance": list(entry.provenance_attrs),
        "version": entry.table._state[1],
    }


def _direct_record(name: str, rows: list["Row"], version: int, ids: list[int]) -> dict:
    return {
        "kind": "direct",
        "table": name,
        "version": version,
        "rows": [_encode_row(row) for row in rows],
        "ids": list(ids),
    }


def _create_view_record(entry: "ViewEntry") -> dict:
    return {
        "kind": "create_view",
        "name": entry.name,
        "sql": entry.sql,
        "provenance": list(entry.provenance_attrs),
    }


def _create_matview_record(entry: "MatviewEntry") -> dict:
    return {
        "kind": "create_matview",
        "name": entry.name,
        "sql": entry.sql,
        "with_provenance": entry.with_provenance,
        "columns": _columns(entry.schema),
        "provenance": list(entry.provenance_attrs),
        "version": entry.table._state[1],
    }


def _matview_fresh_record(entry: "MatviewEntry") -> dict:
    return {
        "kind": "matview_fresh",
        "name": entry.name,
        "delta_safe": entry.delta_safe,
        "base_tables": list(entry.base_tables),
        "base_versions": dict(entry.base_versions),
    }


def _matview_stale_record(name: str) -> dict:
    return {"kind": "matview_stale", "name": name}


def _snapshot_records(catalog: "Catalog") -> Iterator[dict]:
    """The catalog and every heap as the records that would rebuild
    them, one at a time (a checkpoint holds one table's encoding, never
    the database's)."""
    for entry in catalog.tables:
        yield _create_table_record(entry)
        yield _direct_record(entry.name, *entry.table._state)
    for view in catalog.views:
        yield _create_view_record(view)
    for entry in catalog.matviews:
        yield _create_matview_record(entry)
        yield _direct_record(entry.name, *entry.table._state)
        # Maintenance bookkeeping survives staleness (a stale view still
        # knows its base tables), exactly as the log would replay it.
        yield _matview_fresh_record(entry)
        if entry.stale:
            yield _matview_stale_record(entry.name)


def _fsync_directory(path: str) -> None:
    """Make a rename inside *path* durable (POSIX: fsync the directory)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomically(path: str, chunks: Iterable[bytes]) -> None:
    """Stream *chunks* to *path* via temp file + fsync + atomic rename."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(os.path.dirname(path) or ".")


class PersistentStore:
    """The durability engine behind ``repro.Database(path=...)``.

    Owns the data directory, the open WAL, the checkpointer and the
    recovery path; attaches itself to a database's transaction manager
    (commit hook), catalog (DDL observer) and heap tables (direct-write
    hook) so every state change is logged before it installs.
    """

    def __init__(
        self,
        path: str,
        durability: str = "fsync",
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
    ):
        if durability not in DURABILITY_MODES:
            raise OperationalError(
                f"unknown durability mode {durability!r} "
                f"(valid: {', '.join(DURABILITY_MODES)})"
            )
        self.path = os.path.abspath(path)
        self.durability = durability
        self.checkpoint_bytes = checkpoint_bytes
        os.makedirs(self.path, exist_ok=True)
        self._lock = threading.RLock()
        self._database: Optional["Database"] = None
        self._wal: Optional[WriteAheadLog] = None
        # Telemetry.
        self.records_replayed = 0
        self.torn_bytes_truncated = 0
        self.recovery_seconds = 0.0
        self.checkpoint_count = 0
        self.checkpoint_failures = 0
        self.last_checkpoint_seq = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def open_into(self, database: "Database") -> None:
        """Recover this directory's state into *database* (whose catalog
        must be empty) and attach the durability hooks."""
        started = time.perf_counter()
        self._database = database
        catalog = database.catalog
        if os.path.exists(os.path.join(self.path, V1_MANIFEST_NAME)):
            raise OperationalError(
                f"{self.path} is a format-1 data directory "
                f"({V1_MANIFEST_NAME} + heap files); this version reads only "
                f"format {FORMAT_VERSION} ({SNAPSHOT_NAME} + {WAL_NAME})"
            )
        snapshot_path = os.path.join(self.path, SNAPSHOT_NAME)
        if os.path.exists(snapshot_path + ".tmp"):
            # A checkpoint that died before its rename: never the truth.
            os.unlink(snapshot_path + ".tmp")
        checkpoint: dict = {}
        if os.path.exists(snapshot_path):
            checkpoint = self._replay_snapshot(catalog, snapshot_path)
        high = {key: int(checkpoint.get(key, 0)) for key in ("seq", "stamp", "row_id")}
        self.last_checkpoint_seq = high["seq"]
        wal_path = os.path.join(self.path, WAL_NAME)
        if os.path.exists(wal_path):
            durable = 0
            for record, durable in read_records(wal_path):
                for key in high:
                    high[key] = max(high[key], int(record.get(key, 0)))
                # At or below the checkpoint's seq: already inside the
                # snapshot (the log was not reset after it, or not yet).
                if int(record.get("seq", 0)) > self.last_checkpoint_seq:
                    self._replay(catalog, record)
                    self.records_replayed += 1
            torn = os.path.getsize(wal_path) - durable
            if torn:
                truncate_log(wal_path, durable)
                self.torn_bytes_truncated += torn
        # Future stamps/sequences/row ids must exceed everything any
        # durable record ever named, or a post-recovery commit could
        # collide with a logged one.
        mvcc.raise_counters(
            stamp=high["stamp"], commit_seq=high["seq"], row_id=high["row_id"]
        )
        self._wal = WriteAheadLog(wal_path, self.durability)
        self._attach(database)
        self.recovery_seconds = time.perf_counter() - started

    def _replay_snapshot(self, catalog: "Catalog", path: str) -> dict:
        """Replay the checkpoint at *path*, all of it or refuse: returns
        its header. A snapshot only ever appears by atomic rename, so
        anything short of header ... header is damage, not a crash."""
        with closing(read_records(path)) as frames:
            header, end = next(frames, ({}, 0))
            if header.get("kind") != "checkpoint":
                raise OperationalError(f"{path} does not start with a checkpoint header")
            if header.get("format") != FORMAT_VERSION:
                raise OperationalError(
                    f"unsupported data-directory format "
                    f"{header.get('format')!r} at {self.path}"
                )
            record = None
            for record, end in frames:
                self._replay(catalog, record)
        if record != header or end != os.path.getsize(path):
            raise OperationalError(
                f"{path} is torn or corrupt after byte {end}; "
                "refusing to recover a partial checkpoint"
            )
        catalog.version = int(header["catalog_version"])
        return header

    def _replay(self, catalog: "Catalog", record: dict) -> None:
        from ..sql.parser import Parser  # storage sits below the SQL layer

        kind = record.get("kind")
        if kind == "commit":
            for name, delta in record["tables"].items():
                entry = catalog.scan_entry(name)
                self._replay_delta(entry.table, delta)
                versions = delta.get("matview", {}).get("base_versions")
                if versions:
                    entry.base_versions = _versions(versions)
        elif kind == "direct":
            catalog.scan_entry(record["table"]).table._state = (
                [_decode_row(row) for row in record["rows"]],
                int(record["version"]),
                list(record["ids"]),
            )
        elif kind == "create_table":
            entry = catalog.create_table(
                record["name"],
                _schema(record["columns"]),
                provenance_attrs=tuple(record.get("provenance", ())),
            )
            entry.table._state = ([], int(record["version"]), [])
        elif kind == "create_view":
            catalog.create_view(
                record["name"],
                Parser(record["sql"]).parse_query_expr(),
                record["sql"],
                or_replace=True,
                provenance_attrs=tuple(record.get("provenance", ())),
            )
        elif kind == "create_matview":
            # Maintenance state that cannot be persisted (the compiled
            # program, the pinned base states and the fold) is rebuilt by
            # the first refresh; until then a base write leaves the view
            # behind and its next read recomputes it.
            catalog.create_matview(
                record["name"],
                _schema(record["columns"]),
                Parser(record["sql"]).parse_query_expr(),
                record["sql"],
                with_provenance=bool(record.get("with_provenance", False)),
                provenance_attrs=tuple(record.get("provenance", ())),
            )
        elif kind == "matview_stale":
            if catalog.has_matview(record["name"]):
                catalog.matview(record["name"]).stale = True
        elif kind == "matview_fresh":
            if catalog.has_matview(record["name"]):
                entry = catalog.matview(record["name"])
                entry.stale = False
                entry.delta_safe = bool(record.get("delta_safe", False))
                entry.base_tables = tuple(record.get("base_tables", ()))
                entry.base_versions = _versions(record.get("base_versions", {}))
        elif kind == "drop":
            if record["relation"] == "table":
                catalog.drop_table(record["name"], if_exists=True)
            elif record["relation"] == "materialized view":
                catalog.drop_matview(record["name"], if_exists=True)
            else:
                catalog.drop_view(record["name"], if_exists=True)
        elif kind == "provenance":
            catalog.register_provenance_attrs(
                record["name"], tuple(record["attrs"])
            )
        # Anything else is skipped: the snapshot's closing header, and
        # kinds a later version may add (forward compatibility).

    def _replay_delta(self, table: "HeapTable", delta: dict) -> None:
        rows, _, ids = table._state
        matview = delta.get("matview")
        if matview is not None:
            # Positioned matview delta: drop the removed row ids, then
            # apply the inserts in ascending final-index order (so each
            # ``insert`` lands at its recorded position).
            remove = set(matview["remove"])
            new_rows, new_ids = [], []
            for row, rid in zip(rows, ids):
                if rid in remove:
                    continue
                new_rows.append(row)
                new_ids.append(rid)
            for index, rid, row in matview["insert_at"]:
                new_rows.insert(index, _decode_row(row))
                new_ids.insert(index, rid)
        elif "state" in delta:
            # A full-state commit delta: no longer written (every commit
            # carries a row-level write set), still read in older logs.
            new_rows = [_decode_row(row) for row in delta["state"]["rows"]]
            new_ids = list(delta["state"]["ids"])
        else:
            new_rows, new_ids = mvcc.apply_change(
                rows,
                ids,
                delta.get("delete", ()),
                _decode_pairs(delta.get("update", ())),
                _decode_pairs(delta.get("insert", ())),
            )
        table._state = (new_rows, int(delta["version"]), new_ids)

    def _attach(self, database: "Database") -> None:
        database.catalog.observer = self
        database.manager.on_commit = self._on_commit
        database.manager.on_commit_complete = self._maybe_checkpoint
        for entry in database.catalog.matviews:
            entry.table.on_direct_install = self._on_direct_install

    # ------------------------------------------------------------------
    # Logging hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _counter_fields(seq: int) -> dict:
        # Every record carries the counter high-water at append time, so
        # recovery can raise the global counters above anything durable.
        return {
            "seq": seq,
            "stamp": mvcc.current_stamp(),
            "row_id": mvcc.current_row_id(),
        }

    def _log(self, record: dict, seq: Optional[int] = None) -> None:
        """Stamp *record* (with *seq*, or the next one: DDL is its own
        commit) and append it to the write-ahead log."""
        record.update(
            self._counter_fields(mvcc.next_commit_seq() if seq is None else seq)
        )
        with self._lock:
            if self._wal is None:
                raise OperationalError(
                    f"persistent database at {self.path} is closed"
                )
            self._wal.append(record)

    def _on_commit(self, seq: int, changes: list["mvcc.CommitChange"]) -> None:
        """The manager's pre-install hook: one WAL record per commit,
        durable before any table state changes."""
        tables = {change.table.name: self._delta_for(change) for change in changes}
        self._log({"kind": "commit", "tables": tables}, seq)

    def _delta_for(self, change: "mvcc.CommitChange") -> dict:
        delta: dict = {"version": change.version}
        wal_delta = getattr(change, "wal_delta", None)
        if wal_delta is not None:
            # Maintainer-generated matview update: the compact positioned
            # delta (plus the base versions it advances to) instead of a
            # full-state dump of the view's contents.
            delta["matview"] = {
                "remove": list(wal_delta["remove"]),
                "insert_at": [
                    [index, rid, _encode_row(row)]
                    for index, rid, row in wal_delta["insert_at"]
                ],
                "base_versions": dict(wal_delta.get("base_versions", {})),
            }
            return delta
        # A base-table commit: its row-level write set, resolved to rows
        # (no-WHERE DELETEs included — every committed row is written).
        deleted, updated, inserted = change.resolve()
        for key, pairs in (("insert", inserted), ("update", updated)):
            if pairs:
                delta[key] = [[rid, _encode_row(row)] for rid, row in pairs]
        if deleted:
            delta["delete"] = deleted
        return delta

    def _on_direct_install(
        self,
        table: "HeapTable",
        seq: int,
        version: int,
        rows: list["Row"],
        ids: list[int],
    ) -> None:
        """A materialized view's recomputed contents, installed outside
        any transaction: log the full state."""
        self._log(_direct_record(table.name, rows, version, ids), seq)

    # -- catalog observer (DDL is non-transactional) --------------------
    def on_create_table(self, entry: "TableEntry") -> None:
        self._log(_create_table_record(entry))

    def on_drop_relation(self, relation: str, name: str) -> None:
        self._log({"kind": "drop", "relation": relation, "name": name})

    def on_create_view(self, entry: "ViewEntry") -> None:
        self._log(_create_view_record(entry))

    def on_create_matview(self, entry: "MatviewEntry") -> None:
        entry.table.on_direct_install = self._on_direct_install
        self._log(_create_matview_record(entry))

    def on_matview_stale(self, name: str) -> None:
        self._log(_matview_stale_record(name))

    def on_matview_fresh(self, name: str) -> None:
        # Fired after CREATE and REFRESH, when the entry's maintenance
        # bookkeeping is final — recording it lets recovery trust the
        # replayed contents without a recompute on first read.
        database = self._database
        if database is not None:
            self._log(_matview_fresh_record(database.catalog.matview(name)))

    def on_register_provenance(self, name: str, attrs: tuple[str, ...]) -> None:
        self._log({"kind": "provenance", "name": name, "attrs": list(attrs)})

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        """Post-commit threshold check (runs with no locks held). The
        commit is durable already, so an ``OSError`` here only counts:
        the log stays, and the next commit over the threshold retries."""
        wal = self._wal
        if wal is not None and self.checkpoint_bytes and (
            wal.size_bytes >= self.checkpoint_bytes
        ):
            try:
                self.checkpoint()
            except OSError:
                with self._lock:
                    self.checkpoint_failures += 1

    def checkpoint(self) -> None:
        """Restate the current committed state as ``snapshot.log`` and
        rotate the log. Crash-safe at every step: the new snapshot swaps
        in atomically, and the WAL resets only after it is durable (a
        crash in between replays nothing twice — every logged seq is at
        or below the new checkpoint's)."""
        database = self._database
        if database is None:
            raise OperationalError("persistent store is not attached")
        # Lock order: manager (stops commits mid-capture) then store
        # (stops concurrent DDL appends and other checkpointers).
        with database.manager.lock, self._lock:
            if self._wal is None:
                raise OperationalError(
                    f"persistent database at {self.path} is closed"
                )
            seq = mvcc.current_commit_seq()
            header = {
                "kind": "checkpoint",
                "format": FORMAT_VERSION,
                "catalog_version": database.catalog.version,
            }
            header.update(self._counter_fields(seq))
            # The header also closes the file, so a snapshot cut at a
            # frame boundary is as detectable as one cut inside a frame.
            records = chain([header], _snapshot_records(database.catalog), [header])
            _write_atomically(
                os.path.join(self.path, SNAPSHOT_NAME), map(encode_record, records)
            )
            # The snapshot now covers every logged record (their seqs
            # are all <= checkpoint_seq): the log can restart empty.
            self._wal.reset()
            self.checkpoint_count += 1
            self.last_checkpoint_seq = seq

    # ------------------------------------------------------------------
    # Stats / lifecycle
    # ------------------------------------------------------------------
    def wal_stats(self) -> dict:
        """Durability counters for operators (server STATS includes
        them): log size and append/fsync activity, checkpoint history
        (``checkpoint_failures``: automatic checkpoints that raised
        ``OSError``), and what the last recovery replayed/truncated."""
        with self._lock:
            wal = self._wal
            return {
                "enabled": True,
                "path": self.path,
                "durability": self.durability,
                "wal_bytes": wal.size_bytes if wal is not None else 0,
                "records_appended": wal.records_appended if wal is not None else 0,
                "bytes_appended": wal.bytes_appended if wal is not None else 0,
                "fsyncs": wal.fsync_count if wal is not None else 0,
                "checkpoints": self.checkpoint_count,
                "checkpoint_failures": self.checkpoint_failures,
                "checkpoint_seq": self.last_checkpoint_seq,
                "records_replayed": self.records_replayed,
                "torn_bytes_truncated": self.torn_bytes_truncated,
                "recovery_ms": round(self.recovery_seconds * 1000.0, 3),
            }

    def close(self) -> None:
        """Flush and close the log and detach every hook (the database
        reverts to in-memory behavior; reopen with a new Database)."""
        with self._lock:
            database, self._database = self._database, None
            if database is not None:
                database.catalog.observer = None
                database.manager.on_commit = None
                database.manager.on_commit_complete = None
                for entry in database.catalog.matviews:
                    entry.table.on_direct_install = None
            wal, self._wal = self._wal, None
            if wal is not None:
                wal.close()
