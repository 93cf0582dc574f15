"""Durable databases: checkpoint snapshots plus write-ahead recovery.

A persistent database is a directory::

    <data-dir>/
        MANIFEST.json      # catalog + counters + heap-file map (atomic)
        wal.log            # commit/DDL records since the manifest
        heap/
            g00000002-t0000.heap   # one JSON heap file per table

The manifest is the *checkpoint*: a consistent snapshot of every table,
the schema catalog and the MVCC counters, written via temp-file +
``rename`` so a crash mid-checkpoint always leaves either the old or
the new manifest intact (heap files are generation-numbered, so a new
checkpoint never overwrites a file the old manifest still references).
Everything since the checkpoint lives in the write-ahead log
(:mod:`repro.storage.wal`): row-level commit deltas stamped with their
MVCC commit version — each one the commit's own
:class:`~repro.storage.mvcc.CommitChange` resolved to rows, never a
comparison of table states — full states for coarse and
non-transactional writes, and DDL records.

Recovery = load the manifest, replay every complete WAL record whose
sequence number exceeds the manifest's ``checkpoint_seq`` (making
replay idempotent across repeated recoveries), truncate any torn tail,
and raise the process-global MVCC counters above everything the log
recorded — so a kill at any byte offset recovers exactly the durable
committed prefix, with version stamps that stay monotone across
restarts.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING, Optional

from ..catalog.schema import Attribute, Schema
from ..datatypes import from_jsonsafe_value, to_jsonsafe_value, type_from_name
from ..errors import OperationalError
from . import mvcc
from .wal import DURABILITY_MODES, WriteAheadLog, read_records, truncate_log

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog, TableEntry, ViewEntry
    from ..engine.database import Database
    from .table import HeapTable, Row

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
HEAP_DIR = "heap"
FORMAT_VERSION = 1

# Rewrite the snapshot once the log outgrows this many bytes (tunable
# per database; CHECKPOINT forces one regardless).
DEFAULT_CHECKPOINT_BYTES = 16 * 1024 * 1024


def _encode_rows(rows: list["Row"]) -> list[list]:
    return [[to_jsonsafe_value(v) for v in row] for row in rows]


def _decode_rows(rows: list[list]) -> list["Row"]:
    return [tuple(from_jsonsafe_value(v) for v in row) for row in rows]


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


def _write_atomically(path: str, data: bytes) -> None:
    """Write *data* to *path* via temp file + fsync + atomic rename."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
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
        os.makedirs(os.path.join(self.path, HEAP_DIR), exist_ok=True)
        self._lock = threading.RLock()
        self._database: Optional["Database"] = None
        self._wal: Optional[WriteAheadLog] = None
        self._generation = 0
        # Telemetry.
        self.records_replayed = 0
        self.torn_bytes_truncated = 0
        self.recovery_seconds = 0.0
        self.checkpoint_count = 0
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
        checkpoint_seq = 0
        max_stamp = max_seq = max_row = 0
        manifest = self._load_manifest()
        if manifest is not None:
            if manifest.get("format") != FORMAT_VERSION:
                raise OperationalError(
                    f"unsupported data-directory format "
                    f"{manifest.get('format')!r} at {self.path}"
                )
            self._generation = int(manifest.get("generation", 0))
            checkpoint_seq = int(manifest.get("checkpoint_seq", 0))
            counters = manifest.get("counters", {})
            max_stamp = int(counters.get("stamp", 0))
            max_seq = int(counters.get("commit_seq", 0))
            max_row = int(counters.get("row_id", 0))
            for spec in manifest.get("tables", []):
                self._load_table(catalog, spec)
            for spec in manifest.get("views", []):
                self._load_view(catalog, spec)
            for spec in manifest.get("matviews", []):
                self._load_matview(catalog, spec)
            catalog.version = int(manifest.get("catalog_version", catalog.version))
            self.last_checkpoint_seq = checkpoint_seq
        wal_path = os.path.join(self.path, WAL_NAME)
        if os.path.exists(wal_path):
            records, durable, total = read_records(wal_path)
            if durable < total:
                truncate_log(wal_path, durable)
                self.torn_bytes_truncated += total - durable
            for record in records:
                seq = int(record.get("seq", 0))
                max_seq = max(max_seq, seq)
                max_stamp = max(max_stamp, int(record.get("stamp", 0)))
                max_row = max(max_row, int(record.get("row_id", 0)))
                if seq <= checkpoint_seq:
                    continue  # already inside the checkpoint snapshot
                self._replay(catalog, record)
                self.records_replayed += 1
        # Future stamps/sequences/row ids must exceed everything any
        # durable record ever named, or a post-recovery commit could
        # collide with a logged one.
        mvcc.raise_counters(stamp=max_stamp, commit_seq=max_seq, row_id=max_row)
        self._wal = WriteAheadLog(wal_path, self.durability)
        self._attach(database)
        self.recovery_seconds = time.perf_counter() - started

    def _load_manifest(self) -> Optional[dict]:
        path = os.path.join(self.path, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            return json.load(handle)

    def _load_table(self, catalog: "Catalog", spec: dict) -> None:
        schema = Schema(
            Attribute(name, type_from_name(type_name))
            for name, type_name in spec["columns"]
        )
        entry = catalog.create_table(
            spec["name"], schema, provenance_attrs=tuple(spec.get("provenance", ()))
        )
        with open(os.path.join(self.path, spec["heap"]), "rb") as handle:
            heap = json.load(handle)
        entry.table._state = (
            _decode_rows(heap["rows"]),
            int(spec["version"]),
            list(heap["ids"]),
        )

    def _load_view(self, catalog: "Catalog", spec: dict) -> None:
        from ..sql.parser import Parser

        catalog.create_view(
            spec["name"],
            Parser(spec["sql"]).parse_query_expr(),
            spec["sql"],
            or_replace=True,
            provenance_attrs=tuple(spec.get("provenance", ())),
        )

    def _create_matview_entry(self, catalog: "Catalog", spec: dict):
        """Shared by manifest load and WAL replay: re-register a
        materialized view from its durable description. Maintenance
        state that cannot be persisted (the compiled program, per-row
        source ids) is rebuilt by the first refresh; until then the view
        degrades to stale-and-recompute on its first base write."""
        from ..sql.parser import Parser

        schema = Schema(
            Attribute(name, type_from_name(type_name))
            for name, type_name in spec["columns"]
        )
        entry = catalog.create_matview(
            spec["name"],
            schema,
            Parser(spec["sql"]).parse_query_expr(),
            spec["sql"],
            with_provenance=bool(spec.get("with_provenance", False)),
            provenance_attrs=tuple(spec.get("provenance", ())),
        )
        entry.stale = bool(spec.get("stale", False))
        entry.delta_safe = bool(spec.get("delta_safe", False))
        entry.base_tables = tuple(spec.get("base_tables", ()))
        entry.base_versions = {
            str(name): int(version)
            for name, version in spec.get("base_versions", {}).items()
        }
        return entry

    def _load_matview(self, catalog: "Catalog", spec: dict) -> None:
        entry = self._create_matview_entry(catalog, spec)
        with open(os.path.join(self.path, spec["heap"]), "rb") as handle:
            heap = json.load(handle)
        entry.table._state = (
            _decode_rows(heap["rows"]),
            int(spec["version"]),
            list(heap["ids"]),
        )

    def _replay(self, catalog: "Catalog", record: dict) -> None:
        kind = record.get("kind")
        if kind == "commit":
            for name, delta in record["tables"].items():
                entry = catalog.scan_entry(name)
                self._replay_delta(entry.table, delta)
                versions = delta.get("matview", {}).get("base_versions")
                if versions:
                    entry.base_versions = {
                        str(t): int(v) for t, v in versions.items()
                    }
        elif kind == "direct":
            table = catalog.scan_entry(record["table"]).table
            table._state = (
                _decode_rows(record["rows"]),
                int(record["version"]),
                list(record["ids"]),
            )
        elif kind == "create_table":
            schema = Schema(
                Attribute(name, type_from_name(type_name))
                for name, type_name in record["columns"]
            )
            entry = catalog.create_table(
                record["name"],
                schema,
                provenance_attrs=tuple(record.get("provenance", ())),
            )
            entry.table._state = ([], int(record["version"]), [])
        elif kind == "create_view":
            self._load_view(catalog, record)
        elif kind == "create_matview":
            self._create_matview_entry(catalog, record)
        elif kind == "matview_stale":
            if catalog.has_matview(record["name"]):
                catalog.matview(record["name"]).stale = True
        elif kind == "matview_fresh":
            if catalog.has_matview(record["name"]):
                entry = catalog.matview(record["name"])
                entry.stale = False
                entry.delta_safe = bool(record.get("delta_safe", False))
                entry.base_tables = tuple(record.get("base_tables", ()))
                entry.base_versions = {
                    str(t): int(v)
                    for t, v in record.get("base_versions", {}).items()
                }
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
        # Unknown kinds are skipped (forward compatibility).

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
                new_rows.insert(index, tuple(from_jsonsafe_value(v) for v in row))
                new_ids.insert(index, rid)
            table._state = (new_rows, int(delta["version"]), new_ids)
            return
        if "state" in delta:
            new_rows = _decode_rows(delta["state"]["rows"])
            new_ids = list(delta["state"]["ids"])
        else:
            deleted = set(delta.get("delete", ()))
            updated = {
                rid: tuple(from_jsonsafe_value(v) for v in row)
                for rid, row in delta.get("update", ())
            }
            new_rows, new_ids = [], []
            for row, rid in zip(rows, ids):
                if rid in deleted:
                    continue
                new_rows.append(updated.get(rid, row))
                new_ids.append(rid)
            for rid, row in delta.get("insert", ()):
                new_rows.append(tuple(from_jsonsafe_value(v) for v in row))
                new_ids.append(rid)
        table._state = (new_rows, int(delta["version"]), new_ids)

    def _attach(self, database: "Database") -> None:
        database.catalog.observer = self
        database.manager.on_commit = self._on_commit
        database.manager.on_commit_complete = self._maybe_checkpoint
        for entry in database.catalog.tables + database.catalog.matviews:
            entry.table.on_direct_install = self._on_direct_install

    # ------------------------------------------------------------------
    # Logging hooks
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        with self._lock:
            if self._wal is None:
                raise OperationalError(
                    f"persistent database at {self.path} is closed"
                )
            self._wal.append(record)

    @staticmethod
    def _counter_fields(seq: int) -> dict:
        # Every record carries the counter high-water at append time, so
        # recovery can raise the global counters above anything durable.
        return {
            "seq": seq,
            "stamp": mvcc.current_stamp(),
            "row_id": mvcc.current_row_id(),
        }

    def _on_commit(self, seq: int, changes: list["mvcc.CommitChange"]) -> None:
        """The manager's pre-install hook: one WAL record per commit,
        durable before any table state changes."""
        tables: dict[str, dict] = {}
        for change in changes:
            tables[change.table.name] = self._delta_for(change)
        record = {"kind": "commit", "tables": tables}
        record.update(self._counter_fields(seq))
        self._append(record)

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
                    [index, rid, [to_jsonsafe_value(v) for v in row]]
                    for index, rid, row in wal_delta["insert_at"]
                ],
                "base_versions": dict(wal_delta.get("base_versions", {})),
            }
            return delta
        if change.written is None:
            # Whole-table writes (TRUNCATE) have no meaningful row
            # delta: log the full replacement state.
            delta["state"] = {
                "rows": _encode_rows(change.rows),
                "ids": list(change.ids),
            }
            return delta
        deleted, updated, inserted = change.resolve()
        for key, pairs in (("insert", inserted), ("update", updated)):
            if pairs:
                delta[key] = [
                    [rid, [to_jsonsafe_value(v) for v in row]] for rid, row in pairs
                ]
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
        """Non-transactional writes carry no write set; log the full
        replacement state."""
        record = {
            "kind": "direct",
            "table": table.name,
            "version": version,
            "rows": _encode_rows(rows),
            "ids": list(ids),
        }
        record.update(self._counter_fields(seq))
        self._append(record)

    # -- catalog observer (DDL is non-transactional) --------------------
    def on_create_table(self, entry: "TableEntry") -> None:
        entry.table.on_direct_install = self._on_direct_install
        record = {
            "kind": "create_table",
            "name": entry.name,
            "columns": [[a.name, a.type.value] for a in entry.schema],
            "provenance": list(entry.provenance_attrs),
            "version": entry.table._state[1],
        }
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    def on_drop_relation(self, relation: str, name: str) -> None:
        record = {"kind": "drop", "relation": relation, "name": name}
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    def on_create_view(self, entry: "ViewEntry") -> None:
        record = {
            "kind": "create_view",
            "name": entry.name,
            "sql": entry.sql,
            "provenance": list(entry.provenance_attrs),
        }
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    def on_create_matview(self, entry) -> None:
        entry.table.on_direct_install = self._on_direct_install
        record = {
            "kind": "create_matview",
            "name": entry.name,
            "sql": entry.sql,
            "with_provenance": entry.with_provenance,
            "columns": [[a.name, a.type.value] for a in entry.schema],
            "provenance": list(entry.provenance_attrs),
            "version": entry.table._state[1],
        }
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    def on_matview_stale(self, name: str) -> None:
        record = {"kind": "matview_stale", "name": name}
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    def on_matview_fresh(self, name: str) -> None:
        # Fired after CREATE and REFRESH, when the entry's maintenance
        # bookkeeping is final — recording it lets recovery trust the
        # replayed contents without a recompute on first read.
        database = self._database
        if database is None:
            return
        entry = database.catalog.matview(name)
        record = {
            "kind": "matview_fresh",
            "name": name,
            "delta_safe": entry.delta_safe,
            "base_tables": list(entry.base_tables),
            "base_versions": dict(entry.base_versions),
        }
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    def on_register_provenance(self, name: str, attrs: tuple[str, ...]) -> None:
        record = {"kind": "provenance", "name": name, "attrs": list(attrs)}
        record.update(self._counter_fields(mvcc.next_commit_seq()))
        self._append(record)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        """Post-commit threshold check (runs with no locks held)."""
        wal = self._wal
        if wal is not None and self.checkpoint_bytes and (
            wal.size_bytes >= self.checkpoint_bytes
        ):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Rewrite the snapshot at the current committed state and
        rotate the log. Crash-safe at every step: heap files are
        generation-numbered (never overwritten while referenced), the
        manifest swaps in atomically, and the WAL resets only after the
        new manifest is durable."""
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
            generation = self._generation + 1
            seq = mvcc.current_commit_seq()
            tables = []
            for index, entry in enumerate(database.catalog.tables):
                rows, version, ids = entry.table._state
                heap_rel = os.path.join(
                    HEAP_DIR, f"g{generation:08d}-t{index:04d}.heap"
                )
                heap_data = json.dumps(
                    {"rows": _encode_rows(rows), "ids": list(ids)},
                    separators=(",", ":"),
                    allow_nan=False,
                ).encode("utf-8")
                _write_atomically(os.path.join(self.path, heap_rel), heap_data)
                tables.append(
                    {
                        "name": entry.name,
                        "columns": [[a.name, a.type.value] for a in entry.schema],
                        "provenance": list(entry.provenance_attrs),
                        "version": version,
                        "heap": heap_rel,
                    }
                )
            matviews = []
            for index, entry in enumerate(database.catalog.matviews):
                rows, version, ids = entry.table._state
                heap_rel = os.path.join(
                    HEAP_DIR, f"g{generation:08d}-m{index:04d}.heap"
                )
                heap_data = json.dumps(
                    {"rows": _encode_rows(rows), "ids": list(ids)},
                    separators=(",", ":"),
                    allow_nan=False,
                ).encode("utf-8")
                _write_atomically(os.path.join(self.path, heap_rel), heap_data)
                matviews.append(
                    {
                        "name": entry.name,
                        "sql": entry.sql,
                        "with_provenance": entry.with_provenance,
                        "columns": [[a.name, a.type.value] for a in entry.schema],
                        "provenance": list(entry.provenance_attrs),
                        "version": version,
                        "heap": heap_rel,
                        "stale": entry.stale,
                        "delta_safe": entry.delta_safe,
                        "base_tables": list(entry.base_tables),
                        "base_versions": dict(entry.base_versions),
                    }
                )
            manifest = {
                "format": FORMAT_VERSION,
                "generation": generation,
                "checkpoint_seq": seq,
                "catalog_version": database.catalog.version,
                "counters": {
                    "stamp": mvcc.current_stamp(),
                    "commit_seq": seq,
                    "row_id": mvcc.current_row_id(),
                },
                "tables": tables,
                "matviews": matviews,
                "views": [
                    {
                        "name": view.name,
                        "sql": view.sql,
                        "provenance": list(view.provenance_attrs),
                    }
                    for view in database.catalog.views
                ],
            }
            _write_atomically(
                os.path.join(self.path, MANIFEST_NAME),
                json.dumps(manifest, separators=(",", ":"), allow_nan=False).encode(
                    "utf-8"
                ),
            )
            # The snapshot now covers every logged record (their seqs
            # are all <= checkpoint_seq): the log can restart empty.
            self._wal.reset()
            self._generation = generation
            self.checkpoint_count += 1
            self.last_checkpoint_seq = seq
            self._prune_heap_files(
                {spec["heap"] for spec in tables}
                | {spec["heap"] for spec in matviews}
            )

    def _prune_heap_files(self, referenced: set) -> None:
        """Drop heap files no manifest references anymore (best-effort:
        a crash here just leaves garbage for the next checkpoint)."""
        heap_dir = os.path.join(self.path, HEAP_DIR)
        keep = {os.path.basename(path) for path in referenced}
        for name in os.listdir(heap_dir):
            if name not in keep:
                try:
                    os.unlink(os.path.join(heap_dir, name))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    # ------------------------------------------------------------------
    # Stats / lifecycle
    # ------------------------------------------------------------------
    def wal_stats(self) -> dict:
        """Durability counters for operators (server STATS includes
        them): log size and append/fsync activity, checkpoint history,
        and what the last recovery replayed/truncated."""
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
                for entry in database.catalog.tables + database.catalog.matviews:
                    entry.table.on_direct_install = None
            wal, self._wal = self._wal, None
            if wal is not None:
                wal.close()
