"""A shared database: one catalog plus its transaction coordinator.

Historically every :func:`repro.connect` call owned a private
:class:`~repro.catalog.catalog.Catalog`, so there was exactly one
session per database and "concurrent transactions" could not exist. A
:class:`Database` is the thing multiple connections can now share::

    db = repro.Database()
    writer = repro.connect(database=db)
    reader = repro.connect(database=db, engine="vectorized")

Each connection keeps its own pipeline, plan cache and execution engine
(connections stay single-threaded, per PEP 249 ``threadsafety = 1``,
and sessions meant for different threads should each be created in
their own thread), but they see the same tables — with snapshot
isolation between their transactions, coordinated by the database's
:class:`~repro.storage.mvcc.TransactionManager`.

A database is in-memory by default; ``Database(path="...")`` opens (or
creates) a durable one backed by a checkpoint snapshot plus a
write-ahead log (:mod:`repro.storage.persist`): commits are logged and
made durable *before* they install, recovery replays the committed
prefix after a crash, and ``CHECKPOINT`` (or a log-size threshold)
rewrites the snapshot and rotates the log.

DDL (CREATE/DROP of tables and views) is non-transactional and is not
synchronized beyond the GIL; perform schema changes from a single
session before concurrent traffic starts.
"""

from __future__ import annotations

from typing import Optional

from ..catalog.catalog import Catalog
from ..storage.mvcc import Transaction, TransactionManager
from .matview import MatviewMaintainer


class Database:
    """Shared storage: a catalog and the MVCC transaction manager
    coordinating the connections attached to it — optionally durable.

    ``path`` — a data directory to open/create (``None``: in-memory).
    ``durability`` — how hard COMMIT lands in the log: ``"fsync"``
    (default; survives power loss), ``"os"`` (survives process crash)
    or ``"off"`` (buffered). ``checkpoint_bytes`` — rewrite the
    snapshot whenever the log outgrows this (0 disables the automatic
    checkpointer; ``CHECKPOINT`` still works).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        durability: str = "fsync",
        checkpoint_bytes: Optional[int] = None,
    ) -> None:
        self.catalog = Catalog()
        # Snapshots must cover materialized-view heaps too, so a reader
        # sees base tables and view contents from one consistent cut.
        self.manager = TransactionManager(
            lambda: [entry.table for entry in self.catalog.tables]
            + [entry.table for entry in self.catalog.matviews]
        )
        self.matview_maintainer = MatviewMaintainer(self.catalog, self.manager.lock)
        self.manager.matview_maintainer = self.matview_maintainer.on_commit
        self.storage = None
        if path is not None:
            from ..storage.persist import DEFAULT_CHECKPOINT_BYTES, PersistentStore

            self.storage = PersistentStore(
                path,
                durability=durability,
                checkpoint_bytes=(
                    DEFAULT_CHECKPOINT_BYTES
                    if checkpoint_bytes is None
                    else checkpoint_bytes
                ),
            )
            self.storage.open_into(self)

    @property
    def persistent(self) -> bool:
        """Whether this database is backed by a data directory."""
        return self.storage is not None

    def begin(self) -> Transaction:
        """Start a snapshot-isolated transaction (used by connections;
        prefer SQL ``BEGIN`` or the connection API)."""
        return self.manager.begin()

    def connect(self, **kwargs) -> "Connection":  # noqa: F821 - forward ref
        """Open a new session on this database (same keyword arguments
        as :func:`repro.connect`)."""
        from .connection import Connection

        return Connection(database=self, **kwargs)

    def checkpoint(self) -> bool:
        """Write a durable snapshot and rotate the write-ahead log.
        Returns False (a no-op) for in-memory databases."""
        if self.storage is None:
            return False
        self.storage.checkpoint()
        return True

    def gc_stats(self) -> dict:
        """Version-GC counters (see
        :meth:`repro.storage.mvcc.TransactionManager.gc_stats`)."""
        return self.manager.gc_stats()

    def matview_stats(self) -> dict:
        """Materialized-view bookkeeping: per-view size and freshness
        (``stale``: not fresh for the latest committed state — flagged
        stale, or behind its base tables until a read catches it up),
        plus the maintainer's cumulative counters. Commit time:
        ``incremental_commits`` (SPJ views maintained in the commit) and
        ``stale_reasons`` (commits the hook could not follow for a view,
        per reason — the view is left behind, not marked stale;
        ``stale_marks`` their sum). Read time: ``catch_ups`` (refreshes
        computed from the base tables' deltas) and ``recompute_reasons``
        (refreshes recomputed instead, per reason; ``recomputes`` their
        sum)."""
        maintainer = self.matview_maintainer
        catalog = self.catalog
        return {
            "views": {
                entry.name: {
                    "rows": len(entry.table._state[0]),
                    "stale": not catalog.matview_fresh(entry),
                    "delta_safe": entry.delta_safe,
                    "with_provenance": entry.with_provenance,
                }
                for entry in catalog.matviews
            },
            "incremental_commits": maintainer.incremental_commits,
            "stale_marks": sum(maintainer.stale_reasons.values()),
            "stale_reasons": dict(maintainer.stale_reasons),
            "rows_added": maintainer.rows_added,
            "rows_removed": maintainer.rows_removed,
            "catch_ups": maintainer.catch_ups,
            "recomputes": sum(maintainer.recompute_reasons.values()),
            "recompute_reasons": dict(maintainer.recompute_reasons),
        }

    def wal_stats(self) -> dict:
        """Durability counters: log size, appends/fsyncs, checkpoints,
        and the last recovery's replay/truncation work. For in-memory
        databases only ``{"enabled": False}``."""
        if self.storage is None:
            return {"enabled": False}
        return self.storage.wal_stats()

    def close(self) -> None:
        """Flush and detach the persistence layer (idempotent; a no-op
        for in-memory databases). Connections stay usable, but further
        writes are no longer logged."""
        if self.storage is not None:
            self.storage.close()
            self.storage = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tables = len(self.catalog.tables)
        suffix = f" at {self.storage.path!r}" if self.storage is not None else ""
        return f"<repro.Database {tables} table(s){suffix}>"
