"""The system catalog: tables, views and provenance registrations.

Views are stored as their defining query AST (the analyzer unfolds them,
mirroring the "view unfolding" step in the paper's Figure 3 pipeline).

Eager provenance support (paper §1: "decide whether he will store the
provenance of a query for later reuse"): when a table or view is created
from a ``SELECT PROVENANCE`` query, the catalog records which of its
columns are provenance attributes. A later query over that relation can
then resume the rewrite from the stored columns instead of recomputing
provenance — the incremental provenance computation of §2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import CatalogError
from ..storage.table import HeapTable
from .schema import Schema
from .stats import TableStats, compute_table_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sql import ast


@dataclass
class TableEntry:
    """A stored base table."""

    name: str
    table: HeapTable
    # Provenance metadata for eagerly materialized provenance (column
    # names that carry provenance, in schema order).
    provenance_attrs: tuple[str, ...] = ()
    # Small statistics cache keyed by version stamp, so sessions at
    # different snapshots (a long reader plus a committing writer) do
    # not evict each other's entry on every statement. Bounded to a few
    # stamps; values pair (stamp -> stats) at insertion, so a reader can
    # never see stats of one version under the stamp of another.
    _stats_cache: dict[int, TableStats] = field(default_factory=dict, repr=False)

    # How many distinct visible versions keep cached statistics at once
    # (concurrent sessions rarely straddle more snapshots than this).
    _STATS_CACHE_SIZE = 4

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def stats(self) -> TableStats:
        """Statistics of the *visible* version of the table (the active
        transaction's snapshot, else the latest committed state), cached
        per version stamp. Because stamps are unique per distinct state
        — transaction-local states included — a transaction's private
        statistics can never be served to another session, and rolling
        back restores the committed stamp and with it the committed
        statistics."""
        version = self.table.version
        stats = self._stats_cache.get(version)
        if stats is None:
            stats = compute_table_stats(self.table)
            self._stats_cache[version] = stats
            while len(self._stats_cache) > self._STATS_CACHE_SIZE:
                # pop(key, None): a racing thread may have evicted the
                # same oldest entry already.
                self._stats_cache.pop(next(iter(self._stats_cache)), None)
        return stats


@dataclass
class MatviewEntry(TableEntry):
    """A materialized view: a stored heap table plus its defining query.

    The heap makes MVCC snapshots, statistics and the WAL cover the
    stored rows exactly like a base table; the query (and its SQL text,
    which survives checkpoints) lets the engine refresh or incrementally
    maintain the contents. ``stale`` marks contents that no longer match
    the base tables however they change (a view redefinition, a failed
    refresh, a refresh in progress). A view whose ``base_versions``
    merely lag the tables is *behind*, not stale: aggregate and
    non-maintainable views fall behind on every base commit, an SPJ view
    on a commit the maintainer could not follow. Reads outside a
    transaction bring stale and behind matviews up to date before
    planning; reads inside one unfold them.

    The maintenance fields below are owned by :mod:`repro.engine.matview`:
    ``base_versions`` maps each base table to the heap version stamp the
    stored rows were computed from; ``delta_safe`` says the view is
    maintained at commit (SPJ); ``state`` is the
    :class:`~repro.engine.matview.MatviewState` a maintenance step
    continues from — the pinned base-table states and the fold (the
    derived rows, each keyed by its tuple of contributing base-row ids,
    in that order; or the per-group fold). The state and the program do
    not survive a restart.
    """

    query: "ast.QueryExpr" = None  # type: ignore[assignment]
    sql: str = ""
    with_provenance: bool = False
    stale: bool = False
    base_tables: tuple[str, ...] = ()
    base_versions: dict[str, int] = field(default_factory=dict)
    delta_safe: bool = False
    state: object = field(default=None, repr=False)
    # Compiled MatviewProgram (engine.matview); rebuilt lazily after
    # recovery or refresh.
    program: object = field(default=None, repr=False)


@dataclass
class ViewEntry:
    """A stored view: name, defining query AST, and its SQL text."""

    name: str
    query: "ast.QueryExpr"
    sql: str
    provenance_attrs: tuple[str, ...] = ()


class Catalog:
    """Name -> relation mapping with case-insensitive lookup.

    ``version`` increments on every schema-level change (create/drop of a
    relation, provenance registration). Row-level DML does not bump it —
    plans scan heap tables in place, so cached plans stay valid across
    inserts and deletes but not across schema changes. The engine's plan
    cache keys on this counter (:mod:`repro.engine.pipeline`).
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._views: dict[str, ViewEntry] = {}
        self._matviews: dict[str, MatviewEntry] = {}
        self.version = 0
        # Schema-change observer (set by repro.storage.persist so DDL —
        # which is non-transactional and bypasses the commit hook — still
        # reaches the write-ahead log). None for in-memory databases.
        self.observer = None

    # -- tables ---------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        if_not_exists: bool = False,
        provenance_attrs: tuple[str, ...] = (),
    ) -> TableEntry:
        key = name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            if if_not_exists and key in self._tables:
                return self._tables[key]
            raise CatalogError(f"relation {name!r} already exists")
        entry = TableEntry(name=name, table=HeapTable(name, schema), provenance_attrs=provenance_attrs)
        self._tables[key] = entry
        self.version += 1
        if self.observer is not None:
            self.observer.on_create_table(entry)
        return entry

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return False
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.version += 1
        if self.observer is not None:
            self.observer.on_drop_relation("table", name)
        return True

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def tables(self) -> list[TableEntry]:
        return list(self._tables.values())

    # -- views ----------------------------------------------------------
    def create_view(
        self,
        name: str,
        query: "ast.QueryExpr",
        sql: str,
        or_replace: bool = False,
        provenance_attrs: tuple[str, ...] = (),
    ) -> ViewEntry:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"relation {name!r} already exists as a table")
        if key in self._matviews:
            raise CatalogError(f"relation {name!r} already exists as a materialized view")
        if key in self._views and not or_replace:
            raise CatalogError(f"view {name!r} already exists")
        entry = ViewEntry(name=name, query=query, sql=sql, provenance_attrs=provenance_attrs)
        self._views[key] = entry
        self.version += 1
        if self.observer is not None:
            self.observer.on_create_view(entry)
        return entry

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return False
            raise CatalogError(f"view {name!r} does not exist")
        del self._views[key]
        self.version += 1
        if self.observer is not None:
            self.observer.on_drop_relation("view", name)
        return True

    def view(self, name: str) -> ViewEntry:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"view {name!r} does not exist") from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    @property
    def views(self) -> list[ViewEntry]:
        return list(self._views.values())

    # -- materialized views ---------------------------------------------
    def create_matview(
        self,
        name: str,
        schema: Schema,
        query: "ast.QueryExpr",
        sql: str,
        with_provenance: bool = False,
        provenance_attrs: tuple[str, ...] = (),
    ) -> MatviewEntry:
        key = name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            raise CatalogError(f"relation {name!r} already exists")
        entry = MatviewEntry(
            name=name,
            table=HeapTable(name, schema),
            provenance_attrs=provenance_attrs,
            query=query,
            sql=sql,
            with_provenance=with_provenance,
        )
        self._matviews[key] = entry
        self.version += 1
        if self.observer is not None:
            self.observer.on_create_matview(entry)
        return entry

    def drop_matview(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        if key not in self._matviews:
            if if_exists:
                return False
            raise CatalogError(f"materialized view {name!r} does not exist")
        del self._matviews[key]
        self.version += 1
        if self.observer is not None:
            self.observer.on_drop_relation("materialized view", name)
        return True

    def matview(self, name: str) -> MatviewEntry:
        try:
            return self._matviews[name.lower()]
        except KeyError:
            raise CatalogError(f"materialized view {name!r} does not exist") from None

    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    @property
    def matviews(self) -> list[MatviewEntry]:
        return list(self._matviews.values())

    def matview_fresh(self, entry: MatviewEntry) -> bool:
        """Whether *entry*'s stored rows match its base tables **as
        visible to the caller's snapshot** — ``table.version`` resolves
        through the active transaction, so a transaction that wrote a
        base table sees a version mismatch here and must unfold (its own
        uncommitted writes are not in the stored heap). This is the
        single freshness predicate: the analyzer's scan-vs-unfold
        decision and the plan-level revalidation both call it."""
        if entry.stale:
            return False
        for name in entry.base_tables:
            if not self.has_table(name):
                return False
            if self.table(name).table.version != entry.base_versions.get(name):
                return False
        return True

    def mark_matview_stale(self, name: str) -> None:
        """Flag a materialized view as out of date. Bumps the catalog
        version only on the fresh -> stale transition, so cached plans
        that scan the stored heap stop being served; repeated marks are
        idempotent and free."""
        entry = self.matview(name)
        if entry.stale:
            return
        entry.stale = True
        self.version += 1
        if self.observer is not None:
            self.observer.on_matview_stale(entry.name)

    def set_matview_fresh(self, name: str) -> None:
        """Clear the stale flag after a successful refresh (bumps the
        catalog version so plans that unfolded the stale definition are
        invalidated in favour of heap scans)."""
        entry = self.matview(name)
        entry.stale = False
        self.version += 1
        if self.observer is not None:
            self.observer.on_matview_fresh(entry.name)

    def advance_matview(self, entry: MatviewEntry, base_versions: dict[str, int]) -> None:
        """Record that a fresh-flagged view's stored rows now reflect
        *base_versions* (a read-time catch-up). No catalog version bump:
        plans that scan the stored heap stay valid, and plans that
        unfolded the view while it was behind revalidate per execution.
        The WAL observer still records the new bookkeeping, so recovery
        trusts the caught-up contents."""
        entry.base_versions = base_versions
        if self.observer is not None:
            self.observer.on_matview_fresh(entry.name)

    def scan_entry(self, name: str) -> TableEntry:
        """Read-path resolution: the heap-backed entry for *name*, which
        is either a base table or a materialized view. DML and DDL sites
        keep using the strict :meth:`table` / :meth:`matview` lookups."""
        key = name.lower()
        entry = self._tables.get(key)
        if entry is not None:
            return entry
        entry = self._matviews.get(key)
        if entry is not None:
            return entry
        raise CatalogError(f"table {name!r} does not exist")

    # -- generic --------------------------------------------------------
    def has_relation(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._views or key in self._matviews

    def relation_names(self) -> list[str]:
        return sorted(
            [e.name for e in self._tables.values()]
            + [e.name for e in self._views.values()]
            + [e.name for e in self._matviews.values()]
        )

    def register_provenance_attrs(self, name: str, attrs: tuple[str, ...]) -> None:
        """Record that relation *name* stores provenance in columns *attrs*
        (eager provenance registration)."""
        key = name.lower()
        if key in self._tables:
            self._tables[key].provenance_attrs = attrs
        elif key in self._views:
            self._views[key].provenance_attrs = attrs
        elif key in self._matviews:
            self._matviews[key].provenance_attrs = attrs
        else:
            raise CatalogError(f"relation {name!r} does not exist")
        self.version += 1
        if self.observer is not None:
            self.observer.on_register_provenance(name, attrs)

    def provenance_attrs(self, name: str) -> tuple[str, ...]:
        key = name.lower()
        if key in self._tables:
            return self._tables[key].provenance_attrs
        if key in self._views:
            return self._views[key].provenance_attrs
        if key in self._matviews:
            return self._matviews[key].provenance_attrs
        raise CatalogError(f"relation {name!r} does not exist")
