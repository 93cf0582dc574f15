"""SQLite pushdown backend: runtime layer.

The paper's Perm prototype computes provenance by rewriting query trees
and letting PostgreSQL execute the rewritten query. This backend
reproduces that architecture against the DBMS Python ships with: the
provenance-rewritten plan is compiled to a single SQL statement
(:mod:`repro.backend.compile`) and executed by an in-memory ``sqlite3``
database whose tables lazily mirror the engine's heap tables.

Pieces:

* :class:`SQLiteBackend` — the :class:`~repro.backend.runtime
  .MirrorAdapter` for ``engine="sqlite"``: owns the ``sqlite3``
  connection, keeps an indexed replica of each catalog table (see
  "Mirror lifecycle" below), registers the
  ``repro_*`` user-defined functions that give SQLite *exactly* the
  scalar semantics of :mod:`repro.scalars` (including raised
  errors, which travel through a side channel because sqlite3 swallows
  exception details), and materializes row-engine fallback fragments
  into temp tables.
* :class:`SQLiteQueryOp` — the physical plan object the planner emits
  for ``engine="sqlite"``; the generic
  :class:`~repro.backend.runtime.PushdownQueryOp` under its historic
  name.

Value mapping: INT/FLOAT/TEXT/NULL map 1:1 onto SQLite storage classes;
mirror columns are declared without a type (blank affinity) so values
round-trip without coercion. BOOL has no SQLite storage class: ``True``
/``False`` become 1/0 on the way in and are restored on the way out
using the plan's static output types.

Mirror lifecycle: a table is **loaded** in full the first time a
statement scans it, with the mirror's ``rowid`` set to the heap's hidden
row id (so ``ORDER BY rowid`` is heap order and a changed row can be
addressed directly). From then on the mirror remembers only the version
stamp it is at; when the visible stamp differs it asks the heap for the
row-level change between the two (:meth:`~repro.storage.table.HeapTable
.changes_since`) and applies it as ``DELETE`` / ``UPDATE`` / ``INSERT``
by rowid — work proportional to the change. It **reloads** (the same
code as the first load) only when it must: the table object or schema
changed, the heap's commit log has no way between the two stamps (a
view's recomputed contents, a transaction's own uncommitted writes,
recovery, entries trimmed once no live snapshot needed them), the
delta exceeds a fixed share of the table, or the mirror is positional
(row ids not ascending — a maintained view's heap, say — or a subclass
with ``delta_sync = False``). Each reload records its reason in
:attr:`~repro.backend.runtime.MirrorAdapter.reload_reasons`. Join-key
indexes the compiler requests (:meth:`SQLiteBackend.ensure_index`) are
built once per table, kept current by the row-level statements, and
rebuilt after a reload.

The partitioned variant (:mod:`repro.backend.partition`) subclasses
:class:`SQLiteBackend` per shard, overriding only the mirror hooks
(:meth:`SQLiteBackend._mirror_columns` /
:meth:`SQLiteBackend._mirror_rows` / :meth:`SQLiteBackend.scan_ordinal`)
to store each table slice with an explicit global-position column; a
slice's positions shift under any delete, so shards always reload.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..datatypes import SQLType, Value
from ..errors import ExecutionError, ProgrammingError
from ..executor.expr_eval import Row
from ..scalars import SCALARS
from .dialects.base import quote_identifier_always as quote_identifier
from .dialects.sqlite import INT64_MAX, INT64_MIN, SQLiteDialect
from .runtime import (  # noqa: F401  (re-exported: historic import surface)
    IntegerRangeEscape,
    LimitBind,
    MirrorAdapter,
    PushdownQueryOp,
    SubplanSlot,
    adapt_row,
    adapt_value,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog
    from ..storage.table import HeapTable

MIN_SQLITE_VERSION = (3, 25, 0)  # window functions (ordering channel)
FULL_JOIN_VERSION = (3, 39, 0)  # RIGHT / FULL OUTER JOIN support
# From 3.44.0 SQLite computes sum()/avg() with Kahan-Babuska compensated
# summation — more accurate, but not bit-identical to the engines' naive
# left-to-right accumulation. On such hosts float sum/avg pushdown uses
# the repro_fsum/repro_favg aggregate UDFs instead of native sum/avg.
KAHAN_SUM_VERSION = (3, 44, 0)

_ROWID_NAMES = ("rowid", "_rowid_", "oid")

#: A delta touching more than one row in this many reloads instead: past
#: that, per-row statements cost more than one bulk load.
_RELOAD_SHARE = 4


class _Mirror:
    """What the backend remembers about one mirrored table: which heap
    object, at which version stamp and schema — never the rows. ``rowid``
    is the rowid alias the mirror stores heap row ids under (``None``: a
    positional mirror no delta can address); ``unmirrorable`` marks a
    version whose load hit a value SQLite cannot hold."""

    __slots__ = ("heap", "version", "schema", "rowid", "unmirrorable")

    def __init__(self, heap, version, schema, rowid, unmirrorable=False):
        self.heap = heap
        self.version = version
        self.schema = schema
        self.rowid = rowid
        self.unmirrorable = unmirrorable


class SQLiteQueryOp(PushdownQueryOp):
    """The physical plan object for ``engine="sqlite"`` (the generic
    pushdown operator under its historic name)."""

    __slots__ = ()


class SQLiteBackend(MirrorAdapter):
    """One in-memory SQLite database mirroring one catalog."""

    dialect_class = SQLiteDialect

    #: Whether mirrors are keyed on heap row ids and follow the heap by
    #: row-level deltas. Subclasses whose :meth:`_mirror_rows` stores
    #: something other than the plain rows turn it off and always reload.
    delta_sync = True

    def __init__(self, catalog: "Catalog"):
        if sqlite3.sqlite_version_info < MIN_SQLITE_VERSION:
            raise ProgrammingError(
                "the sqlite execution engine requires SQLite >= "
                + ".".join(str(v) for v in MIN_SQLITE_VERSION)
                + f" (found {sqlite3.sqlite_version})"
            )
        super().__init__(catalog)
        # check_same_thread=False: a server session's statements all run
        # serialized (one request at a time), but possibly on different
        # worker-pool threads; sqlite3's same-thread check would reject
        # that even though access is never concurrent.
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        self.supports_full_join = sqlite3.sqlite_version_info >= FULL_JOIN_VERSION
        self.native_float_agg = sqlite3.sqlite_version_info < KAHAN_SUM_VERSION
        self._mirror: dict[str, _Mirror] = {}  # by lowercased table name
        # table key -> requested index column tuples, in request order
        # (remembered across reloads, which drop the indexes themselves).
        self._indexes: dict[str, list[tuple[str, ...]]] = {}
        self._register_udfs()

    # ------------------------------------------------------------------
    # User-defined functions: exact repro.scalars semantics inside SQLite
    # ------------------------------------------------------------------
    def _register_udfs(self) -> None:
        # Every table entry — SQL-visible functions and the compiler's
        # exact helpers alike — runs as its own Python kernel inside
        # SQLite; a result beyond int64 escapes to the row engine via
        # _wrap_udf's range check instead of wrapping or losing precision.
        for name, entry in SCALARS.items():
            self.connection.create_function(
                f"repro_{name}", -1, self._wrap_udf(entry.kernel), deterministic=True
            )
        # Sublink slot access: constant within one statement execution
        # (the executing op installs every state before running), so
        # deterministic is safe and lets SQLite hoist it out of loops.
        self.connection.create_function(
            "repro_slot", 1, self._wrap_udf(self._read_slot), deterministic=True
        )
        # Naive left-to-right float aggregation (AggregateAccumulator
        # semantics) for hosts whose native sum()/avg() uses compensated
        # summation (>= 3.44) and would drift in the low bits.
        for agg_name, agg_func in (("repro_fsum", "sum"), ("repro_favg", "avg")):
            self.connection.create_aggregate(
                agg_name, 1, _naive_aggregate_class(self, agg_func)
            )

    def _wrap_udf(self, impl):
        def wrapped(*args):
            try:
                result = adapt_value(impl(list(args)))
                if type(result) is int and not (INT64_MIN <= result <= INT64_MAX):
                    # The exact Python result exists but SQLite cannot
                    # hold it; abort the statement and let the row
                    # engine produce the full-precision answer.
                    raise IntegerRangeEscape(f"UDF result {result} exceeds int64")
                return result
            except Exception as exc:
                # sqlite3 reports UDF failures as a generic
                # OperationalError; stash the real exception so
                # run_statement can re-raise it with type and message
                # intact (identical error behavior across engines).
                self._pending_error = exc
                raise

        return wrapped

    # ------------------------------------------------------------------
    # Mirroring
    # ------------------------------------------------------------------
    def _mirror_columns(self, heap: "HeapTable") -> list[str]:
        """Column definitions of the mirror table. Blank affinity:
        values keep their storage class exactly."""
        return [quote_identifier(a.name) for a in heap.schema]

    def _mirror_rows(self, heap: "HeapTable") -> Iterable[Row]:
        """Rows to load into the mirror (already storage-adapted)."""
        if _has_bool(heap):
            return (adapt_row(r) for r in heap.rows)
        # Fast path: heap rows are plain tuples of SQLite-native
        # values, no per-row conversion needed.
        return heap.rows

    def sync_table(self, name: str) -> None:
        """Bring the SQLite mirror of catalog table *name* up to date.

        Free when nothing changed: the mirror remembers the heap's
        identity, version stamp and schema. ``heap.version`` and
        ``heap.rows`` resolve through the active transaction
        (:mod:`repro.storage.mvcc`), so the mirror is keyed on *snapshot
        identity*: inside a transaction the backend executes against the
        transaction's stable snapshot (or its own staged writes), and
        concurrent commits elsewhere reach the mirror with the next
        statement that runs outside it. A changed stamp is followed by a
        row-level delta where the heap can supply one, else by a reload
        (module docstring, "Mirror lifecycle")."""
        heap = self.catalog.scan_entry(name).table
        key = name.lower()
        version = heap.version
        schema = tuple((a.name, a.type) for a in heap.schema)
        mirror = self._mirror.get(key)
        if mirror is None:
            reason = "first load"
        elif mirror.heap is not heap or mirror.schema != schema:
            # The heap object itself is compared (not id(heap)): a dropped
            # table's reused address plus a coinciding version counter
            # must never read as "already synced". Index requests named
            # the old table's columns; live plans will ask again.
            reason = "schema"
            self._indexes.pop(key, None)
        elif mirror.version == version:
            if mirror.unmirrorable:
                raise IntegerRangeEscape(
                    f"table {name!r} holds an integer beyond int64"
                )
            return
        else:
            reason = self._apply_delta(key, mirror, heap)
            if reason is None:
                mirror.version = version
                self.tables_synced += 1
                return
        self._reload(key, heap, version, schema, reason)

    def _apply_delta(
        self, key: str, mirror: _Mirror, heap: "HeapTable"
    ) -> Optional[str]:
        """Move *mirror* to the heap's visible state by row-level
        statements; returns ``None`` when done, else why it takes a
        reload."""
        if mirror.rowid is None:
            return "no delta"
        changes = heap.changes_since(mirror.version)
        if changes is None:
            return "no delta"
        deleted, upserted, appended = changes
        applied = len(deleted) + len(upserted) + len(appended)
        if applied * _RELOAD_SHARE > len(heap.rows):
            return "delta too large"
        qname = self.scan_source(key)
        rowid = mirror.rowid
        columns = [quote_identifier(a.name) for a in heap.schema]
        if _has_bool(heap):
            upserted = [(rid, adapt_row(row)) for rid, row in upserted]
            appended = [(rid, adapt_row(row)) for rid, row in appended]
        execute = self.connection.executemany
        try:
            if deleted:
                execute(
                    f"DELETE FROM {qname} WHERE {rowid} = ?",
                    [(rid,) for rid in deleted],
                )
            if upserted:
                assignments = ", ".join(f"{c} = ?" for c in columns)
                execute(
                    f"UPDATE {qname} SET {assignments} WHERE {rowid} = ?",
                    [row + (rid,) for rid, row in upserted],
                )
            if appended:
                execute(
                    f"INSERT INTO {qname} ({', '.join([rowid] + columns)}) "
                    f"VALUES ({', '.join('?' * (len(columns) + 1))})",
                    [(rid,) + row for rid, row in appended],
                )
        except OverflowError:
            # An integer beyond int64 arrived by UPDATE/INSERT and the
            # mirror is now half-applied; the reload hits the same value
            # and records the verdict.
            return "unmirrorable"
        except sqlite3.Error as exc:
            self._mirror.pop(key, None)
            raise ExecutionError(
                f"cannot mirror table {heap.name!r} into the sqlite backend: {exc}"
            ) from exc
        self.connection.commit()
        self.mirror_delta_syncs += 1
        self.mirror_rows_applied += applied
        return None

    def _reload(
        self, key: str, heap: "HeapTable", version: int, schema: tuple, reason: str
    ) -> None:
        """(Re)create the mirror of *heap* from its visible rows — the
        first load and every reload — and rebuild the table's requested
        indexes. Where the heap's row ids ascend they become the
        mirror's rowids, which is what a later delta addresses rows by;
        otherwise rowid is the load position and the next change
        reloads."""
        qname = self.scan_source(key)
        columns = self._mirror_columns(heap)
        rows = self._mirror_rows(heap)
        self.connection.execute(f"DROP TABLE IF EXISTS {qname}")
        self.connection.execute(f"CREATE TABLE {qname} ({', '.join(columns)})")
        ids = heap.row_ids
        rowid = None
        if self.delta_sync and ids == sorted(ids):
            rowid = self.scan_ordinal([a.name for a in heap.schema])
        if rowid is not None:
            columns = [rowid] + columns
            rows = ((rid,) + row for rid, row in zip(ids, rows))
        self.tables_synced += 1
        self.mirror_reloads += 1
        try:
            self.connection.executemany(
                f"INSERT INTO {qname} ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' * len(columns))})",
                rows,
            )
        except OverflowError as exc:
            # A stored integer beyond int64 cannot be mirrored; escape to
            # the row engine, which reads the heap directly and computes
            # with full precision. The verdict stands for this version,
            # so later statements escape without loading again.
            self._mirror[key] = _Mirror(heap, version, schema, None, True)
            self._count_reload("unmirrorable")
            raise IntegerRangeEscape(
                f"table {heap.name!r} holds an integer beyond int64"
            ) from exc
        except sqlite3.Error as exc:
            self._mirror.pop(key, None)
            self._count_reload(reason)
            raise ExecutionError(
                f"cannot mirror table {heap.name!r} into the sqlite backend: {exc}"
            ) from exc
        self._mirror[key] = _Mirror(heap, version, schema, rowid)
        self._count_reload(reason)
        for index_columns in self._indexes.get(key, ()):
            self._build_index(key, index_columns)
        self.connection.commit()

    def _count_reload(self, reason: str) -> None:
        self.reload_reasons[reason] = self.reload_reasons.get(reason, 0) + 1

    def ensure_index(self, table: str, columns: Sequence[str]) -> None:
        """Index the mirror of *table* on *columns* unless it already
        is; remembered per table so a reload rebuilds it."""
        key = table.lower()
        wanted = self._indexes.setdefault(key, [])
        columns = tuple(columns)
        if columns in wanted:
            return
        wanted.append(columns)
        mirror = self._mirror.get(key)
        if mirror is not None and not mirror.unmirrorable:
            self._build_index(key, columns)

    def _build_index(self, key: str, columns: tuple[str, ...]) -> None:
        index = quote_identifier(f"#ix:{key}:{','.join(columns)}")
        self.connection.execute(
            f"CREATE INDEX main.{index} ON {quote_identifier(key)} "
            f"({', '.join(quote_identifier(c) for c in columns)})"
        )
        self.indexes_built += 1

    def scan_source(self, table_key: str) -> str:
        return f"main.{quote_identifier(table_key)}"

    def scan_ordinal(self, columns: Sequence[str]) -> Optional[str]:
        """SQLite's implicit rowid reproduces heap insertion order; pick
        whichever alias the scanned columns leave available."""
        stored = {c.lower() for c in columns}
        return next((r for r in _ROWID_NAMES if r not in stored), None)

    def materialize_fragment(self, frag: str, rows: list[Row], width: int) -> None:
        """(Re)create temp fragment *frag* holding *rows* — used for
        row-engine fallback subtrees and IN-sublink value lists. The
        implicit rowid preserves the row engine's output order."""
        qname = f"temp.{quote_identifier(frag)}"
        self.connection.execute(f"DROP TABLE IF EXISTS {qname}")
        columns = ", ".join(f"c{i}" for i in range(width))
        self.connection.execute(f"CREATE TEMP TABLE {quote_identifier(frag)} ({columns})")
        placeholders = ", ".join("?" for _ in range(width))
        try:
            self.connection.executemany(
                f"INSERT INTO {qname} VALUES ({placeholders})",
                (adapt_row(r) for r in rows),
            )
        except OverflowError as exc:
            # A row-engine fragment (fallback subtree / IN list) produced
            # an integer beyond int64: the fragment cannot flow through
            # SQLite, so the whole statement escapes to the row engine.
            raise IntegerRangeEscape(
                f"fragment {frag!r} holds an integer beyond int64"
            ) from exc

    def fragment_source(self, frag: str) -> str:
        return f"temp.{quote_identifier(frag)}"

    def drop_fragment(self, frag: str) -> None:
        try:
            self.connection.execute(f"DROP TABLE IF EXISTS temp.{quote_identifier(frag)}")
        except sqlite3.Error:  # pragma: no cover - connection already closed
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_statement(self, sql: str, binds: dict[str, Value]) -> list[Row]:
        self._pending_error = None
        try:
            cursor = self.connection.execute(sql, binds)
            rows = cursor.fetchall()
        except OverflowError as exc:
            # Parameter/slot value outside SQLite's 64-bit integer range
            # (the engine's Python ints are unbounded): the row engine
            # handles such values natively, so escape instead of erroring.
            raise IntegerRangeEscape(f"bound value exceeds int64 ({exc})") from exc
        except sqlite3.Error as exc:
            pending, self._pending_error = self._pending_error, None
            if pending is not None:
                raise pending
            if "integer overflow" in str(exc):
                # Native integer sum() overflowed int64. The engines
                # return the exact arbitrary-precision total; rather than
                # gating every integer SUM statically (the common case
                # never overflows), keep the fast native aggregate and
                # escape to the row engine only when it actually trips.
                raise IntegerRangeEscape(str(exc)) from exc
            raise ExecutionError(f"sqlite backend: {exc}") from exc
        self.statements_executed += 1
        return rows

    def native_plan(self, sql: str, binds: dict[str, Value]) -> Optional[str]:
        """SQLite's ``EXPLAIN QUERY PLAN`` for *sql*, one indented line
        per plan node."""
        rows = self.connection.execute(f"EXPLAIN QUERY PLAN {sql}", binds).fetchall()
        depth: dict[int, int] = {0: -1}
        lines = []
        for node, parent, _, detail in rows:
            depth[node] = depth.get(parent, -1) + 1
            lines.append("  " * depth[node] + detail)
        return "\n".join(lines)

    def make_query_op(self, *args, **kwargs):
        return SQLiteQueryOp(self, *args, **kwargs)

    def close(self) -> None:
        self.connection.close()


def _has_bool(heap: "HeapTable") -> bool:
    return any(a.type is SQLType.BOOL for a in heap.schema)


def _naive_aggregate_class(backend: SQLiteBackend, func: str):
    """An sqlite3 aggregate class accumulating exactly like the row
    engine's :class:`AggregateAccumulator` (left-to-right, no
    compensation), with errors routed through the backend's channel."""
    from ..executor.expr_eval import AggregateAccumulator

    class NaiveAggregate:
        __slots__ = ("accumulator",)

        def __init__(self):
            self.accumulator = AggregateAccumulator(func, distinct=False)

        def step(self, value):
            try:
                self.accumulator.add(value)
            except Exception as exc:
                backend._pending_error = exc
                raise

        def finalize(self):
            try:
                result = adapt_value(self.accumulator.result())
                if type(result) is int and not (INT64_MIN <= result <= INT64_MAX):
                    raise IntegerRangeEscape(
                        f"aggregate result {result} exceeds int64"
                    )
                return result
            except Exception as exc:
                backend._pending_error = exc
                raise

    return NaiveAggregate
