"""In-memory heap tables and immutable result relations.

The original Perm system stores everything in PostgreSQL heap files; this
reproduction keeps tuples as Python tuples in lists. :class:`HeapTable`
is the mutable stored form; :class:`Relation` is the immutable
query-result form returned by the executor and consumed by clients and
the Perm browser.

Storage is multi-versioned (:mod:`repro.storage.mvcc`) around one
invariant: **an installed state is never mutated.** A table's committed
state is a single ``(rows, version, row_ids)`` tuple whose lists nobody
writes into once it is installed, so holding a reference to it *is* a
snapshot. ``row_ids`` is a parallel list of hidden, process-globally
unique row identities: a logical row keeps its id across updates, which
is what lets transactions detect write-write conflicts at row
granularity (two transactions updating *different* rows of one table
both commit). ``rows`` and ``version`` are properties that resolve
through the thread's active transaction — inside a transaction they
return the snapshot (or this transaction's private working copy);
outside they return the latest committed state. ``version`` stamps are
globally unique per distinct state (see
:func:`repro.storage.mvcc.next_stamp`), which is what lets cached
statistics, the optimizer's recorded uniqueness deps and the SQLite
mirror key on snapshot identity.

Every mutator runs inside the thread's active transaction (outside one
it raises :class:`~repro.errors.ProgrammingError`) and is **atomic**:
the new rows are staged completely (all predicate evaluation and value
coercion up front) and handed to the transaction in one step — an error
mid-scan leaves the table untouched. The one state installed outside a
transaction is a materialized view's recomputed contents
(:meth:`HeapTable._install_direct`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..catalog.schema import Schema
from ..datatypes import Value, cast_value, format_value, type_of_value, SQLType
from ..errors import CatalogError, ProgrammingError
from . import mvcc
from .mvcc import DELTA_LOG_ROWS  # noqa: F401 - the log's bound, re-exported

Row = tuple[Value, ...]


class HeapTable:
    """A mutable stored table: a schema plus a versioned list of rows."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        # Latest committed (rows, version, row_ids). Swapped as one
        # tuple so a concurrent snapshot capture never pairs new rows
        # with an old stamp. The lists inside are never written once
        # installed.
        self._state: tuple[list[Row], int, list[int]] = ([], mvcc.next_stamp(), [])
        # The commit log (oldest first) and the row ids it holds. Commits
        # append in place; only the manager's collect() trims it, by
        # replacing the list, so an unlocked reader walks a stable one.
        self._history: list[mvcc.HistoryEntry] = []
        self._logged = 0
        # Durability hook for non-transactional installs (set by
        # repro.storage.persist on persistent databases): called with
        # (table, seq, version, rows, ids) before the state swaps in.
        self.on_direct_install = None
        # Scan hand-off to the vectorized engine: the latest packed
        # columnar image of this table as ``(version, columns)``.
        # Version stamps are snapshot identity, so a matching stamp
        # guarantees the cached columns are bit-identical to ``rows`` —
        # the executor rebuilds on any mismatch (see
        # repro.executor.vectorized.VScan).
        self.columnar_cache: tuple[int, list] | None = None

    # -- visibility ----------------------------------------------------
    @property
    def rows(self) -> list[Row]:
        """Rows visible to the caller: the active transaction's snapshot
        (or working copy), else the latest committed state. Treat as
        read-only — mutate through the DML methods."""
        txn = mvcc.current_transaction()
        if txn is not None:
            return txn.visible_rows(self)
        return self._state[0]

    @property
    def version(self) -> int:
        """Version stamp of the visible state (snapshot identity): two
        reads seeing the same stamp see bit-identical rows."""
        txn = mvcc.current_transaction()
        if txn is not None:
            return txn.visible_version(self)
        return self._state[1]

    @property
    def row_ids(self) -> list[int]:
        """Hidden row identities of :attr:`rows`, in the same order
        (read-only, like :attr:`rows`)."""
        return self._visible_pair()[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    # -- write plumbing ------------------------------------------------
    def _visible_pair(self) -> tuple[list[Row], list[int]]:
        """The visible rows and their parallel row-identity list."""
        txn = mvcc.current_transaction()
        if txn is not None:
            return txn.visible_rows(self), txn.visible_ids(self)
        state = self._state
        return state[0], state[2]

    def _install_direct(self, rows: list[Row], ids: list[int]) -> None:
        """Install new lists as the committed state outside any
        transaction — a materialized view's wholesale contents (CREATE,
        REFRESH and catch-up), a table no transaction writes. It adds no
        commit-log entry, so no chain leads across it: a reader of
        :meth:`changes_since` re-reads the table."""
        version = mvcc.next_stamp()
        if self.on_direct_install is not None:
            # Write-ahead: the record must be durable before the state
            # swaps in (a hook failure leaves the table untouched).
            self.on_direct_install(
                self, mvcc.next_commit_seq(), version, rows, ids
            )
        self._state = (rows, version, ids)

    def _writer(self) -> "mvcc.Transaction":
        """The transaction every row write goes through."""
        txn = mvcc.current_transaction()
        if txn is None:
            raise ProgrammingError(
                f"cannot write table {self.name!r} outside a transaction"
            )
        return txn

    # -- commit log -----------------------------------------------------
    def _chain(self, since: int, until: int) -> Optional[list["mvcc.HistoryEntry"]]:
        """The commit-log entries leading from the state stamped *since*
        to the one stamped *until*, newest first — ``None`` when a step
        has no write set (a view's maintainer-built contents) or no entry
        (a direct install, recovery, a trimmed start)."""
        chain: list[mvcc.HistoryEntry] = []
        if since == until:
            return chain
        want = until
        for entry in reversed(self._history):
            if entry.version != want:
                if chain:
                    return None  # gap: a transition with no entry
                continue  # newer than *until*
            if entry.written is None:
                return None
            chain.append(entry)
            if entry.base == since:
                return chain
            want = entry.base
        return None

    def changes_since(
        self, stamp: int
    ) -> Optional[
        tuple[list[int], list[tuple[int, Row]], list[tuple[int, Row]]]
    ]:
        """The net row-level change from the state named *stamp* to the
        visible state: ``(deleted ids, upserted (id, row) pairs,
        appended (id, row) pairs)`` — or ``None`` when the commit log
        cannot say (the visible state is a transaction's own uncommitted
        work, or :meth:`_chain` finds no way between the two stamps).
        ``None`` means "re-read the table", never an error.

        The chain's write sets are unioned and resolved against the
        visible state by :func:`repro.storage.mvcc.resolve_write_set`
        (ascending row ids — every logged transition keeps them so — and
        work proportional to the change, not to the table)."""
        txn = mvcc.current_transaction()
        state = self._state if txn is None else txn.committed_view(self)
        if state is None:
            return None
        rows, version, ids = state
        chain = self._chain(stamp, version)
        if chain is None:
            return None
        written = set().union(*(entry.written for entry in chain))
        appended = [rid for entry in reversed(chain) for rid in entry.inserted]
        return mvcc.resolve_write_set(written, appended, rows, ids)

    def _coerce_row(self, values: Sequence[Value]) -> Row:
        if len(values) != len(self.schema):
            raise CatalogError(
                f"table {self.name!r} has {len(self.schema)} columns, "
                f"got a row with {len(values)} values"
            )
        coerced: list[Value] = []
        for value, attribute in zip(values, self.schema):
            if value is None:
                coerced.append(None)
                continue
            actual = type_of_value(value)
            if actual is attribute.type:
                coerced.append(value)
            elif actual is SQLType.INT and attribute.type is SQLType.FLOAT:
                coerced.append(float(value))  # type: ignore[arg-type]
            else:
                coerced.append(cast_value(value, attribute.type))
        return tuple(coerced)

    # -- DML -----------------------------------------------------------
    def insert(self, values: Sequence[Value]) -> None:
        """Insert one row, coercing values to the column types."""
        self.insert_many((values,))

    def insert_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Insert many rows, all or none: every row is coerced before the
        first one becomes visible, so a bad row mid-batch leaves the
        table exactly as it was."""
        txn = self._writer()
        staged = [self._coerce_row(row) for row in rows]
        if staged:
            txn.append_rows(self, staged)
        return len(staged)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete rows matching *predicate*; returns the number removed.
        The predicate runs over every row before anything is applied."""
        txn = self._writer()
        kept_rows: list[Row] = []
        kept_ids: list[int] = []
        removed_ids: list[int] = []
        for row, rid in zip(txn.visible_rows(self), txn.visible_ids(self)):
            if predicate(row):
                removed_ids.append(rid)
            else:
                kept_rows.append(row)
                kept_ids.append(rid)
        if removed_ids:
            txn.replace_rows(self, kept_rows, kept_ids, removed_ids)
        return len(removed_ids)

    def update_where(
        self, predicate: Callable[[Row], bool], updater: Callable[[Row], Sequence[Value]]
    ) -> int:
        """Apply *updater* to rows matching *predicate*; returns count.
        Predicate evaluation, updating and coercion all complete before
        the first changed row is applied (all-or-nothing). Rows keep
        their identity across the update; only rows whose content
        actually changed enter the write set (an UPDATE that rewrites a
        row to its current values cannot conflict with anything — and
        installs no new version at all if nothing changed)."""
        txn = self._writer()
        ids = txn.visible_ids(self)
        matched = 0
        new_rows: list[Row] = []
        written_ids: list[int] = []
        for row, rid in zip(txn.visible_rows(self), ids):
            if predicate(row):
                matched += 1
                new_row = self._coerce_row(updater(row))
                if new_row != row:
                    new_rows.append(new_row)
                    written_ids.append(rid)
                else:
                    new_rows.append(row)
            else:
                new_rows.append(row)
        if written_ids:
            txn.replace_rows(self, new_rows, list(ids), written_ids)
        return matched


class Relation:
    """An immutable query result: schema + rows (+ provenance metadata).

    ``provenance_attrs`` lists which attribute names carry provenance —
    the paper's ``prov_<rel>_<attr>`` columns — so clients and the Perm
    browser can split the grid into "original result attributes" and
    "provenance attributes" exactly as Figure 2 of the paper does.
    """

    __slots__ = ("schema", "rows", "provenance_attrs")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Row],
        provenance_attrs: Sequence[str] = (),
    ):
        self.schema = schema
        self.rows: list[Row] = list(rows)
        self.provenance_attrs: tuple[str, ...] = tuple(provenance_attrs)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    @property
    def columns(self) -> list[str]:
        return self.schema.names

    @property
    def original_attrs(self) -> list[str]:
        """Names of non-provenance (original result) attributes."""
        prov = set(self.provenance_attrs)
        return [name for name in self.schema.names if name not in prov]

    def column(self, name: str) -> list[Value]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows]

    def sorted(self) -> "Relation":
        """Rows in a deterministic order (for comparisons in tests)."""
        from ..datatypes import sort_key

        ordered = sorted(self.rows, key=lambda row: tuple(sort_key(v) for v in row))
        return Relation(self.schema, ordered, self.provenance_attrs)

    def as_dicts(self) -> list[dict[str, Value]]:
        """Rows as name -> value dictionaries (convenient in examples)."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def format(self, max_rows: int | None = None) -> str:
        """Render an aligned text grid in the style of psql / the Perm
        browser result pane (see Figure 4, marker 5 of the paper)."""
        names = self.schema.names
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        cells = [[format_value(v) for v in row] for row in shown]
        widths = [len(n) for n in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        separator = "-+-".join("-" * w for w in widths)
        lines = [" " + header, "-" + separator + "-"]
        for row in cells:
            lines.append(" " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f" ... ({len(self.rows) - max_rows} more rows)")
        lines.append(f"({len(self.rows)} row{'s' if len(self.rows) != 1 else ''})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema.names}, {len(self.rows)} rows)"
