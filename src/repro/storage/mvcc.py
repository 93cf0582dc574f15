"""Multi-version concurrency control: snapshot-isolated transactions.

Perm computes provenance inside a real DBMS — one where provenance
queries run against a *stable snapshot* while other sessions commit
updates underneath them. This module gives the reproduction that
property with the copy-on-write flavor of MVCC, resting on one
invariant: **an installed state is never mutated.**

* Each :class:`~repro.storage.table.HeapTable` holds its latest
  **committed state** as a single ``(rows, version, row_ids)`` triple.
  Neither list of an installed state is ever written again — every
  commit installs new lists — so a reference to the triple is a stable
  snapshot of that table for free, and whoever is handed a superseded
  state (a snapshot, the commit hooks, version history) may keep it as
  long as it likes. ``row_ids`` is a parallel list of hidden,
  process-globally unique row identities that survive updates: the same
  logical row keeps its id across any number of ``UPDATE``\\ s, which is
  what row-level conflict detection keys on.

* Every row write goes through a :class:`Transaction` (the connection
  wraps an autocommit statement in a one-shot one). It captures, at
  ``BEGIN``, the committed state of every table (one atomic cut, taken
  under the manager lock). Reads inside the transaction resolve against
  that snapshot; the first write to a table makes a private **working
  copy** — a statement's replacement lists, or one copy of the
  snapshot's lists before the first append — that no other holder can
  see. The working copy accumulates the transaction's **row-level write
  set**: the ids of committed rows it updated (to new content) or
  deleted. Freshly inserted rows get fresh ids and are never part of
  the write set — two inserters can never conflict.

* ``COMMIT`` re-checks, under the manager lock, whether another
  transaction committed a written table since this one's snapshot. If
  nothing intervened the working copy's own lists install as they stand
  (the cheap, common path). Otherwise conflicts are resolved at **row
  granularity** (first-committer-wins per row): the commit aborts with
  :class:`~repro.errors.SerializationError` only if this transaction's
  write set overlaps a row the table's commit log shows written after
  its snapshot. Disjoint-row commits *merge*: the transaction's per-row
  effects are replayed onto the current committed state, into new
  lists, so two transactions updating different rows of one table both
  succeed.

* **One change record per commit**: the hooks that follow a commit (the
  write-ahead log, the materialized-view maintainer) and the table's
  commit log all receive the write set the transaction already holds —
  :class:`CommitChange` carries the ids it updated-or-deleted and the
  ids it appended — and turn it into rows with
  :func:`resolve_write_set`, whose cost follows the change, not the
  table. Nothing downstream compares two table states. Its inverse,
  :func:`apply_change`, is the only code that applies such a change to
  a state: WAL replay uses it to redo a commit, the disjoint-row merge
  to replay a transaction's effects onto the current state.

* **One commit log per table**: each committed change appends a
  :class:`HistoryEntry` (stamps from and to, write set, superseded
  state), walked by ``HeapTable._chain`` for the conflict check and
  ``changes_since``. The manager weak-tracks live transactions; when one
  retires, :meth:`TransactionManager.collect` frees every superseded
  state at or below the **snapshot horizon** (the oldest begin sequence
  a live snapshot holds) and trims the log's oldest freed entries down
  to :data:`DELTA_LOG_ROWS` ids. ``gc_stats()`` exposes the counters
  (runs, versions freed, rows freed, versions retained, horizon).

* **Version stamps** come from one process-global monotonic counter, so
  every distinct visible state of a table — committed or transaction-
  local — has a stamp no other state of that table ever had. Everything
  that used to key on "the global ``HeapTable.version`` counter" (the
  catalog's statistics cache, the optimizer's recorded uniqueness deps,
  the SQLite mirror sync) keys on *snapshot identity* simply by reading
  ``table.version`` through the active transaction. A merged commit
  gets a fresh stamp (its content includes other transactions' rows).

Which transaction is "active" is a thread-local set by the connection
for the duration of each statement (:func:`activate`); the storage layer
itself never starts or ends transactions.

Isolation level: **snapshot isolation** (Postgres would call it
REPEATABLE READ). Write skew between transactions whose write sets touch
different rows is possible, exactly as under SI. DDL (CREATE/DROP) is
non-transactional; the connection layer rejects it inside an explicit
transaction. The one state installed outside a transaction is a
materialized view's recomputed contents, which no transaction writes.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from itertools import takewhile
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional, Sequence

from ..errors import OperationalError, SerializationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import HeapTable, Row


# ---------------------------------------------------------------------------
# Version stamps, commit sequence numbers, row identities
# ---------------------------------------------------------------------------

_counter_lock = threading.Lock()
_stamp = 0
_commit_seq = 0
_row_id = 0


def next_stamp() -> int:
    """A process-globally unique, monotonically increasing version stamp."""
    global _stamp
    with _counter_lock:
        _stamp += 1
        return _stamp


def next_commit_seq() -> int:
    """The next commit sequence number (orders committed states; unlike
    version stamps, which are allocated while a transaction is still
    writing, sequence numbers are allocated at the moment a state
    becomes committed)."""
    global _commit_seq
    with _counter_lock:
        _commit_seq += 1
        return _commit_seq


def current_commit_seq() -> int:
    """The latest allocated commit sequence number."""
    return _commit_seq


def current_stamp() -> int:
    """The latest allocated version stamp."""
    return _stamp


def current_row_id() -> int:
    """The latest allocated row identity."""
    return _row_id


def raise_counters(stamp: int = 0, commit_seq: int = 0, row_id: int = 0) -> None:
    """Raise the global counters to at least the given values (never
    lowers them). Recovery calls this after replaying a write-ahead log
    so stamps, commit sequences and row identities allocated after a
    restart stay monotone with every value the log recorded."""
    global _stamp, _commit_seq, _row_id
    with _counter_lock:
        _stamp = max(_stamp, stamp)
        _commit_seq = max(_commit_seq, commit_seq)
        _row_id = max(_row_id, row_id)


def new_row_ids(count: int) -> list[int]:
    """Allocate *count* fresh row identities (one lock round-trip per
    batch, so bulk inserts stay cheap)."""
    global _row_id
    with _counter_lock:
        start = _row_id + 1
        _row_id += count
    return list(range(start, start + count))


# ---------------------------------------------------------------------------
# The active transaction (per thread)
# ---------------------------------------------------------------------------

_tls = threading.local()


def current_transaction() -> Optional["Transaction"]:
    """The transaction the current thread is executing inside, if any."""
    return getattr(_tls, "txn", None)


class _Activation:
    """Context manager installing a transaction as the thread's current
    one for the duration of a statement (re-entrant: nested statement
    execution — e.g. the inner query of INSERT ... SELECT — keeps the
    already-active transaction)."""

    __slots__ = ("_txn", "_prev")

    def __init__(self, txn: "Transaction"):
        self._txn = txn

    def __enter__(self) -> "Transaction":
        self._prev = current_transaction()
        _tls.txn = self._txn
        return self._txn

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.txn = self._prev


def activate(txn: "Transaction") -> _Activation:
    """Make *txn* the current thread's transaction inside a ``with``."""
    return _Activation(txn)


# ---------------------------------------------------------------------------
# The commit log (per table)
# ---------------------------------------------------------------------------

#: Most row ids a table's commit log keeps in entries no live snapshot
#: needs. A bound on rows, not on time: a reader of ``changes_since``
#: that falls further behind re-reads the table.
DELTA_LOG_ROWS = 4096


class HistoryEntry:
    """One entry of a table's commit log: *change* committed at sequence
    ``seq`` — the state stamped ``base`` became the one stamped
    ``version`` by the write set ``written``/``inserted``. The
    ``superseded`` state is held until no live snapshot can reach it
    (``None`` after); the ids stay until the log outgrows
    :data:`DELTA_LOG_ROWS`. A view's maintainer-built contents have no
    write set (``written is None``): a gap no reader can follow."""

    __slots__ = ("seq", "base", "version", "written", "inserted", "superseded")

    def __init__(self, seq: int, change: "CommitChange"):
        self.seq = seq
        self.base = change.previous[1]
        self.version = change.version
        self.written = change.written
        self.inserted = change.inserted
        self.superseded: Optional[tuple[list["Row"], int, list[int]]] = change.previous

    @property
    def size(self) -> int:
        """How many row ids the entry holds."""
        return 0 if self.written is None else len(self.written) + len(self.inserted)


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class _Working:
    """A transaction's private state of one table: ``rows`` and their
    ``ids``, the stamp naming them, and the accumulated row-level write
    set.

    ``owned`` says whether the lists are this working copy's alone. A
    fresh working copy starts on the snapshot's lists and a restored
    savepoint on the saved ones — both seen by another holder — so the
    first append copies them, once; a statement that replaces the rows
    hands over new lists, which the working copy then owns. Nothing ever
    writes into a list another holder can see, and commit installs the
    lists as they stand."""

    __slots__ = ("rows", "ids", "owned", "version", "written", "inserted")

    def __init__(
        self,
        rows: list["Row"],
        ids: list[int],
        version: int,
        written: Iterable[int] = (),
        inserted: Iterable[int] = (),
    ):
        self.rows = rows
        self.ids = ids
        self.owned = False
        self.version = version
        # Ids of committed rows this transaction updated (to different
        # content) or deleted — the row-level write set. Fresh inserts
        # are never in it.
        self.written: set[int] = set(written)
        # Ids of every row this transaction appended, ascending (some
        # may since have been deleted again) — with ``written``, the
        # write set the commit's :class:`CommitChange` carries.
        self.inserted: list[int] = list(inserted)

    def append(self, rows: list["Row"], ids: list[int]) -> None:
        if self.owned:
            self.rows.extend(rows)
            self.ids.extend(ids)
        else:
            # The one copy, made by concatenation (a single exact-size
            # allocation; copy-then-extend costs twice as much).
            self.rows, self.ids = self.rows + rows, self.ids + ids
            self.owned = True
        self.inserted.extend(ids)

    def replace(self, rows: list["Row"], ids: list[int], written: Iterable[int]) -> None:
        self.rows, self.ids, self.owned = rows, ids, True
        self.written.update(written)

    def fork(self) -> "_Working":
        """A copy sharing this one's lists — what SAVEPOINT keeps and
        what ROLLBACK TO resumes from. Neither side owns the lists any
        more, so whichever appends next copies them first."""
        self.owned = False
        return _Working(self.rows, self.ids, self.version, self.written, self.inserted)


def _position(ids: Sequence[int], rid: int) -> Optional[int]:
    """Where *rid* sits in the ascending id list *ids* (``None``: absent)."""
    pos = bisect_left(ids, rid)
    return pos if pos < len(ids) and ids[pos] == rid else None


def resolve_write_set(
    written: Collection[int],
    inserted: Iterable[int],
    rows: Sequence["Row"],
    ids: Sequence[int],
) -> tuple[list[int], list[tuple[int, "Row"]], list[tuple[int, "Row"]]]:
    """Turn a row-level write set into rows: ``(deleted ids, updated
    (id, row) pairs, inserted (id, row) pairs)``, ids ascending.

    *written* are ids that were updated or deleted, *inserted* ids that
    were appended (ascending); *rows*/*ids* are the state the change led
    to — or any id-ordered slice of it holding every surviving row of
    the write set. A written id absent from it was deleted; an inserted
    id absent from it was deleted again before anyone saw it; an id in
    both sets is just an insert. Row ids of committed states are
    ascending (every mutator keeps row order, appends get fresh ids), so
    each row is found by bisection: the work follows the change, not the
    table. This is the only place a write set becomes rows — content is
    never compared here (``HeapTable.update_where`` keeps unchanged rows
    out of the write set in the first place)."""

    def lookup(rid: int) -> Optional["Row"]:
        pos = _position(ids, rid)
        return None if pos is None else rows[pos]

    run = list(inserted)
    start = bisect_left(ids, run[0]) if run else 0
    stop = start + len(run)
    if ids[start:stop] == run:
        # Every appended row survives, as one run of the state (a bulk
        # load, most commits): no per-row search.
        inserted_pairs = list(zip(run, rows[start:stop]))
    else:
        inserted_pairs = [
            (rid, row)
            for rid, row in ((rid, lookup(rid)) for rid in run)
            if row is not None
        ]
    deleted: list[int] = []
    updated: list[tuple[int, "Row"]] = []
    if written:
        for rid in sorted(set(written).difference(run)):
            row = lookup(rid)
            if row is None:
                deleted.append(rid)
            else:
                updated.append((rid, row))
    return deleted, updated, inserted_pairs


def apply_change(
    rows: Sequence["Row"],
    ids: Sequence[int],
    deleted: Collection[int],
    updated: Iterable[tuple[int, "Row"]],
    inserted: Iterable[tuple[int, "Row"]],
) -> tuple[list["Row"], list[int]]:
    """The inverse of :func:`resolve_write_set`: the ``(rows, ids)``
    state a change leads to from the state *rows*/*ids* (ascending ids,
    holding every deleted and updated id), as fresh lists — the inputs
    may be a committed state other snapshots still read. Updated rows
    keep their position, inserted rows append in the order given. This
    is the only place a row-level change is applied to a state: WAL
    replay and the disjoint-row commit merge both call it."""
    new_rows, new_ids = list(rows), list(ids)
    for rid, row in updated:
        new_rows[bisect_left(ids, rid)] = row
    if deleted:
        gone = set(deleted)
        new_rows = [row for row, rid in zip(new_rows, ids) if rid not in gone]
        new_ids = [rid for rid in ids if rid not in gone]
    for rid, row in inserted:
        new_rows.append(row)
        new_ids.append(rid)
    return new_rows, new_ids


class CommitChange:
    """One table's share of a commit — the single row-level change
    record, handed to the manager's hooks *before* the new state
    installs (the write-ahead ordering: log, make durable, only then
    install).

    ``written`` and ``inserted`` are the write set exactly as the
    transaction accumulated it: ids of rows of ``previous`` it updated
    or deleted, and ids of the rows it appended (ascending; some may
    have been deleted again). ``written is None`` only for a
    materialized view's maintainer-built contents, which carry their own
    log record. ``previous`` is the committed state the change
    supersedes and ``rows``/``ids`` the complete new state: both are
    installed states, never mutated, so a hook may keep either.
    :meth:`resolve` is how every consumer reads the change.
    """

    __slots__ = (
        "table",
        "previous",
        "version",
        "rows",
        "ids",
        "written",
        "inserted",
        "_resolved",
    )

    def __init__(
        self,
        table: "HeapTable",
        previous: tuple[list["Row"], int, list[int]],
        version: int,
        rows: list["Row"],
        ids: list[int],
        written: Optional[Collection[int]],
        inserted: Sequence[int] = (),
    ):
        self.table = table
        self.previous = previous
        self.version = version
        self.rows = rows
        self.ids = ids
        self.written = written
        self.inserted = inserted
        self._resolved = None

    def resolve(
        self,
    ) -> tuple[list[int], list[tuple[int, "Row"]], list[tuple[int, "Row"]]]:
        """The change as rows (see :func:`resolve_write_set`), computed
        once per commit however many hooks ask. Not for a view's
        maintainer-built contents."""
        if self._resolved is None:
            self._resolved = resolve_write_set(
                self.written, self.inserted, self.rows, self.ids
            )
        return self._resolved


class Transaction:
    """One snapshot-isolated transaction over a set of heap tables.

    Created by :meth:`TransactionManager.begin`; the snapshot maps every
    table that existed at begin time to its committed
    ``(rows, version, ids)`` state. Tables created afterwards (DDL is
    non-transactional) are adopted lazily at their then-current
    committed state.
    """

    def __init__(
        self,
        manager: "TransactionManager",
        snapshot: dict["HeapTable", tuple[list["Row"], int, list[int]]],
        begin_seq: int,
    ):
        self.manager = manager
        self.status = "active"
        self.begin_seq = begin_seq
        self._snapshot = snapshot
        self._working: dict["HeapTable", _Working] = {}
        # Stack of (savepoint name, saved working copy per written table).
        self._savepoints: list[tuple[str, dict["HeapTable", _Working]]] = []

    # -- status --------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.status == "active"

    def _check_active(self) -> None:
        if not self.active:
            raise OperationalError(f"transaction is {self.status}")

    # -- visibility (called from HeapTable properties) -----------------
    def _base(self, table: "HeapTable") -> tuple[list["Row"], int, list[int]]:
        state = self._snapshot.get(table)
        if state is None:
            # Created after our snapshot (non-transactional DDL): adopt
            # its current committed state so the table is usable at all.
            state = table._state
            self._snapshot[table] = state
        return state

    def visible_rows(self, table: "HeapTable") -> list["Row"]:
        working = self._working.get(table)
        if working is not None:
            return working.rows
        return self._base(table)[0]

    def visible_version(self, table: "HeapTable") -> int:
        working = self._working.get(table)
        if working is not None:
            return working.version
        return self._base(table)[1]

    def visible_ids(self, table: "HeapTable") -> list[int]:
        working = self._working.get(table)
        if working is not None:
            return working.ids
        return self._base(table)[2]

    def committed_view(
        self, table: "HeapTable"
    ) -> Optional[tuple[list["Row"], int, list[int]]]:
        """The committed ``(rows, version, ids)`` state this transaction
        sees of *table* — ``None`` once it has written the table (its
        view is then private working state no committed stamp names)."""
        if table in self._working:
            return None
        return self._base(table)

    # -- writes --------------------------------------------------------
    def _working_for(self, table: "HeapTable") -> _Working:
        working = self._working.get(table)
        if working is None:
            base = self._base(table)
            working = _Working(base[0], base[2], 0)
            self._working[table] = working
        return working

    def append_rows(self, table: "HeapTable", rows: list["Row"]) -> None:
        """Append *rows* under fresh row ids."""
        self._check_active()
        working = self._working_for(table)
        working.append(rows, new_row_ids(len(rows)))
        working.version = next_stamp()

    def replace_rows(
        self,
        table: "HeapTable",
        rows: list["Row"],
        ids: list[int],
        written: Iterable[int],
    ) -> None:
        """Replace the table's visible rows with the new lists *rows* and
        *ids* (the working copy keeps them). *written* are the ids of
        pre-existing rows this statement updated or deleted (the
        row-level write set contribution)."""
        self._check_active()
        working = self._working_for(table)
        working.replace(rows, ids, written)
        working.version = next_stamp()

    # -- savepoints ----------------------------------------------------
    def savepoint(self, name: str) -> None:
        self._check_active()
        saved = {table: working.fork() for table, working in self._working.items()}
        self._savepoints.append((name.lower(), saved))

    def _find_savepoint(self, name: str) -> int:
        key = name.lower()
        for index in range(len(self._savepoints) - 1, -1, -1):
            if self._savepoints[index][0] == key:
                return index
        raise OperationalError(f"no such savepoint: {name}")

    def rollback_to(self, name: str) -> None:
        """Discard every change made after SAVEPOINT *name* (the
        savepoint itself survives, Postgres-style)."""
        self._check_active()
        index = self._find_savepoint(name)
        saved = self._savepoints[index][1]
        for table in list(self._working):
            kept = saved.get(table)
            if kept is None:
                # First written after the savepoint: back to the snapshot.
                del self._working[table]
            else:
                # Resume from a fork of the saved copy, so rolling back
                # to this savepoint again later still finds its lists
                # untouched. The stamp is restored exactly: the content
                # is bit-identical to what that stamp named, so
                # statistics and plan deps recorded against it become
                # valid again.
                self._working[table] = kept.fork()
        del self._savepoints[index + 1 :]

    def release(self, name: str) -> None:
        self._check_active()
        index = self._find_savepoint(name)
        del self._savepoints[index:]

    # -- outcome -------------------------------------------------------
    def _abort(self, table: "HeapTable", reason: str) -> SerializationError:
        self.status = "aborted"
        self._working.clear()
        self._savepoints.clear()
        self.manager.conflict_count += 1
        self.manager.retire(self)
        return SerializationError(
            f"could not serialize access to table {table.name!r}: "
            f"a concurrent transaction committed it first ({reason}; "
            "retry the transaction)"
        )

    def _merged_state(
        self, table: "HeapTable", working: _Working
    ) -> Optional[tuple[list["Row"], list[int], frozenset[int], list[int]]]:
        """Merge this transaction's per-row effects onto the table's
        *current* committed state (which contains other transactions'
        disjoint writes): ``(rows, ids, ids of the committed rows it
        wrote, ids of the rows it inserted)``. Returns ``None`` if a row
        this transaction wrote no longer exists — the defensive signal
        to abort."""
        # A row this transaction inserted *and* wrote again resolves as
        # a plain insert, so only snapshot rows count as written.
        deleted, updated, inserted = resolve_write_set(
            working.written, working.inserted, working.rows, working.ids
        )
        written = frozenset(deleted).union(rid for rid, _ in updated)
        cur_rows, _, cur_ids = table._state
        if any(_position(cur_ids, rid) is None for rid in written):
            return None
        # The inserted rows get fresh identities: the ids they were
        # staged under may be older than ids others committed meanwhile,
        # and every committed id list stays ascending (rows are located
        # by bisection). Nobody outside this transaction has seen the
        # staged ids.
        fresh = new_row_ids(len(inserted))
        rows, ids = apply_change(
            cur_rows,
            cur_ids,
            deleted,
            updated,
            ((rid, row) for rid, (_, row) in zip(fresh, inserted)),
        )
        return rows, ids, written, fresh

    def commit(self) -> None:
        """Install every working copy as the new committed state.

        Fast path: no other transaction committed a written table since
        this one's snapshot — the working copy's lists install as they
        stand (its stamp is reused, so plans prepared inside the
        transaction stay valid). Otherwise row-level first-committer-wins
        applies: the commit aborts with :class:`SerializationError` iff
        this transaction's write set overlaps a row committed after its
        snapshot; disjoint-row commits merge onto the current state under
        a fresh stamp."""
        self._check_active()
        manager = self.manager
        if not self._working:
            self.status = "committed"
            manager.retire(self)
            return
        with manager.lock:
            merges: dict["HeapTable", tuple] = {}
            for table, working in self._working.items():
                if table._state[1] == self._snapshot[table][1]:
                    continue  # nothing intervened: plain install below
                # The rows committed since our snapshot. A live snapshot's
                # entries sit above the horizon, so a gap cannot happen.
                chain = table._chain(self._snapshot[table][1], table._state[1])
                if chain is None:
                    raise self._abort(table, "its commit log has a gap")
                overlap = working.written & set().union(*(e.written for e in chain))
                if overlap:
                    raise self._abort(
                        table, f"write-write overlap on {len(overlap)} row(s)"
                    )
                merged = self._merged_state(table, working)
                if merged is None:
                    raise self._abort(table, "written row vanished")
                merges[table] = merged
            seq = next_commit_seq()
            # Stage every table's change record *before* installing any
            # of it, so the hooks see the complete commit while no table
            # has changed yet (log -> make durable -> install).
            changes: list[CommitChange] = []
            for table, working in self._working.items():
                merged = merges.get(table)
                if merged is not None:
                    # Merged content includes other transactions' rows:
                    # it is a state no stamp has ever named, so it gets
                    # a fresh one.
                    rows, ids, written, inserted = merged
                    version = next_stamp()
                else:
                    # The working stamp already names exactly this
                    # content, so it is reused: plans prepared inside
                    # the transaction against its final state stay
                    # valid after the commit.
                    rows, ids, version = working.rows, working.ids, working.version
                    written, inserted = frozenset(working.written), working.inserted
                changes.append(
                    CommitChange(table, table._state, version, rows, ids, written, inserted)
                )
            finalize_matviews = None
            if manager.matview_maintainer is not None:
                # Materialized-view maintenance: derive the views' share
                # of this commit from the staged base-table changes, so
                # the write-ahead hook logs base rows and view rows as
                # one atomic unit. The returned finalizer (catalog
                # bookkeeping) runs only after everything installs.
                maintained, finalize_matviews = manager.matview_maintainer(
                    seq, list(changes)
                )
                changes.extend(maintained)
            if manager.on_commit is not None:
                try:
                    manager.on_commit(seq, changes)
                except BaseException:
                    # The commit record never became durable: abort with
                    # no state installed (the transaction is over either
                    # way — the caller sees the logging failure).
                    self.status = "aborted"
                    self._working.clear()
                    self._savepoints.clear()
                    manager.retire(self)
                    raise
            for change in changes:
                table = change.table
                # Logged before the state installs, so an unlocked reader
                # that sees the new state also finds the way to it.
                entry = HistoryEntry(seq, change)
                table._history.append(entry)
                table._logged += entry.size
                table._state = (change.rows, change.version, change.ids)
            if finalize_matviews is not None:
                finalize_matviews()
            manager.commit_count += 1
            manager.retire(self)
        self.status = "committed"
        self._working.clear()
        self._savepoints.clear()
        if manager.on_commit_complete is not None:
            manager.on_commit_complete()

    def rollback(self) -> None:
        """Discard all working copies; committed state is untouched."""
        if self.status == "active":
            self.status = "rolled back"
            self.manager.retire(self)
        self._working.clear()
        self._savepoints.clear()


class TransactionManager:
    """Begin/commit coordination point for one database's tables.

    ``tables`` is a zero-argument callable returning the current heap
    tables (the catalog's, at begin time); keeping it a callable avoids
    an import cycle between the storage and catalog layers.
    ``begin_count``/``commit_count``/``conflict_count`` are plain
    telemetry counters (the conflict check itself uses version stamps
    and the tables' commit logs)."""

    def __init__(self, tables: Callable[[], Iterable["HeapTable"]]):
        self.lock = threading.RLock()
        self._tables = tables
        self.begin_count = 0
        self.commit_count = 0
        self.conflict_count = 0
        # Durability hooks (set by repro.storage.persist when a database
        # opens on disk). ``on_commit(seq, changes)`` runs under the
        # manager lock with every CommitChange staged but nothing
        # installed — it must make the commit durable or raise (raising
        # aborts the commit with storage untouched).
        # ``on_commit_complete()`` runs after the commit fully installs
        # and the lock is released (checkpoint threshold checks go here,
        # where rewriting the snapshot can no longer lose the commit).
        self.on_commit: Optional[Callable[[int, list[CommitChange]], None]] = None
        self.on_commit_complete: Optional[Callable[[], None]] = None
        # Materialized-view maintenance hook (set by repro.engine.database
        # when the catalog holds matviews; a callable keeps this module
        # free of engine imports). Called under the lock with the staged
        # changes; returns (extra changes, finalizer-or-None).
        self.matview_maintainer: Optional[
            Callable[
                [int, list[CommitChange]],
                tuple[list[CommitChange], Optional[Callable[[], None]]],
            ]
        ] = None
        # Live (active) transactions — i.e. the set of live snapshots.
        # Weak, so a session abandoned without commit/rollback cannot
        # pin the version history forever.
        self._active: "weakref.WeakSet[Transaction]" = weakref.WeakSet()
        # GC telemetry (guarded by self.lock).
        self._gc_runs = 0
        self._gc_versions_freed = 0
        self._gc_rows_freed = 0
        self._gc_horizon = 0

    def begin(self) -> Transaction:
        """Start a transaction on a consistent snapshot: the committed
        state of every table, captured in one critical section so no
        commit can land between two table captures."""
        with self.lock:
            snapshot = {table: table._state for table in self._tables()}
            self.begin_count += 1
            txn = Transaction(self, snapshot, current_commit_seq())
            self._active.add(txn)
            return txn

    def retire(self, txn: Transaction) -> None:
        """Drop *txn* from the live-snapshot set (commit/rollback) and
        garbage-collect history the remaining snapshots cannot see."""
        with self.lock:
            self._active.discard(txn)
            self.collect()

    # -- version garbage collection ------------------------------------
    def horizon(self) -> int:
        """The snapshot horizon: every committed state superseded at or
        before this sequence number is invisible to all live snapshots
        (with no live snapshots, everything superseded is)."""
        live = [txn.begin_seq for txn in self._active if txn.active]
        return min(live) if live else current_commit_seq()

    def collect(self) -> None:
        """Trim every table's commit log, the only code that does: an
        entry at or below the horizon drops its superseded state, then
        the oldest entries that dropped theirs leave while the log holds
        more than :data:`DELTA_LOG_ROWS` ids (a gap marker leaves at
        once). Runs whenever a transaction retires; :meth:`gc_stats`
        reports it."""
        with self.lock:
            horizon = self.horizon()
            freed = rows_freed = 0
            for table in self._tables():
                log = table._history
                # Walk back from the horizon over the entries still
                # holding a state: the ones this run frees.
                i = bisect_right(log, horizon, key=attrgetter("seq"))
                while i and log[i - 1].superseded is not None:
                    i -= 1
                    rows_freed += len(log[i].superseded[0])
                    freed += 1
                    log[i].superseded = None
                logged, cut = table._logged, 0
                for entry in log:
                    if entry.superseded is not None or (
                        logged <= DELTA_LOG_ROWS and entry.written is not None
                    ):
                        break
                    logged -= entry.size
                    cut += 1
                if cut:
                    # A new list: changes_since walks the old one unlocked.
                    table._history, table._logged = log[cut:], logged
            self._gc_runs += 1
            self._gc_versions_freed += freed
            self._gc_rows_freed += rows_freed
            self._gc_horizon = horizon

    def gc_stats(self) -> dict[str, int]:
        """Version-GC counters: how often GC ran, how many superseded
        committed states (and rows) it freed, how many log entries still
        hold one for live snapshots, and the current horizon."""
        held = attrgetter("superseded")
        with self.lock:
            # The entries holding a state are a suffix of each log (seqs
            # ascend, the horizon never falls): count them from the end.
            retained = sum(
                sum(1 for _ in takewhile(held, reversed(t._history))) for t in self._tables()
            )
            return {
                "gc_runs": self._gc_runs,
                "versions_freed": self._gc_versions_freed,
                "rows_freed": self._gc_rows_freed,
                "versions_retained": retained,
                "horizon": self._gc_horizon,
            }
