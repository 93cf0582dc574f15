"""The sqlite mirror equals the heap, always — and says how it got there.

Three parts:

* a seeded fuzzer driving random DML through two sessions that share one
  :class:`~repro.engine.database.Database` (autocommit and explicit
  transactions, savepoints, merges, conflicts, whole-table deletes, DDL,
  int64-boundary values, a BOOL column). After every statement, on both
  sessions' backends, ``SELECT * FROM mirror ORDER BY rowid`` must equal
  ``heap.rows`` as that session sees them. A failing seed's op log is
  dumped under ``.txn-failures/`` (uploaded by the CI concurrency-stress
  job, which widens the bank through ``REPRO_TXN_SEEDS``);
* the same op streams over a durable database, checking the commit's one
  change record (:class:`~repro.storage.mvcc.CommitChange`) against
  everything that reads it: the new state, the WAL record, the matview
  maintainer's table delta and ``HeapTable.changes_since``;
* scripted sequences asserting the counters: which changes reach the
  mirror as a row-level delta, which force a reload and why
  (``reload_reasons``), and which joins get an index.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import sys
import threading
import time

import pytest

import repro
from repro import ExecutionError, OperationalError, SerializationError
from repro.backend.runtime import IntegerRangeEscape, adapt_row
from repro.engine.database import Database
from repro.engine.matview import _TableDelta
from repro.storage.table import DELTA_LOG_ROWS, HeapTable
from repro.workloads.queries import QUERY_CLASSES, with_provenance
from repro.workloads.tpch import TpchConfig, create_tpch_db

FAILURE_DIR = os.path.join(os.getcwd(), ".txn-failures")
SEED_COUNT = int(os.environ.get("REPRO_TXN_SEEDS", "50"))
TIER1_SEEDS = 30
STEPS = 70
BIG = 2**63  # one past int64

CREATE_SQL = "CREATE TABLE t (id int, grp int, val int, flag bool)"


def mirror_state(conn, name: str = "t"):
    """``(heap rows as *conn* sees them, mirror rows in rowid order)``
    after a sync on *conn*'s backend, both in mirror storage form —
    or ``None`` when the visible state cannot be mirrored."""
    backend = conn.planner.backend

    def probe():
        heap = conn.catalog.scan_entry(name).table
        try:
            backend.sync_table(name)
        except IntegerRangeEscape:
            assert any(
                isinstance(v, int) and abs(v) >= BIG for row in heap.rows for v in row
            )
            return None
        mirrored = backend.connection.execute(
            f'SELECT * FROM main."{name}" ORDER BY rowid'
        ).fetchall()
        return [adapt_row(row) for row in heap.rows], mirrored

    return conn._in_transaction(probe)


def assert_mirrors_equal_heap(sessions, name: str = "t") -> None:
    for conn in sessions:
        state = mirror_state(conn, name)
        if state is not None:
            heap_rows, mirrored = state
            assert mirrored == heap_rows
        # The engine's own answer goes through the same mirror (or the
        # row-engine rescue) and must be the visible heap, in heap order.
        heap = conn.catalog.scan_entry(name).table
        visible = conn._in_transaction(lambda: list(heap.rows))
        assert conn.execute(f"SELECT * FROM {name}").fetchall() == visible


class Fuzzer:
    """One seeded run: two sessions, one table, random statements."""

    def __init__(self, seed: int, database: Database | None = None):
        self.rng = random.Random(seed)
        self.seed = seed
        self.database = database if database is not None else Database()
        self.sessions = [
            repro.connect(database=self.database, engine="sqlite") for _ in range(2)
        ]
        self.log: list[str] = []
        self.next_id = 1
        self.savepoints = [0, 0]
        self.run(0, CREATE_SQL)
        rows = ", ".join(self.fresh_row() for _ in range(self.rng.randrange(30, 60)))
        self.run(0, f"INSERT INTO t VALUES {rows}")

    def fresh_row(self) -> str:
        rng = self.rng
        row = (
            f"({self.next_id}, {rng.randrange(5)}, {rng.randrange(100)}, "
            f"{rng.choice(['true', 'false', 'NULL'])})"
        )
        self.next_id += 1
        return row

    def run(self, who: int, sql: str) -> None:
        self.log.append(f"s{who}: {sql}")
        conn = self.sessions[who]
        try:
            conn.execute(sql)
        except SerializationError as exc:
            self.log.append(f"      -> conflict ({exc})")
            conn.rollback()
            self.savepoints[who] = 0
        except OperationalError as exc:  # e.g. DDL inside a transaction
            self.log.append(f"      -> refused ({exc})")

    def some_id(self) -> int:
        return self.rng.randrange(1, self.next_id)

    def step(self) -> None:
        rng = self.rng
        who = rng.randrange(2)
        conn = self.sessions[who]
        in_txn = conn.in_transaction
        choice = rng.random()
        if choice < 0.20:
            rows = ", ".join(self.fresh_row() for _ in range(rng.randrange(1, 4)))
            self.run(who, f"INSERT INTO t VALUES {rows}")
        elif choice < 0.38:
            self.run(who, f"UPDATE t SET val = val + 1 WHERE id = {self.some_id()}")
        elif choice < 0.44:
            self.run(who, f"UPDATE t SET flag = NOT flag WHERE grp = {rng.randrange(5)}")
        elif choice < 0.48:
            self.run(who, f"UPDATE t SET val = val WHERE grp = {rng.randrange(5)}")
        elif choice < 0.58:
            self.run(who, f"DELETE FROM t WHERE id = {self.some_id()}")
        elif choice < 0.62:
            # DELETE then re-INSERT the same logical row (a fresh row id).
            target = self.some_id()
            self.run(who, f"DELETE FROM t WHERE id = {target}")
            self.run(who, f"INSERT INTO t VALUES ({target}, 0, 0, true)")
        elif choice < 0.66:
            # An int64-boundary value arriving by UPDATE, then leaving.
            target = self.some_id()
            self.run(who, f"UPDATE t SET val = {BIG} WHERE id = {target}")
            assert_mirrors_equal_heap(self.sessions)
            self.run(who, f"UPDATE t SET val = 7 WHERE id = {target}")
        elif choice < 0.78:
            if in_txn:
                self.run(who, "COMMIT" if rng.random() < 0.7 else "ROLLBACK")
                self.savepoints[who] = 0
            else:
                self.run(who, "BEGIN")
        elif choice < 0.86 and in_txn:
            if self.savepoints[who] and rng.random() < 0.6:
                name = f"sp{rng.randrange(self.savepoints[who])}"
                self.run(who, f"ROLLBACK TO SAVEPOINT {name}")
            else:
                self.run(who, f"SAVEPOINT sp{self.savepoints[who]}")
                self.savepoints[who] += 1
        elif choice < 0.89:
            self.run(who, "DELETE FROM t")  # row-level: every id written
            rows = ", ".join(self.fresh_row() for _ in range(rng.randrange(20, 40)))
            self.run(who, f"INSERT INTO t VALUES {rows}")
        elif choice < 0.92 and not any(s.in_transaction for s in self.sessions):
            self.run(who, "DROP TABLE t")
            self.run(who, CREATE_SQL)
            rows = ", ".join(self.fresh_row() for _ in range(rng.randrange(20, 40)))
            self.run(who, f"INSERT INTO t VALUES {rows}")
        else:
            self.log.append(f"s{who}: (read only)")

    def fuzz(self) -> None:
        try:
            for _ in range(STEPS):
                self.step()
                assert_mirrors_equal_heap(self.sessions)
            for who, conn in enumerate(self.sessions):
                if conn.in_transaction:
                    self.run(who, "COMMIT")
            assert_mirrors_equal_heap(self.sessions)
        except AssertionError:
            os.makedirs(FAILURE_DIR, exist_ok=True)
            path = os.path.join(FAILURE_DIR, f"mirror_seed_{self.seed}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(self.log) + "\n")
            raise
        finally:
            for conn in self.sessions:
                conn.close()


def _seeds():
    for seed in range(SEED_COUNT):
        marks = [pytest.mark.exhaustive] if seed >= TIER1_SEEDS else []
        yield pytest.param(seed, marks=marks, id=f"seed{seed}")


@pytest.mark.parametrize("seed", _seeds())
def test_mirror_equals_heap_under_random_dml(seed: int):
    Fuzzer(seed).fuzz()


def test_fuzzer_exercises_deltas_and_every_reload_reason():
    """Guards the generator against drifting into triviality: across a
    few seeds both sync paths and every reload reason must occur."""
    reasons: dict[str, int] = {}
    deltas = 0
    for seed in range(8):
        fuzzer = Fuzzer(seed)
        backends = [conn.planner.backend for conn in fuzzer.sessions]
        fuzzer.fuzz()
        for backend in backends:
            deltas += backend.mirror_delta_syncs
            for reason, count in backend.reload_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
    assert deltas >= 50
    assert set(reasons) == {
        "first load",
        "schema",
        "no delta",
        "delta too large",
        "unmirrorable",
    }


# ---------------------------------------------------------------------------
# The one change record, against everything that reads it
# ---------------------------------------------------------------------------


class ChangeRecordChecker:
    """Sits around a durable database's commit hooks. Before the commit
    installs it keeps, per table, the staged change record (whose
    ``previous`` is the superseded state itself, not a copy), a
    fingerprint of that state, the WAL delta written for it and the
    maintainer's table delta; once it has installed, :meth:`verify`
    holds all of them against the state that resulted — and checks the
    install left the superseded lists as they were."""

    def __init__(self, database: Database):
        self.store = database.storage
        self.staged: list = []
        self.commits = 0
        manager = database.manager
        durable, complete = manager.on_commit, manager.on_commit_complete

        def on_commit(seq, changes):
            for change in changes:
                self.stage(seq, change)
            durable(seq, changes)

        def on_commit_complete():
            self.verify()
            complete()

        manager.on_commit = on_commit
        manager.on_commit_complete = on_commit_complete

    @staticmethod
    def fingerprint(rows, ids) -> tuple:
        return len(rows), hash(tuple(rows)), hash(tuple(ids))

    def stage(self, seq, change) -> None:
        wal = json.loads(json.dumps(self.store._delta_for(change)))
        new = (change.rows, change.version, change.ids)
        delta = _TableDelta(change.table.name, change.previous, new, change.resolve())
        prev_rows, _, prev_ids = change.previous
        self.staged.append((change, self.fingerprint(prev_rows, prev_ids), wal, delta))

    def verify(self) -> None:
        staged, self.staged = self.staged, []
        for change, fingerprint, wal, delta in staged:
            self.commits += 1
            table = change.table
            rows, version, ids = table._state
            assert version == change.version
            # An installed state is never mutated: the commit left the
            # state it superseded exactly as the hooks were shown it.
            prev_rows, prev_version, prev_ids = change.previous
            assert self.fingerprint(prev_rows, prev_ids) == fingerprint
            # The WAL record replays the superseded state into the new one.
            scratch = HeapTable(table.name, table.schema)
            scratch._state = change.previous
            self.store._replay_delta(scratch, wal)
            assert scratch._state == (rows, version, ids)
            deleted, updated, inserted = change.resolve()
            # The resolved change, applied to the superseded state, is
            # the new state.
            gone, new = set(deleted), dict(updated)
            assert gone <= set(prev_ids) and set(new) <= set(prev_ids)
            kept = [
                (new.get(rid, row), rid)
                for row, rid in zip(prev_rows, prev_ids)
                if rid not in gone
            ] + [(row, rid) for rid, row in inserted]
            assert [row for row, _ in kept] == rows
            assert [rid for _, rid in kept] == ids
            # The WAL record says the same thing, key by key.
            for key, pairs in (("insert", inserted), ("update", updated)):
                assert [rid for rid, _ in wal.get(key, [])] == [rid for rid, _ in pairs]
            assert wal.get("delete", []) == deleted
            # The maintainer removes every deleted row and the old half
            # of every update, and adds the new half and every insert.
            assert delta.removed == gone | set(new)
            assert delta.added == [(row, rid) for rid, row in updated + inserted]
            # The delta log the mirror reads resolves to the same change.
            if len(change.written) + len(change.inserted) <= DELTA_LOG_ROWS:
                assert table.changes_since(prev_version) == (deleted, updated, inserted)


def test_one_change_record_feeds_wal_maintainer_and_delta_log(tmp_path):
    commits = 0
    for seed in range(6):
        path = str(tmp_path / f"db{seed}")
        database = Database(path=path, durability="off")
        try:
            checker = ChangeRecordChecker(database)
            Fuzzer(seed, database).fuzz()
            assert not checker.staged
            commits += checker.commits
            live = database.catalog.table("t").table._state
        finally:
            database.close()
        # And the log as a whole recovers exactly the live state.
        with Database(path=path) as recovered:
            assert recovered.catalog.table("t").table._state == live
    assert commits >= 150


# ---------------------------------------------------------------------------
# Scripted sequences: the counters
# ---------------------------------------------------------------------------


@pytest.fixture()
def pair():
    """Two sqlite sessions over one database holding ``t`` (40 rows)."""
    database = Database()
    writer = repro.connect(database=database, engine="sqlite")
    reader = repro.connect(database=database, engine="sqlite")
    writer.execute(CREATE_SQL)
    writer.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 5}, {i}, true)" for i in range(1, 41))
    )
    reader.execute("SELECT * FROM t").fetchall()
    yield writer, reader, reader.planner.backend
    writer.close()
    reader.close()


def synced(reader) -> list:
    rows = reader.execute("SELECT * FROM t").fetchall()
    assert_mirrors_equal_heap([reader])
    return rows


def test_writes_reach_the_mirror_as_row_level_deltas(pair):
    writer, reader, backend = pair
    assert backend.counters()["reload_reasons"] == {"first load": 1}
    writer.execute("INSERT INTO t VALUES (41, 1, 41, false)")
    writer.execute("UPDATE t SET val = 0 WHERE id = 3")
    writer.execute("DELETE FROM t WHERE id = 4")
    assert len(synced(reader)) == 40
    # One sync carried all three commits: one row each.
    assert backend.mirror_delta_syncs == 1
    assert backend.mirror_rows_applied == 3
    # An explicit transaction is one commit, hence one delta.
    writer.execute("BEGIN")
    writer.execute("UPDATE t SET val = val + 1 WHERE grp = 2")
    writer.execute("INSERT INTO t VALUES (42, 2, 0, NULL)")
    writer.execute("COMMIT")
    synced(reader)
    assert backend.mirror_delta_syncs == 2
    assert backend.mirror_rows_applied == 3 + 8 + 1
    # DELETE then re-INSERT: the row comes back under a fresh row id.
    writer.execute("DELETE FROM t WHERE id = 10")
    writer.execute("INSERT INTO t VALUES (10, 0, 0, true)")
    assert synced(reader)[-1] == (10, 0, 0, True)
    # An UPDATE that changes nothing installs no version: nothing to sync.
    before = backend.tables_synced
    writer.execute("UPDATE t SET val = val WHERE grp = 1")
    synced(reader)
    assert backend.tables_synced == before
    assert backend.mirror_reloads == 1
    assert backend.tables_synced == backend.mirror_reloads + backend.mirror_delta_syncs
    assert backend.reload_reasons == {"first load": 1}


def test_each_reload_records_its_reason(pair):
    writer, reader, backend = pair
    reasons = backend.reload_reasons
    # More than a quarter of the table in one sync: a bulk load is cheaper.
    writer.execute("UPDATE t SET val = -1 WHERE id <= 20")
    synced(reader)
    assert reasons == {"first load": 1, "delta too large": 1}
    # A commit larger than the delta log holds breaks its chain.
    writer.execute("DELETE FROM t")
    writer.load_rows("t", [(i, 0, 0, True) for i in range(DELTA_LOG_ROWS + 1)])
    synced(reader)
    assert reasons == {"first load": 1, "delta too large": 1, "no delta": 1}
    # A transaction's own uncommitted writes have no recorded delta ...
    reader.execute("BEGIN")
    reader.execute("UPDATE t SET val = 5 WHERE id = 1")
    synced(reader)
    assert reasons["no delta"] == 2
    # ... nor has the way back from them.
    reader.execute("ROLLBACK")
    synced(reader)
    assert reasons["no delta"] == 3
    # Committing instead keeps the working stamp: the mirror is current.
    reader.execute("BEGIN")
    reader.execute("UPDATE t SET val = 6 WHERE id = 2")
    synced(reader)
    reader.execute("COMMIT")
    before = backend.tables_synced
    synced(reader)
    assert backend.tables_synced == before
    # DROP + re-CREATE under the same name is another table.
    writer.execute("DROP TABLE t")
    writer.execute(CREATE_SQL)
    writer.execute("INSERT INTO t VALUES (1, 1, 1, true)")
    assert synced(reader) == [(1, 1, 1, True)]
    assert reasons["schema"] == 1
    assert backend.mirror_delta_syncs == 0


def test_merged_commits_reach_the_mirror_as_deltas():
    database = Database()
    sessions = [repro.connect(database=database, engine="sqlite") for _ in range(3)]
    first, second, reader = sessions
    backend = reader.planner.backend
    first.execute(CREATE_SQL)
    first.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 5}, {i}, true)" for i in range(1, 41))
    )
    synced(reader)
    # Disjoint rows: the second committer merges onto the first's state.
    first.execute("BEGIN")
    second.execute("BEGIN")
    first.execute("UPDATE t SET val = 100 WHERE id = 1")
    second.execute("UPDATE t SET val = 200 WHERE id = 2")
    first.execute("COMMIT")
    second.execute("COMMIT")
    rows = synced(reader)
    assert (rows[0][2], rows[1][2]) == (100, 200)
    assert backend.mirror_delta_syncs == 1 and backend.mirror_rows_applied == 2
    # Overlapping rows: the second committer aborts, nothing to mirror.
    first.execute("BEGIN")
    second.execute("BEGIN")
    first.execute("UPDATE t SET val = 101 WHERE id = 1")
    second.execute("UPDATE t SET val = 201 WHERE id = 1")
    first.execute("COMMIT")
    with pytest.raises(SerializationError):
        second.execute("COMMIT")
    assert synced(reader)[0][2] == 101
    assert backend.mirror_delta_syncs == 2
    # Concurrent inserters: the second committer's row lands after the
    # first's although it was staged earlier; the merge re-issues its
    # row id, so heap order stays id order and the mirror a keyed one.
    first.execute("BEGIN")
    second.execute("BEGIN")
    first.execute("INSERT INTO t VALUES (50, 0, 0, true)")
    second.execute("INSERT INTO t VALUES (51, 0, 0, true)")
    second.execute("COMMIT")
    first.execute("COMMIT")
    assert [row[0] for row in synced(reader)[-2:]] == [51, 50]
    ids = reader.catalog.scan_entry("t").table.row_ids
    assert ids == sorted(ids)
    assert backend.mirror_delta_syncs == 3 and backend.mirror_rows_applied == 5
    assert backend.reload_reasons == {"first load": 1}
    for conn in sessions:
        conn.close()


def test_single_row_appends_reach_the_mirror_one_delta_each(pair):
    """Autocommit single-row INSERTs, one sync after each: every one is
    a one-row delta, never a reload."""
    writer, reader, backend = pair
    for i in range(41, 61):
        writer.execute(f"INSERT INTO t VALUES ({i}, 0, {i}, false)")
        assert synced(reader)[-1] == (i, 0, i, False)
    assert backend.mirror_delta_syncs == 20
    assert backend.mirror_rows_applied == 20
    assert backend.mirror_reloads == 1


def test_unmirrorable_table_is_loaded_once_per_version(pair):
    """One integer beyond int64 makes the table unmirrorable; the
    verdict is remembered for that version instead of re-running the
    doomed load on every statement."""
    writer, reader, backend = pair
    row_conn = repro.connect(database=reader.database, engine="row")
    writer.execute(f"UPDATE t SET val = {BIG} WHERE id = 7")
    query = "SELECT count(*), max(val) FROM t WHERE grp = 2"
    expected = row_conn.execute(query).fetchall()
    assert expected == [(8, BIG)]
    for _ in range(5):
        assert reader.execute(query).fetchall() == expected
    assert backend.reload_reasons == {"first load": 1, "unmirrorable": 1}
    assert backend.mirror_reloads == 2
    # The table changes but stays unmirrorable: one more doomed load.
    writer.execute("UPDATE t SET val = 0 WHERE id = 8")
    for _ in range(3):
        assert reader.execute(query).fetchall() == expected
    assert backend.reload_reasons["unmirrorable"] == 2
    # The value leaves: the mirror comes back with one ordinary load.
    writer.execute("UPDATE t SET val = 7 WHERE id = 7")
    assert reader.execute(query).fetchall() == [(8, 37)]
    assert_mirrors_equal_heap([reader])
    assert backend.reload_reasons == {
        "first load": 1,
        "unmirrorable": 2,
        "no delta": 1,
    }
    row_conn.close()


def test_a_mirror_failing_mid_delta_recovers_on_the_next_read(pair, monkeypatch):
    """A backend error part-way through a delta (the DELETE applied, the
    UPDATE refused) fails the read; once the fault is gone the next read
    answers what the row engine does, from a mirror equal to the heap."""
    writer, reader, backend = pair
    row_conn = repro.connect(database=reader.database, engine="row")
    writer.execute("DELETE FROM t WHERE id = 4")
    writer.execute("UPDATE t SET val = 0 WHERE id = 3")

    class RefusesUpdates:
        def __init__(self, inner):
            self.inner = inner

        def executemany(self, sql, rows):
            if sql.startswith("UPDATE"):
                raise sqlite3.OperationalError("disk I/O error")
            return self.inner.executemany(sql, rows)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    query = "SELECT * FROM t WHERE grp = 3"
    monkeypatch.setattr(backend, "connection", RefusesUpdates(backend.connection))
    with pytest.raises(ExecutionError, match="disk I/O error"):
        reader.execute(query).fetchall()
    monkeypatch.undo()
    assert reader.execute(query).fetchall() == row_conn.execute(query).fetchall()
    assert_mirrors_equal_heap([reader])
    heap = reader.catalog.scan_entry("t").table
    rowids = backend.connection.execute('SELECT rowid FROM main."t" ORDER BY rowid')
    assert [rid for (rid,) in rowids] == heap.row_ids
    row_conn.close()


def test_mirrors_follow_concurrent_committers():
    """The delta log is written by committing threads while reader
    threads walk it: more threads than cores, a short switch interval,
    and every reader's mirror must equal its snapshot at every look."""
    database = Database()
    setup = database.connect()
    setup.execute(CREATE_SQL)
    setup.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 5}, {i}, true)" for i in range(1, 201))
    )
    setup.close()
    deadline = time.monotonic() + 1.5
    failures: list[BaseException] = []
    looks = [0, 0]
    deltas = [0, 0]

    def writer(who: int) -> None:
        rng = random.Random(who)
        conn = repro.connect(database=database, engine="row")
        try:
            serial = 1000 * (who + 1)
            while time.monotonic() < deadline and not failures:
                serial += 1
                conn.execute(f"INSERT INTO t VALUES ({serial}, {who}, 0, false)")
                conn.execute(
                    f"UPDATE t SET val = val + 1 WHERE id = {rng.randrange(1, 201)}"
                )
                if serial % 7 == 0:
                    conn.execute(f"DELETE FROM t WHERE id = {serial - 3}")
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            conn.close()

    def reader(who: int) -> None:
        conn = repro.connect(database=database, engine="sqlite")
        try:
            while time.monotonic() < deadline and not failures:
                heap_rows, mirrored = mirror_state(conn)
                assert mirrored == heap_rows
                looks[who] += 1
            deltas[who] = conn.planner.backend.mirror_delta_syncs
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=writer, args=(who,)) for who in range(2)]
    threads += [threading.Thread(target=reader, args=(who,)) for who in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert min(looks) > 10 and sum(deltas) > 10


def test_partition_shards_always_reload():
    database = Database()
    conn = repro.connect(database=database, engine="sqlite-partition")
    conn.execute(CREATE_SQL)
    conn.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 5}, {i}, true)" for i in range(1, 41))
    )
    query = "SELECT grp, count(*) FROM t GROUP BY grp"
    conn.execute(query).fetchall()
    conn.execute("DELETE FROM t WHERE id = 1")
    assert conn.execute(query).fetchall() == [(2, 8), (3, 8), (4, 8), (0, 8), (1, 7)]
    for shard in conn.planner.backend.shards:
        assert shard.mirror_delta_syncs == 0
        assert shard.reload_reasons == {"first load": 1, "no delta": 1}
    conn.close()


# ---------------------------------------------------------------------------
# Part (1): join-key indexes
# ---------------------------------------------------------------------------

ANALYTIC = {
    name: with_provenance(sql)
    for queries in QUERY_CLASSES.values()
    for name, sql in queries.items()
    if name != "set_except"
}


def physical(conn, sql: str):
    """The physical plan *sql* compiles to on *conn*'s engine."""
    statement = conn.pipeline.parse(sql)[0]
    return conn._in_transaction(lambda: conn._prepared_for(statement)).physical


def backend_plan(conn, sql: str) -> str:
    return conn.explain(sql).split("backend plan:\n")[1]


def test_join_back_searches_the_base_mirror_through_an_index():
    conn = create_tpch_db(TpchConfig().scale(1), engine="sqlite")
    assert physical(conn, ANALYTIC["agg_having"]).index_requests == (("orders", ("o_custkey",)),)
    plan = backend_plan(conn, ANALYTIC["agg_having"])
    assert "USING INDEX #ix:orders:o_custkey (o_custkey=?)" in plan
    assert "AUTOMATIC" not in plan
    assert conn.planner.backend.indexes_built == 1
    conn.close()


def test_point_join_searches_both_mirrors_through_indexes():
    conn = repro.connect(engine="sqlite")
    conn.execute("CREATE TABLE accounts (id int, branch int, balance int)")
    conn.execute("CREATE TABLE ledger (entry int, account int, amount int)")
    conn.execute(
        "INSERT INTO accounts VALUES " + ", ".join(f"({i}, 0, 9)" for i in range(50))
    )
    conn.execute(
        "INSERT INTO ledger VALUES " + ", ".join(f"({i}, {i % 50}, 1)" for i in range(200))
    )
    sql = (
        "SELECT PROVENANCE a.id, a.balance, l.amount FROM accounts a "
        "JOIN ledger l ON l.account = a.id WHERE a.id = 7"
    )
    assert set(physical(conn, sql).index_requests) == {
        ("accounts", ("id",)),
        ("ledger", ("account",)),
    }
    plan = backend_plan(conn, sql)
    assert "SCAN" not in plan
    assert plan.count("USING INDEX #ix:") == 2
    # The indexes follow the mirror through deltas and reloads.
    backend = conn.planner.backend
    assert backend.indexes_built == 2
    conn.execute("INSERT INTO ledger VALUES (200, 7, 5)")
    assert len(conn.execute(sql).fetchall()) == 5
    assert backend.indexes_built == 2 and backend.mirror_delta_syncs == 1
    conn.execute("DELETE FROM ledger")
    assert conn.execute(sql).fetchall() == []
    assert backend.indexes_built == 3
    assert "USING INDEX #ix:ledger:account" in backend_plan(conn, sql)
    conn.close()


def test_indexes_change_no_analytic_result():
    row = create_tpch_db(TpchConfig().scale(1), engine="row")
    pushed = repro.connect(database=row.database, engine="sqlite")
    for name, sql in ANALYTIC.items():
        assert pushed.execute(sql).fetchall() == row.execute(sql).fetchall(), name
    assert pushed.planner.backend.indexes_built >= 3
    row.close()
    pushed.close()


def test_join_on_an_expression_requests_no_index_for_that_side():
    conn = repro.connect(engine="sqlite")
    conn.execute("CREATE TABLE a (x int, w int)")
    conn.execute("CREATE TABLE b (y int, z int)")
    requests = physical(conn, "SELECT * FROM a JOIN b ON a.x + 1 = b.y").index_requests
    assert requests == (("b", ("y",)),)
    # Several conjuncts over one scan make one composite request; a
    # comparison with a constant is a filter, not a join key.
    requests = physical(
        conn, "SELECT * FROM a JOIN b ON a.x = b.y AND b.z = a.w AND b.z = 3"
    ).index_requests
    assert set(requests) == {("a", ("x", "w")), ("b", ("y", "z"))}
    conn.close()


def test_explain_shows_what_the_backend_was_given():
    conn = repro.connect(engine="sqlite")
    conn.execute("CREATE TABLE a (x int, w int)")
    conn.execute("CREATE TABLE b (y int, z float)")
    text = conn.explain(
        "SELECT * FROM a JOIN (SELECT y, sum(z) AS s FROM b GROUP BY y) g ON a.x = g.y"
    )
    assert "pushdown statement (SQLiteBackend):\nSELECT " in text
    assert "row-engine fallbacks:\n  α[b.y; sum]: grouped float sum/avg" in text
    assert "index requests:\n  a (x)" in text
    assert "backend plan:\n  " in text
    # Same tree, no backend section, on a core engine.
    plain = repro.connect(database=conn.database, engine="row").explain(
        "SELECT * FROM a JOIN b ON a.x = b.y"
    )
    assert "pushdown" not in plain
    # A plan no part of which can be pushed down says so.
    union = conn.explain("SELECT x FROM a UNION SELECT y FROM b")
    assert union.endswith("pushdown: none (the whole plan runs on the row engine)")
    conn.close()


def test_backend_counters_reach_server_stats():
    from repro.server import PermServer, ServerClient, ServerThread

    database = Database()
    loader = database.connect()
    loader.execute(CREATE_SQL)
    loader.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 5}, {i}, true)" for i in range(1, 41))
    )
    server = PermServer(database=database)
    thread = ServerThread(server).start()
    try:
        with ServerClient("127.0.0.1", server.port, engine="sqlite") as wire:
            wire.query("SELECT * FROM t t1 JOIN t t2 ON t1.id = t2.val")
            wire.query("INSERT INTO t VALUES (41, 0, 0, NULL)")
            wire.query("SELECT * FROM t t1 JOIN t t2 ON t1.id = t2.val")
            stats = wire.stats()["backend"]
        assert stats == {
            "statements_executed": 2,
            "tables_synced": 2,
            "mirror_reloads": 1,
            "mirror_delta_syncs": 1,
            "mirror_rows_applied": 1,
            "indexes_built": 2,
            "reload_reasons": {"first load": 1},
        }
        with ServerClient("127.0.0.1", server.port, engine="row") as wire:
            assert wire.stats()["backend"] == {}
    finally:
        thread.stop()
        loader.close()
