"""MVCC transaction semantics: snapshots, conflicts, savepoints,
autocommit modes and rollback restoring state exactly."""

from __future__ import annotations

import pytest

import repro
from repro import (
    Database,
    OperationalError,
    ProgrammingError,
    SerializationError,
    connect,
)
from repro.sql import parse_sql
from repro.sql.printer import format_statement

ENGINES = ("row", "vectorized", "sqlite")


def _shared_db():
    db = Database()
    setup = connect(database=db)
    setup.run("CREATE TABLE t (a int, b text)")
    setup.load_rows("t", [(1, "x"), (2, "y"), (3, "z")])
    return db, setup


# ---------------------------------------------------------------------------
# Snapshot isolation
# ---------------------------------------------------------------------------


class TestSnapshots:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reader_in_begin_sees_stable_snapshot(self, engine):
        """The acceptance scenario: a reader inside BEGIN observes a
        bit-identical snapshot while a concurrent writer commits."""
        db, writer = _shared_db()
        reader = connect(database=db, engine=engine)
        reader.execute("BEGIN")
        before = reader.execute("SELECT a, b FROM t").fetchall()
        prov_before = reader.execute("SELECT PROVENANCE a FROM t WHERE a > 1").fetchall()

        writer.execute("UPDATE t SET b = 'changed' WHERE a = 1")
        writer.execute("DELETE FROM t WHERE a = 3")
        writer.execute("INSERT INTO t VALUES (9, 'new')")

        assert reader.execute("SELECT a, b FROM t").fetchall() == before
        assert (
            reader.execute("SELECT PROVENANCE a FROM t WHERE a > 1").fetchall()
            == prov_before
        )
        reader.execute("COMMIT")
        after = reader.execute("SELECT a, b FROM t").fetchall()
        assert sorted(after) == [(1, "changed"), (2, "y"), (9, "new")]

    def test_snapshot_identical_across_all_engines(self):
        """Three readers — one per engine — open snapshots of the same
        database; each must stay bit-identical under concurrent commits
        and agree with the others."""
        db, writer = _shared_db()
        readers = {engine: connect(database=db, engine=engine) for engine in ENGINES}
        for reader in readers.values():
            reader.execute("BEGIN")
        baseline = {
            engine: reader.execute("SELECT a, b FROM t").fetchall()
            for engine, reader in readers.items()
        }
        assert len({tuple(rows) for rows in baseline.values()}) == 1

        writer.execute("UPDATE t SET b = 'w' WHERE a >= 1")
        for engine, reader in readers.items():
            assert (
                reader.execute("SELECT a, b FROM t").fetchall() == baseline[engine]
            ), engine

    def test_uncommitted_writes_are_private(self):
        db, setup = _shared_db()
        writer = connect(database=db)
        observer = connect(database=db)
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET b = 'mine' WHERE a = 1")
        assert writer.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("mine",)]
        assert observer.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("x",)]
        writer.commit()
        assert observer.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("mine",)]

    def test_repeatable_aggregate_reads(self):
        db, writer = _shared_db()
        reader = connect(database=db)
        reader.execute("BEGIN")
        total = reader.execute("SELECT sum(a) FROM t").fetchall()
        writer.execute("INSERT INTO t VALUES (100, 'big')")
        assert reader.execute("SELECT sum(a) FROM t").fetchall() == total


# ---------------------------------------------------------------------------
# Conflicts (first-committer-wins)
# ---------------------------------------------------------------------------


class TestConflicts:
    def test_first_committer_wins_on_same_row(self):
        db, _ = _shared_db()
        first = connect(database=db)
        second = connect(database=db)
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("UPDATE t SET b = 'first' WHERE a = 1")
        second.execute("UPDATE t SET b = 'second' WHERE a = 1")
        first.commit()
        with pytest.raises(SerializationError, match="concurrent transaction"):
            second.commit()
        # The loser was rolled back; its connection is reusable.
        assert not second.in_transaction
        assert second.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("first",)]
        assert second.execute("SELECT b FROM t WHERE a = 2").fetchall() == [("y",)]

    def test_disjoint_row_updates_both_commit(self):
        # Row-level write sets: updating different rows of one table is
        # not a conflict — the second commit merges onto the first.
        db, observer = _shared_db()
        first = connect(database=db)
        second = connect(database=db)
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("UPDATE t SET b = 'first' WHERE a = 1")
        second.execute("UPDATE t SET b = 'second' WHERE a = 2")
        first.commit()
        second.commit()
        assert observer.execute(
            "SELECT a, b FROM t ORDER BY a"
        ).fetchall() == [(1, "first"), (2, "second"), (3, "z")]

    def test_update_vs_delete_of_same_row_conflicts(self):
        db, _ = _shared_db()
        first = connect(database=db)
        second = connect(database=db)
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("DELETE FROM t WHERE a = 1")
        second.execute("UPDATE t SET b = 'late' WHERE a = 1")
        first.commit()
        with pytest.raises(SerializationError, match="concurrent transaction"):
            second.commit()

    def test_concurrent_inserts_never_conflict(self):
        db, observer = _shared_db()
        first = connect(database=db)
        second = connect(database=db)
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("INSERT INTO t VALUES (10, 'ten')")
        second.execute("INSERT INTO t VALUES (11, 'eleven')")
        first.commit()
        second.commit()
        assert observer.execute("SELECT count(*) FROM t").fetchall() == [(5,)]

    def test_delete_merges_with_disjoint_update(self):
        # One side deletes row 3 while the other updates row 1: both
        # effects survive in the merged committed state.
        db, observer = _shared_db()
        first = connect(database=db)
        second = connect(database=db)
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("DELETE FROM t WHERE a = 3")
        second.execute("UPDATE t SET b = 'kept' WHERE a = 1")
        first.commit()
        second.commit()
        assert observer.execute(
            "SELECT a, b FROM t ORDER BY a"
        ).fetchall() == [(1, "kept"), (2, "y")]

    def test_full_table_delete_is_a_row_level_write(self):
        # A DELETE without WHERE writes every row it sees: it overlaps a
        # concurrent update of any of them ...
        db, observer = _shared_db()
        first = connect(database=db)
        second = connect(database=db)
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("UPDATE t SET b = 'gone?' WHERE a = 1")
        second.execute("DELETE FROM t")
        first.commit()
        with pytest.raises(SerializationError, match="write-write overlap on 1 row"):
            second.commit()
        # ... but not a row inserted beside it, which survives.
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("INSERT INTO t VALUES (4, 'new')")
        second.execute("DELETE FROM t")
        first.commit()
        second.commit()
        assert observer.execute("SELECT a, b FROM t").fetchall() == [(4, "new")]

    def test_read_only_transactions_never_conflict(self):
        db, _ = _shared_db()
        reader = connect(database=db)
        writer = connect(database=db)
        reader.execute("BEGIN")
        reader.execute("SELECT a FROM t").fetchall()
        writer.execute("UPDATE t SET b = 'w' WHERE a = 1")
        reader.commit()  # no writes, nothing to serialize

    def test_no_op_update_does_not_conflict(self):
        db, _ = _shared_db()
        one = connect(database=db)
        two = connect(database=db)
        one.execute("BEGIN")
        two.execute("BEGIN")
        one.execute("UPDATE t SET b = 'hit' WHERE a = 1")
        two.execute("UPDATE t SET b = 'miss' WHERE a = 999")  # matches nothing
        one.commit()
        two.commit()

    def test_disjoint_tables_commit_independently(self):
        db, setup = _shared_db()
        setup.run("CREATE TABLE u (v int)")
        one = connect(database=db)
        two = connect(database=db)
        one.execute("BEGIN")
        two.execute("BEGIN")
        one.execute("UPDATE t SET b = 'one' WHERE a = 1")
        two.execute("INSERT INTO u VALUES (5)")
        one.commit()
        two.commit()
        assert setup.execute("SELECT v FROM u").fetchall() == [(5,)]

    def test_autocommit_statement_retries_conflicts(self):
        # Two sessions racing single UPDATE statements: autocommit
        # statements retry on a fresh snapshot instead of surfacing the
        # serialization failure to the caller.
        db, setup = _shared_db()
        one = connect(database=db)
        one.execute("UPDATE t SET b = 'o' WHERE a = 1")  # plain autocommit write
        assert setup.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("o",)]


# ---------------------------------------------------------------------------
# Rollback restores everything
# ---------------------------------------------------------------------------


class TestRollback:
    def test_rollback_restores_rows_and_version(self):
        db, setup = _shared_db()
        table = setup.catalog.table("t").table
        rows_before = table.rows
        version_before = table.version
        setup.execute("BEGIN")
        setup.execute("DELETE FROM t")
        setup.execute("INSERT INTO t VALUES (42, 'q')")
        setup.rollback()
        # Not just equal content: the exact committed state object and
        # stamp are restored, so every version-keyed cache revalidates.
        assert table.rows is rows_before
        assert table.version == version_before

    def test_rollback_restores_catalog_stats(self):
        from repro.storage import mvcc

        db, setup = _shared_db()
        entry = setup.catalog.table("t")
        stats_before = entry.stats()
        setup.execute("BEGIN")
        setup.execute("INSERT INTO t VALUES (1000, 'big')")
        # The transaction is active only while its statements run; enter
        # it explicitly to observe the transaction-local statistics.
        with mvcc.activate(setup._txn):
            in_txn = entry.stats()
            assert in_txn.row_count == stats_before.row_count + 1
        setup.rollback()
        after = entry.stats()
        assert after.row_count == stats_before.row_count
        assert after.columns["a"].max_value == stats_before.columns["a"].max_value

    def test_close_rolls_back_open_transaction(self):
        db, setup = _shared_db()
        other = connect(database=db)
        other.execute("BEGIN")
        other.execute("DELETE FROM t")
        other.close()
        assert len(setup.execute("SELECT a FROM t").fetchall()) == 3


# ---------------------------------------------------------------------------
# Savepoints
# ---------------------------------------------------------------------------


class TestSavepoints:
    def test_rollback_to_savepoint(self):
        db, setup = _shared_db()
        setup.execute("BEGIN")
        setup.execute("UPDATE t SET b = 'kept' WHERE a = 1")
        setup.execute("SAVEPOINT sp")
        setup.execute("DELETE FROM t")
        assert setup.execute("SELECT count(*) FROM t").fetchall() == [(0,)]
        setup.execute("ROLLBACK TO SAVEPOINT sp")
        assert setup.execute("SELECT count(*) FROM t").fetchall() == [(3,)]
        assert setup.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("kept",)]
        setup.commit()
        assert setup.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("kept",)]

    @pytest.mark.parametrize(
        "write",
        ["DELETE FROM t WHERE a = {}", "INSERT INTO t VALUES ({}0, 'new')"],
        ids=["delete", "insert"],
    )
    @pytest.mark.parametrize("written_before", [False, True], ids=["clean", "written"])
    def test_savepoint_can_be_rolled_back_to_twice(self, write, written_before):
        # With the table written before the SAVEPOINT, the savepoint and
        # the transaction share its lists: an append after a restore
        # must copy them, not write into what the savepoint keeps.
        db, setup = _shared_db()
        setup.execute("BEGIN")
        if written_before:
            setup.execute("UPDATE t SET b = 'pre' WHERE a = 3")
        setup.execute("SAVEPOINT sp")
        setup.execute(write.format(1))
        setup.execute("ROLLBACK TO sp")  # SAVEPOINT keyword optional
        setup.execute(write.format(2))
        setup.execute("ROLLBACK TO SAVEPOINT sp")
        setup.commit()
        assert setup.execute("SELECT a, b FROM t").fetchall() == [
            (1, "x"), (2, "y"), (3, "pre" if written_before else "z"),
        ]

    def test_release_forgets_savepoint(self):
        db, setup = _shared_db()
        setup.execute("BEGIN")
        setup.execute("SAVEPOINT sp")
        setup.execute("RELEASE SAVEPOINT sp")
        with pytest.raises(OperationalError, match="no such savepoint"):
            setup.execute("ROLLBACK TO SAVEPOINT sp")
        setup.rollback()

    def test_nested_savepoints_unwind_in_order(self):
        db, setup = _shared_db()
        setup.execute("BEGIN")
        setup.execute("SAVEPOINT outer_sp")
        setup.execute("DELETE FROM t WHERE a = 1")
        setup.execute("SAVEPOINT inner_sp")
        setup.execute("DELETE FROM t WHERE a = 2")
        setup.execute("ROLLBACK TO SAVEPOINT inner_sp")
        assert setup.execute("SELECT count(*) FROM t").fetchall() == [(2,)]
        setup.execute("ROLLBACK TO SAVEPOINT outer_sp")
        assert setup.execute("SELECT count(*) FROM t").fetchall() == [(3,)]
        # Rolling back to outer dropped inner.
        with pytest.raises(OperationalError, match="no such savepoint"):
            setup.execute("ROLLBACK TO SAVEPOINT inner_sp")
        setup.rollback()

    def test_savepoint_outside_transaction_errors(self):
        _, setup = _shared_db()
        with pytest.raises(OperationalError, match="no transaction in progress"):
            setup.execute("SAVEPOINT sp")
        with pytest.raises(OperationalError, match="no transaction in progress"):
            setup.execute("ROLLBACK TO SAVEPOINT sp")


# ---------------------------------------------------------------------------
# Connection API / PEP 249 semantics
# ---------------------------------------------------------------------------


class TestConnectionSemantics:
    def test_begin_twice_errors(self):
        _, setup = _shared_db()
        setup.execute("BEGIN")
        with pytest.raises(OperationalError, match="already in progress"):
            setup.execute("BEGIN")
        setup.rollback()

    def test_commit_rollback_without_transaction_are_noops(self):
        _, setup = _shared_db()
        setup.commit()
        setup.rollback()
        setup.execute("COMMIT")
        setup.execute("ROLLBACK")

    def test_start_transaction_spellings(self):
        _, setup = _shared_db()
        for begin in ("BEGIN", "BEGIN TRANSACTION", "BEGIN WORK", "START TRANSACTION"):
            setup.execute(begin)
            assert setup.in_transaction
            setup.execute("COMMIT WORK")
            assert not setup.in_transaction

    def test_manual_commit_mode_implicit_transaction(self):
        db, setup = _shared_db()
        manual = connect(database=db, autocommit=False)
        observer = connect(database=db)
        manual.execute("UPDATE t SET b = 'm' WHERE a = 1")  # opens the txn
        assert manual.in_transaction
        assert observer.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("x",)]
        manual.commit()
        assert observer.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("m",)]

    def test_manual_mode_rollback_discards(self):
        db, setup = _shared_db()
        manual = connect(database=db, autocommit=False)
        manual.execute("DELETE FROM t")
        manual.rollback()
        assert len(setup.execute("SELECT a FROM t").fetchall()) == 3

    def test_enabling_autocommit_commits_open_transaction(self):
        db, setup = _shared_db()
        manual = connect(database=db, autocommit=False)
        manual.execute("UPDATE t SET b = 'c' WHERE a = 2")
        manual.autocommit = True
        assert setup.execute("SELECT b FROM t WHERE a = 2").fetchall() == [("c",)]

    def test_transaction_control_rejects_parameters(self):
        _, setup = _shared_db()
        with pytest.raises(ProgrammingError, match="no parameters"):
            setup.execute("BEGIN", (1,))

    def test_transaction_control_rejects_executemany(self):
        _, setup = _shared_db()
        with pytest.raises(ProgrammingError, match="executemany"):
            setup.executemany("COMMIT", [(), ()])

    def test_statement_error_keeps_transaction_usable(self):
        # sqlite-style: a failed statement inside an explicit transaction
        # has no effect but the transaction itself stays open.
        _, setup = _shared_db()
        setup.execute("BEGIN")
        setup.execute("UPDATE t SET b = 'pre' WHERE a = 1")
        with pytest.raises(repro.PermError):
            setup.execute("SELECT nope FROM t")
        assert setup.in_transaction
        setup.commit()
        assert setup.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("pre",)]

    def test_database_connect_helper(self):
        db = Database()
        conn = db.connect(engine="row")
        conn.execute("CREATE TABLE z (i int)")
        assert db.catalog.has_table("z")

    def test_manager_telemetry_counters(self):
        db, setup = _shared_db()
        begins = db.manager.begin_count
        commits = db.manager.commit_count
        setup.execute("BEGIN")
        setup.execute("INSERT INTO t VALUES (7, 'w')")
        setup.commit()
        assert db.manager.begin_count > begins
        assert db.manager.commit_count == commits + 1  # writing commits only


# ---------------------------------------------------------------------------
# SQL surface round-trips
# ---------------------------------------------------------------------------


class TestTransactionSql:
    @pytest.mark.parametrize(
        "sql, canonical",
        [
            ("begin", "BEGIN"),
            ("BEGIN TRANSACTION", "BEGIN"),
            ("start transaction", "BEGIN"),
            ("commit work", "COMMIT"),
            ("rollback", "ROLLBACK"),
            ("savepoint sp1", "SAVEPOINT sp1"),
            ("rollback to sp1", "ROLLBACK TO SAVEPOINT sp1"),
            ("rollback to savepoint sp1", "ROLLBACK TO SAVEPOINT sp1"),
            ("release savepoint sp1", "RELEASE SAVEPOINT sp1"),
            ("release sp1", "RELEASE SAVEPOINT sp1"),
        ],
    )
    def test_parse_and_print(self, sql, canonical):
        (statement,) = parse_sql(sql)
        assert format_statement(statement) == canonical
        # The canonical text re-parses to the same statement.
        (again,) = parse_sql(canonical)
        assert format_statement(again) == canonical

    def test_keywords_stay_usable_as_identifiers(self):
        # The new keywords are non-reserved: tables/columns named with
        # them keep working.
        conn = connect()
        conn.run("CREATE TABLE release (work int, start int)")
        conn.run("INSERT INTO release VALUES (1, 2)")
        assert conn.execute("SELECT work, start FROM release").fetchall() == [(1, 2)]

    def test_keywords_stay_usable_as_bare_from_aliases(self):
        # A FROM item aliased without AS by a non-reserved keyword
        # (including the new transaction words) must keep parsing.
        conn = connect()
        conn.run("CREATE TABLE t (a int)")
        conn.run("INSERT INTO t VALUES (5)")
        for alias in ("start", "work", "transaction", "savepoint", "count"):
            assert conn.execute(f"SELECT {alias}.a FROM t {alias}").fetchall() == [(5,)]
        # The SQL-PLE FROM modifiers are not swallowed as aliases.
        assert conn.execute("SELECT a FROM t BASERELATION").fetchall() == [(5,)]

    def test_transaction_control_accepts_empty_parameter_sequence(self):
        _, setup = _shared_db()
        setup.execute("BEGIN", ())
        setup.execute("COMMIT", [])

    def test_multi_statement_script_with_transaction(self):
        _, setup = _shared_db()
        setup.run(
            "BEGIN; UPDATE t SET b = 's' WHERE a = 1; COMMIT"
        )
        assert setup.execute("SELECT b FROM t WHERE a = 1").fetchall() == [("s",)]
