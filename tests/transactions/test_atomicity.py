"""Satellites: atomic DML at the storage layer, all-or-nothing
``executemany``, and plan/statistics revalidation across rollback."""

from __future__ import annotations

import pytest

from repro import Database, SerializationError, TypeCheckError, connect
from repro.catalog.schema import Attribute, Schema
from repro.datatypes import SQLType
from repro.errors import AnalyzeError, CatalogError, ExecutionError, OperationalError
from repro.storage.mvcc import TransactionManager, activate
from repro.storage.table import HeapTable


def where(predicate):
    """A matcher (rows -> ascending positions) from a row predicate."""
    return lambda rows: [i for i, row in enumerate(rows) if predicate(row)]


@pytest.fixture
def table(autocommit) -> HeapTable:
    table = HeapTable(
        "t", Schema((Attribute("a", SQLType.INT), Attribute("b", SQLType.TEXT)))
    )
    autocommit(table.insert_many, [(1, "x"), (2, "y"), (3, "z")])
    return table


@pytest.fixture
def in_txn():
    """An open transaction, active for the whole test: a failing write
    must leave what the transaction sees untouched — no rollback hides
    a half-applied statement."""
    txn = TransactionManager(lambda: ()).begin()
    with activate(txn):
        yield txn
    txn.rollback()


# ---------------------------------------------------------------------------
# HeapTable-level atomicity (stage-then-apply)
# ---------------------------------------------------------------------------


class TestHeapTableAtomicity:
    def test_insert_many_is_all_or_nothing(self, table, in_txn):
        before = table.rows
        version = table.version
        with pytest.raises(CatalogError, match="columns"):
            table.insert_many([(4, "ok"), (5, "ok", "extra")])
        assert table.rows is before, "a bad row mid-batch must leave the heap alone"
        assert table.version == version

    def test_update_where_predicate_error_leaves_heap(self, table, in_txn):
        before = table.rows
        version = table.version

        def predicate(row):
            if row[0] == 3:
                raise ExecutionError("boom mid-scan")
            return True

        with pytest.raises(ExecutionError):
            table.update_where(where(predicate), lambda row: (row[0], "hit"))
        assert table.rows is before
        assert table.version == version

    def test_update_where_coercion_error_leaves_heap(self, table, in_txn):
        before = table.rows

        def updater(row):
            # Coercion of the third row fails after two staged updates.
            return (None, None, None) if row[0] == 3 else (row[0] * 10, row[1])

        with pytest.raises(CatalogError):
            table.update_where(where(lambda row: True), updater)
        assert table.rows is before

    def test_delete_where_predicate_error_leaves_heap(self, table, in_txn):
        before = table.rows

        def predicate(row):
            if row[0] == 2:
                raise ExecutionError("boom")
            return True

        with pytest.raises(ExecutionError):
            table.delete_where(where(predicate))
        assert table.rows is before

    def test_sql_update_division_by_zero_mid_table(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int, b int)")
        conn.load_rows("t", [(1, 1), (2, 0), (3, 3)])
        with pytest.raises(ExecutionError, match="division by zero"):
            conn.execute("UPDATE t SET b = 10 / b")
        assert conn.execute("SELECT a, b FROM t").fetchall() == [(1, 1), (2, 0), (3, 3)]

    def test_sql_multi_row_insert_error_inserts_nothing(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int)")
        with pytest.raises(ExecutionError, match="division by zero"):
            conn.execute("INSERT INTO t VALUES (1), (1 / 0), (3)")
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(0,)]


# ---------------------------------------------------------------------------
# executemany: all rows or none
# ---------------------------------------------------------------------------


class TestExecutemanyAtomicity:
    def test_mid_batch_bind_error_leaves_table_untouched(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int, b text)")
        with pytest.raises((TypeCheckError, ExecutionError)):
            conn.executemany(
                "INSERT INTO t VALUES (?, ?)",
                [(1, "ok"), (2, "ok"), ("not-an-int", "bad"), (4, "never")],
            )
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(0,)]

    def test_mid_batch_arity_error_leaves_table_untouched(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int, b text)")
        with pytest.raises(Exception):
            conn.executemany(
                "INSERT INTO t VALUES (?, ?)", [(1, "ok"), (2,), (3, "never")]
            )
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(0,)]

    def test_mid_batch_execution_error_leaves_table_untouched(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int)")
        conn.load_rows("t", [(10,)])
        with pytest.raises(ExecutionError):
            conn.executemany("INSERT INTO t VALUES (100 / ?)", [(2,), (0,), (4,)])
        assert conn.execute("SELECT a FROM t").fetchall() == [(10,)]

    def test_mid_batch_error_inside_explicit_transaction(self):
        # Inside BEGIN the batch is savepoint-fenced: earlier statements
        # of the transaction survive, the batch vanishes entirely.
        conn = connect()
        conn.run("CREATE TABLE t (a int, b text)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (0, 'pre')")
        with pytest.raises((TypeCheckError, ExecutionError)):
            conn.executemany(
                "INSERT INTO t VALUES (?, ?)", [(1, "ok"), ("bad", "x"), (3, "ok")]
            )
        assert conn.in_transaction
        conn.commit()
        assert conn.execute("SELECT a, b FROM t").fetchall() == [(0, "pre")]

    def test_successful_batch_commits_once(self):
        db = Database()
        conn = connect(database=db)
        conn.run("CREATE TABLE t (a int)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(5)])
        other = connect(database=db)
        assert other.execute("SELECT count(*) FROM t").fetchall() == [(5,)]

    def test_update_batch_atomicity(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int, b int)")
        conn.load_rows("t", [(1, 1), (2, 2)])
        with pytest.raises(ExecutionError):
            conn.executemany(
                "UPDATE t SET b = 100 / ? WHERE a = 1", [(4,), (0,)]
            )
        assert conn.execute("SELECT a, b FROM t").fetchall() == [(1, 1), (2, 2)]


# ---------------------------------------------------------------------------
# Plan-cache / PreparedPlan revalidation across transactions
# ---------------------------------------------------------------------------


class TestPlanRevalidationAcrossRollback:
    """The optimizer's join-back elimination records ``(table, version)``
    uniqueness deps. A version bump inside a transaction must invalidate
    the plan *inside* that transaction only; after ROLLBACK the original
    deps (and the eliminated plan) are exactly valid again."""

    SQL = "SELECT c0 FROM (SELECT PROVENANCE a AS c0 FROM big LIMIT 3) q"

    def _db(self):
        conn = connect(optimizer="cost")
        conn.run("CREATE TABLE big (a int, b text)")
        conn.load_rows("big", [(i, f"t{i}") for i in range(10)])
        return conn

    def test_rolled_back_bump_revalidates_against_restored_state(self):
        conn = self._db()
        assert conn.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]
        assert conn.counters.joinbacks_eliminated == 1

        conn.execute("BEGIN")
        conn.execute("INSERT INTO big VALUES (0, 'dup')")  # a no longer unique
        # Inside the transaction the cached eliminated plan is stale:
        # the duplicated key means the join-back legitimately duplicates
        # the limited row, and the plan must re-prepare to see it.
        assert conn.execute(self.SQL).fetchall() == [(0,), (0,), (1,), (2,)]
        conn.rollback()

        # After rollback the committed stamp is restored; the query must
        # again see exactly the original rows (not the stale in-txn plan,
        # not a stale-validated dep).
        assert conn.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]

    def test_prepared_statement_across_rollback(self):
        conn = self._db()
        statement = conn.prepare(self.SQL)
        assert statement.execute().rows == [(0,), (1,), (2,)]
        conn.execute("BEGIN")
        conn.execute("INSERT INTO big VALUES (0, 'dup')")
        assert statement.execute().rows == [(0,), (0,), (1,), (2,)]
        conn.rollback()
        assert statement.execute().rows == [(0,), (1,), (2,)]

    def test_commit_reuses_transaction_local_plan_validity(self):
        # A plan prepared against the transaction's final working state
        # stays valid after COMMIT (the commit installs the same stamp),
        # so no spurious re-prepare happens.
        conn = self._db()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO big VALUES (50, 'new')")
        assert conn.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]
        analyze_before = conn.counters.analyze
        conn.commit()
        assert conn.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]
        assert conn.counters.analyze == analyze_before, "no re-prepare after commit"

    def test_uncommitted_stats_never_leak_to_other_sessions(self):
        db = Database()
        conn = connect(database=db, optimizer="cost")
        conn.run("CREATE TABLE big (a int, b text)")
        conn.load_rows("big", [(i, f"t{i}") for i in range(10)])
        other = connect(database=db, optimizer="cost")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO big VALUES (0, 'dup')")
        # The other session plans against the committed (still unique)
        # state and gets the eliminated plan with correct results.
        assert other.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]
        assert other.counters.joinbacks_eliminated == 1
        conn.rollback()


class TestConflictLosersLeaveNoTrace:
    def test_failed_commit_rolls_back_completely(self):
        db = Database()
        setup = connect(database=db)
        setup.run("CREATE TABLE t (a int, b text)")
        setup.load_rows("t", [(1, "x")])
        table = setup.catalog.table("t").table
        rows_before_txns = None

        one = connect(database=db)
        two = connect(database=db)
        one.execute("BEGIN")
        two.execute("BEGIN")
        one.execute("UPDATE t SET b = 'one' WHERE a = 1")
        two.execute("UPDATE t SET b = 'two' WHERE a = 1")
        one.commit()
        rows_before_txns = table.rows
        version = table.version
        with pytest.raises(SerializationError):
            two.commit()
        assert table.rows is rows_before_txns
        assert table.version == version
        assert setup.execute("SELECT b FROM t").fetchall() == [("one",)]


class TestDdlIsNotTransactional:
    """DDL cannot ride inside an explicit transaction: the catalog is
    not versioned, so a rolled-back CREATE/DROP could not be undone.
    The connection refuses up front instead of corrupting on rollback."""

    @pytest.fixture
    def conn(self):
        connection = connect()
        connection.run("CREATE TABLE t (a int)")
        connection.run("INSERT INTO t VALUES (1)")
        return connection

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE u (a int)",
            "CREATE TABLE u AS SELECT a FROM t",
            "CREATE VIEW v AS SELECT a FROM t",
            "DROP TABLE t",
        ],
    )
    def test_ddl_inside_explicit_transaction_is_refused(self, conn, ddl):
        conn.begin()
        with pytest.raises(
            OperationalError, match="DDL is not transactional"
        ):
            conn.execute(ddl)
        # The refusal is a clean error: the transaction is still usable.
        assert conn.in_transaction
        conn.execute("INSERT INTO t VALUES (2)")
        conn.commit()
        assert conn.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]

    def test_ddl_refusal_leaves_catalog_untouched(self, conn):
        conn.begin()
        with pytest.raises(OperationalError):
            conn.execute("CREATE TABLE u (a int)")
        conn.rollback()
        with pytest.raises(AnalyzeError):
            conn.execute("SELECT * FROM u")

    def test_ddl_works_between_transactions(self, conn):
        conn.begin()
        conn.execute("INSERT INTO t VALUES (2)")
        conn.commit()
        conn.execute("CREATE TABLE u (a int)")  # autocommit: fine
        conn.begin()
        conn.execute("INSERT INTO u VALUES (1)")
        conn.rollback()
        assert conn.execute("SELECT COUNT(*) FROM u").fetchall() == [(0,)]

    def test_ddl_does_not_open_the_implicit_transaction(self):
        connection = connect(autocommit=False)
        connection.run("CREATE TABLE t (a int)")
        # DDL self-committed: no transaction is left open around it.
        assert not connection.in_transaction
        connection.execute("INSERT INTO t VALUES (1)")
        assert connection.in_transaction
        with pytest.raises(OperationalError, match="DDL is not transactional"):
            connection.execute("CREATE TABLE u (a int)")
        connection.rollback()
