"""DB-API 2.0 front end: connections, cursors, prepared statements,
and the plan cache."""

from __future__ import annotations

import pytest

import repro
from repro import (
    Connection,
    ParseError,
    PermError,
    ProgrammingError,
    connect,
)
from repro.datatypes import SQLType


@pytest.fixture
def conn():
    connection = connect()
    connection.execute(
        "CREATE TABLE t (a int, b text); "
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')"
    )
    return connection


class TestModuleGlobals:
    def test_pep249_globals(self):
        assert repro.apilevel == "2.0"
        assert repro.threadsafety == 1
        assert repro.paramstyle == "qmark"
        assert issubclass(repro.ProgrammingError, repro.Error)
        assert issubclass(repro.DataError, repro.DatabaseError)

    def test_connect_returns_connection(self):
        assert isinstance(connect(), Connection)


class TestCursor:
    def test_execute_returns_cursor(self, conn):
        cursor = conn.execute("SELECT a FROM t ORDER BY a")
        assert cursor.fetchone() == (1,)
        assert cursor.fetchone() == (2,)
        assert cursor.fetchall() == [(3,)]
        assert cursor.fetchone() is None

    def test_iteration(self, conn):
        assert list(conn.execute("SELECT a FROM t ORDER BY a")) == [(1,), (2,), (3,)]

    def test_fetchmany_and_arraysize(self, conn):
        cursor = conn.execute("SELECT a FROM t ORDER BY a")
        assert cursor.fetchmany(2) == [(1,), (2,)]
        assert cursor.fetchmany(2) == [(3,)]
        assert cursor.fetchmany(2) == []
        cursor.execute("SELECT a FROM t ORDER BY a")
        cursor.arraysize = 2
        assert cursor.fetchmany() == [(1,), (2,)]

    def test_description(self, conn):
        cursor = conn.execute("SELECT a, b FROM t")
        names = [entry[0] for entry in cursor.description]
        types = [entry[1] for entry in cursor.description]
        assert names == ["a", "b"]
        assert types == [SQLType.INT, SQLType.TEXT]
        assert all(len(entry) == 7 for entry in cursor.description)

    def test_description_none_before_execute(self, conn):
        assert conn.cursor().description is None

    def test_rowcount(self, conn):
        assert conn.execute("SELECT a FROM t").rowcount == 3
        assert conn.execute("INSERT INTO t VALUES (4, 'w')").rowcount == 1
        assert conn.execute("DELETE FROM t WHERE a > 2").rowcount == 2
        assert conn.execute("UPDATE t SET b = 'u'").rowcount == 2

    def test_cursor_reuse(self, conn):
        cursor = conn.cursor()
        assert cursor.execute("SELECT a FROM t WHERE a = 1").fetchall() == [(1,)]
        assert cursor.execute("SELECT a FROM t WHERE a = 2").fetchall() == [(2,)]

    def test_fetch_before_execute_raises(self, conn):
        cursor = conn.cursor()
        with pytest.raises(ProgrammingError, match="no result set"):
            cursor.fetchone()
        with pytest.raises(ProgrammingError, match="no result set"):
            cursor.fetchall()
        with pytest.raises(ProgrammingError, match="no result set"):
            cursor.fetchmany(1)

    def test_closed_cursor_rejects_operations(self, conn):
        cursor = conn.execute("SELECT a FROM t")
        cursor.close()
        with pytest.raises(ProgrammingError, match="cursor is closed"):
            cursor.fetchall()
        with pytest.raises(ProgrammingError, match="cursor is closed"):
            cursor.execute("SELECT 1")

    def test_cursor_context_manager(self, conn):
        with conn.cursor() as cursor:
            cursor.execute("SELECT a FROM t")
        assert cursor.closed

    def test_provenance_attrs_and_relation(self, conn):
        cursor = conn.execute("SELECT PROVENANCE a FROM t WHERE a > 2")
        assert cursor.provenance_attrs == ("prov_t_a", "prov_t_b")
        assert cursor.relation.original_attrs == ["a"]


class TestConnectionLifecycle:
    def test_context_manager_closes(self):
        with connect() as connection:
            connection.execute("CREATE TABLE t (a int)")
        assert connection.closed
        with pytest.raises(ProgrammingError, match="connection is closed"):
            connection.execute("SELECT 1")
        with pytest.raises(ProgrammingError, match="connection is closed"):
            connection.cursor()

    def test_commit_rollback_without_transaction_are_noops(self, conn):
        # Real transactions live in tests/transactions/; outside one,
        # commit()/rollback() remain safe no-ops for DB-API tooling.
        assert not conn.in_transaction
        conn.commit()
        conn.rollback()
        assert conn.autocommit

    def test_closed_connection_blocks_existing_cursor(self, conn):
        cursor = conn.execute("SELECT a FROM t")
        conn.close()
        with pytest.raises(ProgrammingError, match="connection is closed"):
            cursor.execute("SELECT a FROM t")

    def test_closed_connection_blocks_prepared(self, conn):
        statement = conn.prepare("SELECT a FROM t")
        conn.close()
        with pytest.raises(ProgrammingError, match="connection is closed"):
            statement.execute()

    def test_close_is_idempotent(self, conn):
        conn.close()
        conn.close()  # second close must be a silent no-op
        assert conn.closed

    def test_cursor_close_is_idempotent(self, conn):
        cursor = conn.execute("SELECT a FROM t")
        cursor.close()
        cursor.close()
        assert cursor.closed

    def test_closed_connection_blocks_every_entry_point(self, conn):
        relation = conn.run("SELECT a FROM t")
        conn.close()
        with pytest.raises(ProgrammingError, match="connection is closed"):
            conn.run("SELECT 1")
        with pytest.raises(ProgrammingError, match="connection is closed"):
            conn.load_rows("t", [(4, "w")])
        with pytest.raises(ProgrammingError, match="connection is closed"):
            conn.create_table_from_relation("copy", relation)
        with pytest.raises(ProgrammingError, match="connection is closed"):
            conn.analyze_relation_schema("t")

    def test_close_rolls_back_open_transaction(self):
        database = repro.Database()
        writer = connect(database=database)
        writer.execute("CREATE TABLE t (a int)")
        writer.execute("INSERT INTO t VALUES (1)")
        writer.begin()
        writer.execute("UPDATE t SET a = 99")
        writer.close()
        observer = connect(database=database)
        assert observer.execute("SELECT a FROM t").fetchall() == [(1,)]


class TestPreparedStatements:
    def test_prepare_pays_pipeline_once(self, conn):
        """Acceptance: 100 executions of a prepared provenance query
        re-run only the execute stage."""
        statement = conn.prepare("SELECT PROVENANCE a FROM t WHERE a > ?")
        before = conn.counters.snapshot()
        for i in range(100):
            result = statement.execute((i % 3,))
        after = conn.counters
        assert after.executed_since(before) == 100
        assert after.prepared_since(before) == 0  # no analyze re-runs
        assert after.parse == before.parse
        assert after.optimize == before.optimize
        assert after.plan == before.plan
        assert result.columns == ["a", "prov_t_a", "prov_t_b"]

    def test_prepared_results_follow_parameters(self, conn):
        statement = conn.prepare("SELECT a FROM t WHERE a > ? ORDER BY a")
        assert statement.execute((0,)).rows == [(1,), (2,), (3,)]
        assert statement.execute((2,)).rows == [(3,)]
        assert statement.execute((99,)).rows == []

    def test_prepared_sees_new_rows(self, conn):
        statement = conn.prepare("SELECT count(*) FROM t")
        assert statement.execute().rows == [(3,)]
        conn.execute("INSERT INTO t VALUES (4, 'w')")
        assert statement.execute().rows == [(4,)]

    def test_prepared_metadata(self, conn):
        statement = conn.prepare("SELECT a, b FROM t WHERE a > :lo AND a < :hi")
        assert statement.parameter_count == 2
        assert statement.parameter_names == ("lo", "hi")
        assert statement.columns == ["a", "b"]
        assert statement.execute({"lo": 0, "hi": 2}).rows == [(1, "x")]

    def test_prepared_executemany(self, conn):
        statement = conn.prepare("SELECT a FROM t WHERE a = ?")
        result = statement.executemany([(1,), (2,)])
        assert result.rows == [(2,)]

    def test_prepared_revalidates_after_ddl(self, conn):
        """A held prepared statement must not scan dropped storage."""
        statement = conn.prepare("SELECT a FROM t ORDER BY a")
        assert statement.execute().rows == [(1,), (2,), (3,)]
        conn.execute("DROP TABLE t")
        conn.execute("CREATE TABLE t (a int, b text); INSERT INTO t VALUES (99, 'new')")
        assert statement.execute().rows == [(99,)]

    def test_prepared_errors_when_relation_dropped(self, conn):
        from repro import AnalyzeError

        statement = conn.prepare("SELECT a FROM t")
        conn.execute("DROP TABLE t")
        with pytest.raises(AnalyzeError, match="does not exist"):
            statement.execute()

    def test_prepare_rejects_ddl_and_multi(self, conn):
        with pytest.raises(ProgrammingError, match="queries only"):
            conn.prepare("CREATE TABLE u (a int)")
        with pytest.raises(ProgrammingError, match="exactly one statement"):
            conn.prepare("SELECT 1; SELECT 2")


class TestPlanCache:
    def test_repeated_execute_hits_cache(self, conn):
        """Acceptance: repeated cursor.execute of the same SQL text shows
        plan-cache hits and skips the pipeline."""
        conn.execute("SELECT a FROM t WHERE a > ?", (0,))
        hits0 = conn.plan_cache.hits
        before = conn.counters.snapshot()
        for i in range(10):
            conn.execute("SELECT a FROM t WHERE a > ?", (i,))
        assert conn.plan_cache.hits == hits0 + 10
        assert conn.counters.prepared_since(before) == 0
        assert conn.counters.executed_since(before) == 10

    def test_whitespace_variants_share_a_plan(self, conn):
        conn.execute("SELECT a FROM t WHERE a > 1")
        hits0 = conn.plan_cache.hits
        conn.execute("select a from t where a > 1")
        conn.execute("SELECT  a\nFROM t   WHERE a > 1")
        assert conn.plan_cache.hits == hits0 + 2

    def test_ddl_invalidates_cached_plans(self, conn):
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (3,)
        conn.execute("DROP TABLE t")
        conn.execute("CREATE TABLE t (a int, b text); INSERT INTO t VALUES (9, 'q')")
        # Same SQL text, new catalog version: must not reuse the old scan.
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (1,)

    def test_strategy_toggle_invalidates_cached_plans(self, conn):
        sql = "SELECT PROVENANCE a FROM t"
        first = conn.execute(sql).relation
        misses0 = conn.plan_cache.misses
        conn.options.union_strategy = "joinback"
        conn.execute(sql)
        assert conn.plan_cache.misses == misses0 + 1
        assert first is not None

    def test_lru_eviction(self):
        connection = connect(plan_cache_size=2)
        connection.execute("CREATE TABLE t (a int)")
        connection.execute("SELECT 1 FROM t")
        connection.execute("SELECT 2 FROM t")
        connection.execute("SELECT 3 FROM t")
        assert len(connection.plan_cache) == 2

    def test_stats_shape(self, conn):
        stats = conn.plan_cache.stats()
        assert set(stats) == {"hits", "misses", "size", "capacity"}


class TestBugfixes:
    """The two satellite bugfixes: empty input and EXPLAIN modes."""

    def test_empty_statement_raises_parse_error(self, conn):
        for sql in ("", "   ", ";;", "-- only a comment", "/* block */"):
            with pytest.raises(ParseError, match="contains no SQL"):
                conn.execute(sql)

    def test_explain_mode_case_insensitive(self, conn):
        assert conn.explain("SELECT a FROM t", mode="PLAN") == conn.explain(
            "SELECT a FROM t", mode="plan"
        )
        assert "prov_t_a" in conn.explain("SELECT PROVENANCE a FROM t", mode="Rewrite")

    def test_explain_unknown_mode_lists_valid_modes(self, conn):
        with pytest.raises(PermError, match="rewrite, algebra, plan"):
            conn.explain("SELECT a FROM t", mode="bogus")

    def test_sql_level_explain_unknown_mode(self, conn):
        with pytest.raises(ParseError, match="REWRITE, ALGEBRA, PLAN"):
            conn.execute("EXPLAIN NONSENSE SELECT a FROM t")

    def test_sql_level_explain_still_defaults_to_plan(self, conn):
        result = conn.execute("EXPLAIN SELECT a FROM t").relation
        assert any("Scan(t)" in row[0] for row in result.rows)

    def test_sql_level_explain_of_parameterized_query(self, conn):
        """EXPLAIN never executes, so placeholders need no values."""
        result = conn.execute("EXPLAIN REWRITE SELECT PROVENANCE a FROM t WHERE a > ?")
        assert any("?" in row[0] for row in result.relation.rows)
