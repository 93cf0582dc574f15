"""Engine tests: DDL, DML, EXPLAIN, profiling, error paths."""

from __future__ import annotations

import pytest

from repro import AnalyzeError, CatalogError, ExecutionError, PermError, connect


@pytest.fixture
def db():
    return connect()


class TestDDL:
    def test_create_insert_select(self, db):
        db.run("CREATE TABLE t (a int, b text)")
        status = db.run("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert status.rows == [("INSERT 2",)]
        assert len(db.run("SELECT * FROM t")) == 2

    def test_create_table_as(self, db):
        db.run("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2), (3)")
        db.run("CREATE TABLE big AS SELECT a FROM t WHERE a > 1")
        assert sorted(db.run("SELECT * FROM big").rows) == [(2,), (3,)]

    def test_create_duplicate_rejected(self, db):
        db.run("CREATE TABLE t (a int)")
        with pytest.raises(CatalogError):
            db.run("CREATE TABLE t (a int)")
        db.run("CREATE TABLE IF NOT EXISTS t (a int)")  # no error

    def test_drop(self, db):
        db.run("CREATE TABLE t (a int)")
        db.run("DROP TABLE t")
        with pytest.raises(AnalyzeError):
            db.run("SELECT * FROM t")
        db.run("DROP TABLE IF EXISTS t")  # no error

    def test_view_lifecycle(self, db):
        db.run("CREATE TABLE t (a int); INSERT INTO t VALUES (1)")
        db.run("CREATE VIEW v AS SELECT a + 1 AS b FROM t")
        assert db.run("SELECT b FROM v").rows == [(2,)]
        db.run("CREATE OR REPLACE VIEW v AS SELECT a + 10 AS b FROM t")
        assert db.run("SELECT b FROM v").rows == [(11,)]
        db.run("DROP VIEW v")

    def test_view_validated_at_creation(self, db):
        with pytest.raises(AnalyzeError):
            db.run("CREATE VIEW v AS SELECT zzz FROM missing")

    def test_create_view_reflects_later_inserts(self, db):
        db.run("CREATE TABLE t (a int)")
        db.run("CREATE VIEW v AS SELECT a FROM t")
        db.run("INSERT INTO t VALUES (7)")
        assert db.run("SELECT * FROM v").rows == [(7,)]


class TestDML:
    @pytest.fixture
    def table(self, db):
        db.run("CREATE TABLE t (a int, b text); INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        return db

    def test_insert_column_subset(self, table):
        table.run("INSERT INTO t (b) VALUES ('only-b')")
        assert (None, "only-b") in table.run("SELECT * FROM t").rows

    def test_insert_expression_values(self, table):
        table.run("INSERT INTO t VALUES (2 + 2, upper('w'))")
        assert (4, "W") in table.run("SELECT * FROM t").rows

    def test_insert_subquery_value(self, table):
        table.run("INSERT INTO t VALUES ((SELECT max(a) FROM t) + 1, 'next')")
        assert (4, "next") in table.run("SELECT * FROM t").rows

    def test_insert_from_query(self, table):
        status = table.run("INSERT INTO t SELECT a + 10, b FROM t WHERE a <= 2")
        assert status.rows == [("INSERT 2",)]
        assert len(table.run("SELECT * FROM t")) == 5

    def test_insert_arity_mismatch(self, table):
        with pytest.raises(AnalyzeError):
            table.run("INSERT INTO t VALUES (1)")

    def test_delete(self, table):
        status = table.run("DELETE FROM t WHERE a >= 2")
        assert status.rows == [("DELETE 2",)]
        assert table.run("SELECT a FROM t").rows == [(1,)]

    def test_delete_all(self, table):
        assert table.run("DELETE FROM t").rows == [("DELETE 3",)]

    def test_update(self, table):
        status = table.run("UPDATE t SET a = a * 10 WHERE b <> 'y'")
        assert status.rows == [("UPDATE 2",)]
        assert sorted(table.run("SELECT a FROM t").rows) == [(2,), (10,), (30,)]

    def test_update_with_subquery(self, table):
        table.run("UPDATE t SET a = (SELECT max(a) FROM t) WHERE b = 'x'")
        assert (3, "x") in table.run("SELECT * FROM t").rows

    def test_dml_on_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.run("INSERT INTO missing VALUES (1)")
        with pytest.raises(CatalogError):
            db.run("DELETE FROM missing")


class TestExplainAndProfile:
    @pytest.fixture
    def table(self, db):
        db.run("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)")
        return db

    def test_explain_rewrite_is_sql(self, table):
        text = table.explain("SELECT PROVENANCE a FROM t", mode="rewrite")
        assert "prov_t_a" in text and "SELECT" in text

    def test_explain_algebra_shows_both_trees(self, table):
        text = table.explain("SELECT PROVENANCE a FROM t", mode="algebra")
        assert "original query" in text and "rewritten query" in text

    def test_explain_plan(self, table):
        text = table.explain("SELECT a FROM t WHERE a > 1", mode="plan")
        assert "Scan(t)" in text

    def test_explain_statement_form(self, table):
        result = table.run("EXPLAIN REWRITE SELECT PROVENANCE a FROM t")
        assert result.columns == ["plan"]
        assert any("prov_t_a" in row[0] for row in result.rows)

    def test_profile_stages(self, table):
        profile = table.profile("SELECT PROVENANCE a FROM t")
        names = [t.name for t in profile.timings]
        assert names == ["parse", "analyze", "provenance rewrite", "optimize", "plan", "execute"]
        assert profile.total_seconds > 0
        assert profile.result is not None and len(profile.result) == 2
        assert profile.provenance_attrs == ("prov_t_a",)
        assert "ms" in profile.summary()

    def test_profile_without_execution(self, table):
        profile = table.profile("SELECT a FROM t", execute=False)
        assert profile.result is None
        with pytest.raises(KeyError):
            profile.timing("execute")

    def test_profile_rejects_ddl(self, table):
        with pytest.raises(PermError):
            table.profile("CREATE TABLE x (a int)")


class TestSessionBasics:
    def test_connect_helper(self):
        from repro import Connection

        conn = connect()
        assert isinstance(conn, Connection)

    def test_multi_statement_returns_last(self, db):
        result = db.run("CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT a FROM t")
        assert result.rows == [(1,)]

    def test_empty_statement_rejected(self, db):
        with pytest.raises(PermError):
            db.run("   ")

    def test_load_rows(self, db):
        db.run("CREATE TABLE t (a int, b text)")
        assert db.load_rows("t", [(1, "x"), (2, "y")]) == 2
        assert len(db.run("SELECT * FROM t")) == 2

    def test_runtime_error_surfaces(self, db):
        db.run("CREATE TABLE t (a int); INSERT INTO t VALUES (0)")
        with pytest.raises(ExecutionError):
            db.run("SELECT 1 / a FROM t")

    def test_docstring_example(self, db):
        db.run("CREATE TABLE r (a int, b text)")
        db.run("INSERT INTO r VALUES (1, 'x'), (2, 'y')")
        assert db.run("SELECT PROVENANCE a FROM r WHERE a > 1").columns == [
            "a",
            "prov_r_a",
            "prov_r_b",
        ]
