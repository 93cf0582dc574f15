"""Integration tests: one client, a live server, the full op surface."""

from __future__ import annotations

import pytest

from repro import errors
from repro.server import ServerClient

from serverharness import connect


class TestHello:
    def test_hello_reports_identity(self, client):
        from repro.engine.connection import resolve_engine

        info = client.server_info
        assert info["server"] == "repro"
        assert info["protocol"] == 1
        # The server default follows the environment ($REPRO_ENGINE).
        assert info["engine"] == resolve_engine(None)
        assert info["autocommit"] is True

    def test_hello_chooses_engine(self, server):
        with connect(server, engine="vectorized") as c:
            assert c.server_info["engine"] == "vectorized"

    def test_hello_rejects_unknown_engine(self, server):
        with pytest.raises(errors.ProgrammingError):
            connect(server, engine="gpu")

    def test_hello_after_a_statement_is_an_error(self, client):
        client.query("SELECT 1")
        with pytest.raises(errors.OperationalError, match="HELLO must precede"):
            client.request({"op": "hello", "engine": "row"})

    def test_hello_is_optional(self, server):
        with connect(server, hello=False) as c:
            assert c.query("SELECT 1 + 1").rows == [(2,)]


class TestQueries:
    def test_ddl_dml_select(self, client):
        client.query("CREATE TABLE t (a int, b text)")
        result = client.query("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2
        result = client.query("SELECT * FROM t ORDER BY a")
        assert result.columns == ["a", "b"]
        assert result.rows == [(1, "x"), (2, "y")]

    def test_params(self, client):
        client.query("CREATE TABLE t (a int)")
        client.query("INSERT INTO t VALUES (?), (?)", [1, 2])
        assert client.query("SELECT a FROM t WHERE a > ?", [1]).rows == [(2,)]

    def test_bad_params_type_is_rejected(self, client):
        with pytest.raises(errors.ProgrammingError, match="params"):
            client.request({"op": "query", "sql": "SELECT ?", "params": "oops"})

    def test_provenance_query_marks_attrs(self, client):
        client.query("CREATE TABLE t (a int)")
        client.query("INSERT INTO t VALUES (7)")
        result = client.query("SELECT PROVENANCE * FROM t")
        assert result.provenance_attrs == ("prov_t_a",)
        assert result.rows == [(7, 7)]

    def test_error_keeps_the_session_alive(self, client):
        with pytest.raises(errors.AnalyzeError, match="no_such_table"):
            client.query("SELECT * FROM no_such_table")
        assert client.query("SELECT 1").rows == [(1,)]

    def test_empty_sql_is_rejected(self, client):
        with pytest.raises(errors.ProgrammingError, match="non-empty"):
            client.query("   ")

    def test_unknown_op_is_rejected(self, client):
        with pytest.raises(errors.ProgrammingError, match="unknown protocol op"):
            client.request({"op": "moonwalk"})

    def test_non_finite_floats_cross_the_wire(self, client):
        """Regression: ``SELECT 1e308 * 10`` overflows to infinity, which
        used to serialize as a bare ``Infinity`` token and break strict
        clients; now it travels tagged and decodes back to the float."""
        assert client.query("SELECT 1e308 * 10").rows == [(float("inf"),)]
        assert client.query("SELECT 0 - 1e308 * 10").rows == [(float("-inf"),)]
        # Parameters carry them too (NaN itself stays a protocol-level
        # concern — the sqlite backend stores NaN as NULL, a documented
        # engine divergence — so the table round trip uses infinities).
        client.query("CREATE TABLE f (x float)")
        client.query("INSERT INTO f VALUES (?), (?)", [float("inf"), 2.5])
        rows = client.query("SELECT x FROM f ORDER BY x").rows
        assert [value for (value,) in rows] == [2.5, float("inf")]


class TestPrepared:
    def test_prepare_execute(self, client):
        client.query("CREATE TABLE t (a int, b text)")
        client.query("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        handle = client.prepare("SELECT b FROM t WHERE a = ?")
        assert handle.parameters == 1
        assert handle.columns == ["b"]
        assert handle.execute([1]).rows == [("x",)]
        assert handle.execute([2]).rows == [("y",)]

    def test_unknown_handle_is_rejected(self, client):
        with pytest.raises(errors.ProgrammingError, match="handle"):
            client.request({"op": "execute", "handle": 404})


class TestTransactions:
    def test_begin_commit_over_the_wire(self, server, client):
        client.query("CREATE TABLE t (a int)")
        client.begin()
        client.query("INSERT INTO t VALUES (1)")
        client.commit()
        with connect(server) as other:
            assert other.query("SELECT a FROM t").rows == [(1,)]

    def test_rollback_over_the_wire(self, client):
        client.query("CREATE TABLE t (a int)")
        client.query("INSERT INTO t VALUES (1)")
        client.begin()
        client.query("UPDATE t SET a = 99")
        client.rollback()
        assert client.query("SELECT a FROM t").rows == [(1,)]

    def test_uncommitted_writes_are_invisible_to_other_sessions(self, server, client):
        client.query("CREATE TABLE t (a int)")
        client.begin()
        client.query("INSERT INTO t VALUES (1)")
        with connect(server) as other:
            assert other.query("SELECT a FROM t").rows == []
        client.commit()

    def test_ddl_inside_transaction_is_rejected(self, client):
        client.begin()
        with pytest.raises(errors.OperationalError, match="DDL is not transactional"):
            client.query("CREATE TABLE t (a int)")
        client.rollback()

    def test_serialization_conflict_reaches_the_client(self, server, client):
        client.query("CREATE TABLE t (a int, b int)")
        client.query("INSERT INTO t VALUES (1, 0)")
        with connect(server) as other:
            client.begin()
            other.begin()
            client.query("UPDATE t SET b = 1 WHERE a = 1")
            other.query("UPDATE t SET b = 2 WHERE a = 1")
            client.commit()
            with pytest.raises(errors.SerializationError):
                other.commit()


class TestStats:
    def test_stats_shape(self, client):
        client.query("CREATE TABLE t (a int)")
        client.query("INSERT INTO t VALUES (1)")
        client.query("SELECT * FROM t")
        stats = client.stats()
        assert stats["session"]["queries"] == 3
        assert stats["session"]["errors"] == 0
        assert stats["session"]["latency"]["count"] >= 2
        assert stats["session"]["latency"]["p50_ms"] is not None
        assert stats["server"]["queries"] >= 3
        assert stats["server"]["sessions_open"] == 1
        assert set(stats["gc"]) >= {"gc_runs", "versions_freed", "rows_freed"}
        # Durability counters ride along; the default test server is
        # in-memory, which the stats must say explicitly.
        assert stats["wal"] == {"enabled": False}
        # Materialized-view bookkeeping is always present (empty here).
        assert stats["matviews"]["views"] == {}

    def test_stats_report_matview_freshness(self, client):
        client.query("CREATE TABLE t (a int, g text)")
        client.query("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        client.query(
            "CREATE MATERIALIZED VIEW mv AS "
            "SELECT g, count(*) AS n FROM t GROUP BY g"
        )
        matviews = client.stats()["matviews"]
        assert matviews["views"]["mv"] == {
            "rows": 2,
            "stale": False,
            "delta_safe": False,
            "with_provenance": False,
        }
        client.query("INSERT INTO t VALUES (3, 'x')")
        # The aggregate falls behind (no stale mark); the next read
        # catches it up from the insert.
        assert client.stats()["matviews"]["views"]["mv"]["stale"] is True
        assert client.stats()["matviews"]["stale_marks"] == 0
        assert client.query("SELECT * FROM mv").rows == [("x", 2), ("y", 1)]
        matviews = client.stats()["matviews"]
        assert matviews["views"]["mv"]["stale"] is False
        assert matviews["catch_ups"] == 1 and matviews["recomputes"] == 0
        client.query("INSERT INTO t VALUES (4, 'z')")
        client.query("REFRESH MATERIALIZED VIEW mv")
        assert client.stats()["matviews"]["views"]["mv"]["stale"] is False

    def test_stats_count_errors_and_conflicts(self, server, client):
        with pytest.raises(errors.AnalyzeError):
            client.query("SELECT * FROM ghost")
        client.query("CREATE TABLE t (a int, b int)")
        client.query("INSERT INTO t VALUES (1, 0)")
        with connect(server) as other:
            client.begin()
            other.begin()
            client.query("UPDATE t SET b = 1 WHERE a = 1")
            other.query("UPDATE t SET b = 2 WHERE a = 1")
            client.commit()
            with pytest.raises(errors.SerializationError):
                other.commit()
            other_stats = other.stats()
            assert other_stats["session"]["conflicts"] == 1
        stats = client.stats()
        assert stats["session"]["errors"] == 1
        assert stats["server"]["conflicts"] >= 1


class TestLifecycle:
    def test_close_handshake(self, server):
        c = connect(server)
        c.query("SELECT 1")
        c.close()
        c.close()  # idempotent
        with pytest.raises(errors.OperationalError):
            c.query("SELECT 1")

    def test_sessions_get_distinct_ids(self, server):
        with connect(server) as a, connect(server) as b:
            assert a.server_info["session"] != b.server_info["session"]


class TestCli:
    def test_repro_serve_subcommand_parses(self):
        from repro.server.__main__ import build_parser

        args = build_parser().parse_args(
            ["--port", "0", "--max-sessions", "4"]
        )
        assert args.port == 0
        assert args.max_sessions == 4
