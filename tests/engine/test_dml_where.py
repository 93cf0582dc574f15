"""UPDATE/DELETE target sets: the ``WHERE`` of a DML statement runs on the
vectorized expression kernels on every engine, with the row compiler
serving sublinks; sublinks see the pre-statement state; NaN compares
the IEEE way on the row and vectorized engines alike; and
``executemany`` analyzes an UPDATE or DELETE once for the whole batch."""

from __future__ import annotations

import pytest

from repro import TypeCheckError, connect
from repro.analyzer import Analyzer
from repro.backend import differential_engines

NAN = float("nan")

SCHEMA = (
    "CREATE TABLE t (a int, b text); "
    "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, NULL); "
    "CREATE TABLE u (a int); "
    "INSERT INTO u VALUES (2), (3), (NULL)"
)


@pytest.fixture(params=differential_engines())
def conn(request):
    connection = connect(engine=request.param)
    connection.execute(SCHEMA)
    return connection


def _rows(connection):
    return connection.execute("SELECT a, b FROM t").fetchall()


class TestSublinks:
    """Sublinks in a DML ``WHERE`` (and SET) fall back to the row
    compiler inside the column-at-a-time predicate, on every engine."""

    def test_correlated_exists(self, conn):
        cursor = conn.execute(
            "DELETE FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)"
        )
        assert cursor.rowcount == 2
        assert _rows(conn) == [(1, "x"), (4, None)]

    def test_in_subquery(self, conn):
        cursor = conn.execute("UPDATE t SET b = 'in' WHERE a IN (SELECT a FROM u)")
        assert cursor.rowcount == 2
        assert _rows(conn) == [(1, "x"), (2, "in"), (3, "in"), (4, None)]

    def test_not_in_subquery_with_null_matches_nothing(self, conn):
        assert conn.execute(
            "DELETE FROM t WHERE a NOT IN (SELECT a FROM u)"
        ).rowcount == 0
        assert len(_rows(conn)) == 4

    def test_scalar_subquery_comparison(self, conn):
        cursor = conn.execute("DELETE FROM t WHERE a > (SELECT min(a) FROM u)")
        assert cursor.rowcount == 2
        assert _rows(conn) == [(1, "x"), (2, "y")]

    def test_parameter_inside_the_sublink(self, conn):
        cursor = conn.execute(
            "DELETE FROM t WHERE a IN (SELECT a FROM u WHERE a > ?)", (2,)
        )
        assert cursor.rowcount == 1
        assert _rows(conn) == [(1, "x"), (2, "y"), (4, None)]

    def test_sublink_over_the_target_sees_the_pre_statement_state(self, conn):
        assert conn.execute(
            "DELETE FROM t WHERE a = (SELECT min(a) FROM t)"
        ).rowcount == 1
        # Every row reads max(a) = 4 — the state before this UPDATE.
        assert conn.execute(
            "UPDATE t SET a = a + (SELECT max(a) FROM t) "
            "WHERE a < (SELECT max(a) FROM t)"
        ).rowcount == 2
        assert _rows(conn) == [(6, "y"), (7, "z"), (4, None)]

    def test_where_mixing_kernels_and_a_sublink(self, conn):
        cursor = conn.execute(
            "UPDATE t SET b = 'hit' WHERE b IS NOT NULL "
            "AND a >= ? AND EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
            (3,),
        )
        assert cursor.rowcount == 1
        assert _rows(conn) == [(1, "x"), (2, "y"), (3, "hit"), (4, None)]


class TestNaN:
    """NaN is unequal to everything and orders against nothing, on the
    row and the vectorized engine alike. (SQLite stores a NaN as NULL;
    the sqlite engines are left out on purpose.)"""

    @pytest.fixture(params=["row", "vectorized"])
    def nan_conn(self, request):
        connection = connect(engine=request.param)
        connection.execute("CREATE TABLE t (id int, x float)")
        connection.execute(
            "INSERT INTO t VALUES (1, 1.0), (2, ?), (3, NULL)", (NAN,)
        )
        return connection

    def _ids(self, connection, where, params=None):
        return [
            row[0]
            for row in connection.execute(
                f"SELECT id FROM t WHERE {where}", params
            ).fetchall()
        ]

    def test_nan_is_not_equal_to_a_number(self, nan_conn):
        assert self._ids(nan_conn, "x = 1.0") == [1]
        assert self._ids(nan_conn, "x = ?", (1.0,)) == [1]

    def test_nan_is_unequal_to_a_number(self, nan_conn):
        assert self._ids(nan_conn, "x <> 1.0") == [2]
        assert self._ids(nan_conn, "x <> ?", (1.0,)) == [2]

    def test_nan_orders_against_nothing(self, nan_conn):
        assert self._ids(nan_conn, "x < 2.0") == [1]
        assert self._ids(nan_conn, "x >= 1.0") == [1]
        assert self._ids(nan_conn, "x > ?", (NAN,)) == []

    def test_nan_parameter_deletes_nothing_from_an_int_column(self, nan_conn):
        assert nan_conn.execute("DELETE FROM t WHERE id = ?", (NAN,)).rowcount == 0
        assert self._ids(nan_conn, "id > 0") == [1, 2, 3]

    def test_nan_parameter_against_the_nan_row(self, nan_conn):
        assert nan_conn.execute("DELETE FROM t WHERE x = ?", (NAN,)).rowcount == 0
        assert nan_conn.execute("DELETE FROM t WHERE x <> ?", (NAN,)).rowcount == 2
        assert self._ids(nan_conn, "id > 0") == [3]


class TestDMLParameterTypes:
    """DML binds its parameters through the same typed path as a query:
    a mismatched value fails at bind, before any row is read, with the
    error the matching SELECT raises — on every engine."""

    def test_text_parameter_against_an_int_column(self, conn):
        with pytest.raises(TypeCheckError, match=r"parameter \$1 expects int, got text"):
            conn.execute("DELETE FROM t WHERE a = ?", ("2",))
        with pytest.raises(TypeCheckError, match=r"parameter \$1 expects int, got text"):
            conn.execute("SELECT a FROM t WHERE a = ?", ("2",))
        assert len(_rows(conn)) == 4

    def test_bool_parameter_against_an_int_column(self, conn):
        with pytest.raises(TypeCheckError, match=r"parameter \$1 expects int, got bool"):
            conn.execute("UPDATE t SET b = 'no' WHERE a = ?", (True,))

    def test_null_parameter_matches_nothing(self, conn):
        assert conn.execute("DELETE FROM t WHERE a <> ?", (None,)).rowcount == 0

    def test_float_parameter_against_an_int_column(self, conn):
        assert conn.execute("DELETE FROM t WHERE a < ?", (2.5,)).rowcount == 2
        assert _rows(conn) == [(3, "z"), (4, None)]


class TestExecutemanyPreparesOnce:
    SETS = [("p", 1), ("q", 3), ("r", 9), ("s", 1)]

    def _count_analysis(self, monkeypatch):
        calls = []
        original = Analyzer.resolve_scalar

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Analyzer, "resolve_scalar", counting)
        return calls

    def test_update_is_analyzed_once(self, conn, monkeypatch):
        calls = self._count_analysis(monkeypatch)
        cursor = conn.executemany("UPDATE t SET b = ? WHERE a = ?", self.SETS)
        assert len(calls) == 2  # the SET expression and the WHERE, once each
        assert cursor.rowcount == 3

    def test_delete_is_analyzed_once(self, conn, monkeypatch):
        calls = self._count_analysis(monkeypatch)
        cursor = conn.executemany(
            "DELETE FROM t WHERE a = ? OR a IN (SELECT a FROM u WHERE a = ?)",
            [(1, 2), (1, 3), (9, 9)],
        )
        assert len(calls) == 1
        assert cursor.rowcount == 3
        assert _rows(conn) == [(4, None)]

    def test_rows_equal_a_per_statement_loop(self, conn):
        other = connect(engine=conn.engine)
        other.execute(SCHEMA)
        update = "UPDATE t SET b = b || ?, a = a + 10 WHERE a = ? OR a > 12"
        sets = [("!", 1), ("?", 2), ("#", 3)]
        batch = conn.executemany(update, sets)
        loop = sum(other.execute(update, params).rowcount for params in sets)
        assert batch.rowcount == loop
        deleted = conn.executemany("DELETE FROM t WHERE a = ?", [(11,), (4,)])
        assert deleted.rowcount == sum(
            other.execute("DELETE FROM t WHERE a = ?", params).rowcount
            for params in [(11,), (4,)]
        )
        assert _rows(conn) == _rows(other)

    def test_a_bad_set_mid_batch_undoes_the_batch(self, conn):
        before = _rows(conn)
        with pytest.raises(TypeCheckError, match="expects int"):
            conn.executemany(
                "UPDATE t SET b = ? WHERE a = ?", [("p", 1), ("q", "two"), ("r", 3)]
            )
        assert _rows(conn) == before
        with pytest.raises(TypeCheckError, match="expects int"):
            conn.executemany("DELETE FROM t WHERE a = ?", [(1,), ("two",)])
        assert _rows(conn) == before
