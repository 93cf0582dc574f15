"""Parameter binding across query classes: placeholders in WHERE /
SELECT / HAVING / LIMIT, provenance queries, subqueries, DML,
executemany, named parameters, and bind-time type checking."""

from __future__ import annotations

import pytest

from repro import (
    AnalyzeError,
    CatalogError,
    ExecutionError,
    ParseError,
    ProgrammingError,
    TypeCheckError,
    connect,
)
from repro.backend import differential_engines


@pytest.fixture
def conn():
    connection = connect()
    connection.execute(
        "CREATE TABLE r (a int, b text); "
        "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z'); "
        "CREATE TABLE s (a int, n int); "
        "INSERT INTO s VALUES (1, 10), (2, 20), (3, 30)"
    )
    return connection


class TestPlaceholderPositions:
    def test_where(self, conn):
        assert conn.execute(
            "SELECT a FROM r WHERE a > ? ORDER BY a", (1,)
        ).fetchall() == [(2,), (3,)]

    def test_select_list(self, conn):
        assert conn.execute(
            "SELECT a + ? FROM r WHERE a = 1", (10,)
        ).fetchall() == [(11,)]

    def test_bare_select_item(self, conn):
        assert conn.execute("SELECT ?, a FROM r WHERE a = 1", ("tag",)).fetchall() == [
            ("tag", 1)
        ]

    def test_having(self, conn):
        rows = conn.execute(
            "SELECT b, count(*) FROM r GROUP BY b HAVING count(*) >= ?", (1,)
        ).fetchall()
        assert sorted(rows) == [("x", 1), ("y", 1), ("z", 1)]
        assert (
            conn.execute(
                "SELECT b, count(*) FROM r GROUP BY b HAVING count(*) > ?", (1,)
            ).fetchall()
            == []
        )

    def test_limit_offset(self, conn):
        assert conn.execute(
            "SELECT a FROM r ORDER BY a LIMIT ? OFFSET ?", (1, 1)
        ).fetchall() == [(2,)]

    def test_in_list(self, conn):
        assert conn.execute(
            "SELECT a FROM r WHERE a IN (?, ?) ORDER BY a", (1, 3)
        ).fetchall() == [(1,), (3,)]

    def test_join_condition(self, conn):
        rows = conn.execute(
            "SELECT r.a, s.n FROM r JOIN s ON r.a = s.a AND s.n > ?", (15,)
        ).fetchall()
        assert sorted(rows) == [(2, 20), (3, 30)]

    def test_subquery_parameter_rebinds_per_execution(self, conn):
        """Regression: an uncorrelated subquery mentioning a parameter
        must not reuse its cached result across executions."""
        statement = conn.prepare(
            "SELECT a FROM r WHERE a = (SELECT s.a FROM s WHERE s.n = ?)"
        )
        assert statement.execute((10,)).rows == [(1,)]
        assert statement.execute((30,)).rows == [(3,)]

    def test_uncorrelated_subquery_sees_dml_between_executions(self, conn):
        statement = conn.prepare(
            "SELECT a FROM r WHERE a = (SELECT max(s.a) FROM s)"
        )
        assert statement.execute().rows == [(3,)]
        conn.execute("DELETE FROM s WHERE a = 3")
        assert statement.execute().rows == [(2,)]


class TestProvenanceQueries:
    def test_provenance_with_parameter(self, conn):
        cursor = conn.execute("SELECT PROVENANCE a FROM r WHERE a > ?", (2,))
        assert cursor.fetchall() == [(3, 3, "z")]
        assert cursor.provenance_attrs == ("prov_r_a", "prov_r_b")

    def test_provenance_union_with_parameter(self, conn):
        rows = conn.execute(
            "SELECT PROVENANCE a FROM r WHERE a > :lo "
            "UNION SELECT a FROM s WHERE a > :lo",
            {"lo": 2},
        ).fetchall()
        # a=3 qualifies in both branches; provenance keeps one row per
        # contributing source tuple (Figure 2 semantics).
        assert len(rows) == 2
        assert all(row[0] == 3 for row in rows)

    def test_provenance_aggregation_with_parameter(self, conn):
        rows = conn.execute(
            "SELECT PROVENANCE count(*), b FROM r WHERE a <= ? GROUP BY b", (1,)
        ).fetchall()
        assert [row[:2] for row in rows] == [(1, "x")]


class TestNamedParameters:
    def test_mapping_binding(self, conn):
        assert conn.execute(
            "SELECT a FROM r WHERE a > :lo AND a < :hi", {"lo": 0, "hi": 3}
        ).rowcount == 2

    def test_repeated_name_is_one_slot(self, conn):
        statement = conn.prepare("SELECT a FROM r WHERE a > :x AND a < :x + 2")
        assert statement.parameter_count == 1
        assert statement.execute({"x": 1}).rows == [(2,)]

    def test_missing_and_unknown_names(self, conn):
        with pytest.raises(ProgrammingError, match="missing value.*hi"):
            conn.execute("SELECT a FROM r WHERE a > :lo AND a < :hi", {"lo": 0})
        with pytest.raises(ProgrammingError, match="unknown parameter.*typo"):
            conn.execute("SELECT a FROM r WHERE a > :lo", {"lo": 0, "typo": 1})

    def test_named_requires_mapping(self, conn):
        with pytest.raises(ProgrammingError, match="mapping"):
            conn.execute("SELECT a FROM r WHERE a > :lo", (0,))

    def test_positional_rejects_mapping(self, conn):
        with pytest.raises(ProgrammingError, match="sequence"):
            conn.execute("SELECT a FROM r WHERE a > ?", {"lo": 0})

    def test_mixing_styles_is_a_parse_error(self, conn):
        with pytest.raises(ParseError, match="cannot mix"):
            conn.execute("SELECT a FROM r WHERE a > ? AND a < :hi", (0,))


class TestBindingErrors:
    def test_wrong_count(self, conn):
        with pytest.raises(ProgrammingError, match="expects 2 parameter"):
            conn.execute("SELECT a FROM r WHERE a > ? AND a < ?", (1,))
        with pytest.raises(ProgrammingError, match="expects 1 parameter"):
            conn.execute("SELECT a FROM r WHERE a > ?", (1, 2))

    def test_params_without_placeholders(self, conn):
        with pytest.raises(ProgrammingError, match="takes no parameters"):
            conn.execute("SELECT a FROM r", (1,))

    def test_placeholders_without_params(self, conn):
        with pytest.raises(ProgrammingError, match="none given"):
            conn.execute("SELECT a FROM r WHERE a > ?")

    def test_parameters_on_multi_statement_script(self, conn):
        with pytest.raises(ProgrammingError, match="single statement"):
            conn.execute("SELECT 1; SELECT a FROM r WHERE a > ?", (1,))

    def test_views_reject_placeholders(self, conn):
        with pytest.raises(ProgrammingError, match="views cannot"):
            conn.execute("CREATE VIEW v AS SELECT a FROM r WHERE a > ?", (1,))


class TestTypeChecking:
    def test_int_slot_rejects_text(self, conn):
        with pytest.raises(TypeCheckError, match=r"\$1 expects int, got text"):
            conn.execute("SELECT a FROM r WHERE a > ?", ("high",))

    def test_text_slot_rejects_int(self, conn):
        with pytest.raises(TypeCheckError, match=r"\$1 expects text, got int"):
            conn.execute("SELECT a FROM r WHERE b = ?", (7,))

    def test_named_slot_error_uses_name(self, conn):
        with pytest.raises(TypeCheckError, match=":lo expects int"):
            conn.execute("SELECT a FROM r WHERE a > :lo", {"lo": "nope"})

    def test_int_slot_accepts_float(self, conn):
        # Comparisons mix int and float freely, so binding 1.5 where a
        # literal 1.5 would be legal must work too.
        assert conn.execute(
            "SELECT a FROM r WHERE a > ? ORDER BY a", (1.5,)
        ).fetchall() == [(2,), (3,)]

    def test_float_slot_accepts_int(self, conn):
        conn.execute("CREATE TABLE f (x float); INSERT INTO f VALUES (1.5)")
        assert conn.execute("SELECT x FROM f WHERE x > ?", (1,)).rowcount == 1

    def test_null_always_allowed(self, conn):
        assert conn.execute("SELECT a FROM r WHERE a > ?", (None,)).fetchall() == []

    def test_in_subquery_slot_typed_from_subquery_column(self, conn):
        with pytest.raises(TypeCheckError, match="expects int"):
            conn.execute("SELECT a FROM r WHERE ? IN (SELECT a FROM s)", ("x",))

    @pytest.mark.parametrize("engine", ["row", "vectorized", "sqlite"])
    @pytest.mark.parametrize("value, got", [("zz", "text"), (True, "bool")])
    @pytest.mark.parametrize(
        "item, params",
        [
            ("coalesce(?, 1)", lambda v: (v,)),
            ("coalesce(:p, 1)", lambda v: {"p": v}),
            ("nullif(?, 5)", lambda v: (v,)),
            ("greatest(a, ?)", lambda v: (v,)),
            ("CASE WHEN a = 1 THEN ? ELSE 1 END", lambda v: (v,)),
            ("CASE WHEN a = 9 THEN 1 ELSE :p END", lambda v: {"p": v}),
        ],
    )
    def test_slot_typed_from_sibling_arguments_on_every_engine(
        self, engine, value, got, item, params
    ):
        """A parameter inside a type-unifying scalar or a CASE result
        takes its siblings' type, so a mistyped value fails at bind time
        with one error — not ExecutionError on one engine, a leaked
        TypeError on another and the answer 2 on a third."""
        connection = connect(engine=engine)
        connection.execute("CREATE TABLE t (a int); INSERT INTO t VALUES (1)")
        sql = f"SELECT x + 1 FROM (SELECT {item} AS x FROM t) q"
        label = ":p" if ":p" in item else r"\$1"
        with pytest.raises(
            TypeCheckError, match=rf"parameter {label} expects int, got {got} \({value!r}\)"
        ):
            connection.execute(sql, params(value))
        assert connection.execute(sql, params(6)).fetchall() == [(7,)]

    @pytest.mark.parametrize("engine", differential_engines())
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE ?",
            "SELECT a FROM t WHERE CASE WHEN ? THEN true ELSE false END",
            "SELECT t.a FROM t JOIN t u ON ? WHERE u.a = 1",
            "SELECT a FROM t GROUP BY a HAVING ?",
            "SELECT a FROM t WHERE CASE WHEN a > 0 THEN ? END",
            "SELECT a FROM t WHERE coalesce(?, a > 5)",
            "SELECT a FROM t WHERE (SELECT ?) AND a > 0",
        ],
    )
    def test_bare_parameter_predicate_is_bool_on_every_engine(self, engine, sql):
        """A parameter that *is* the predicate, or that a CASE branch, a
        ``coalesce`` argument or a scalar sublink passes the predicate's
        demand to, takes BOOL, so an int bound there is one bind-time
        error — not no rows on one engine and every row on another."""
        connection = connect(engine=engine)
        connection.execute("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)")
        with pytest.raises(TypeCheckError, match=r"\$1 expects bool, got int \(1\)"):
            connection.execute(sql, (1,))
        assert sorted(connection.execute(sql, (True,)).fetchall()) == [(1,), (2,)]
        assert connection.execute(sql, (False,)).fetchall() == []


class TestDMLParameters:
    def test_parameterized_insert(self, conn):
        cursor = conn.execute("INSERT INTO r VALUES (?, ?)", (4, "w"))
        assert cursor.rowcount == 1
        assert conn.execute("SELECT b FROM r WHERE a = 4").fetchall() == [("w",)]

    def test_executemany_bulk_insert(self, conn):
        cursor = conn.executemany(
            "INSERT INTO r VALUES (?, ?)",
            [(10, "p"), (11, "q"), (12, "r")],
        )
        assert cursor.rowcount == 3
        assert conn.execute("SELECT count(*) FROM r WHERE a >= 10").fetchone() == (3,)

    def test_executemany_parses_once(self, conn):
        before = conn.counters.snapshot()
        conn.executemany("INSERT INTO r VALUES (?, ?)", [(20, "a"), (21, "b")])
        assert conn.counters.parse - before.parse == 1

    def test_executemany_requires_single_statement(self, conn):
        with pytest.raises(ProgrammingError, match="single statement"):
            conn.executemany("SELECT 1; SELECT 2", [()])

    def test_executemany_empty_sequence_is_a_zero_row_batch(self, conn):
        """Regression: an empty parameter list used to leave the cursor
        reporting rowcount -1; PEP 249 says the batch simply affected
        zero rows."""
        cursor = conn.executemany("INSERT INTO r VALUES (?, ?)", [])
        assert cursor.rowcount == 0
        assert conn.execute("SELECT count(*) FROM r").fetchone() == (3,)

    def test_executemany_empty_sequence_still_validates_sql(self, conn):
        # The statement is analyzed even though nothing runs: typos must
        # not be silently swallowed just because the batch was empty.
        with pytest.raises(CatalogError):
            conn.executemany("INSERT INTO ghost VALUES (?)", [])
        with pytest.raises(ProgrammingError, match="single statement"):
            conn.executemany("SELECT 1; SELECT 2", [])
        # Every DML form is prepared, so an empty batch raises what a
        # one-set batch raises.
        for sql, one_set, error in (
            ("UPDATE r SET nope = ? WHERE a = ?", ("v", 1), CatalogError),
            ("DELETE FROM r WHERE nope = ?", (1,), AnalyzeError),
            ("INSERT INTO r SELECT nope, a FROM r WHERE a = ?", (1,), AnalyzeError),
        ):
            with pytest.raises(error):
                conn.executemany(sql, [one_set])
            with pytest.raises(error):
                conn.executemany(sql, [])

    def test_executemany_empty_update_and_delete(self, conn):
        assert conn.executemany("UPDATE r SET b = ? WHERE a = ?", []).rowcount == 0
        assert conn.executemany("DELETE FROM r WHERE a = ?", []).rowcount == 0
        assert conn.execute("SELECT count(*) FROM r").fetchone() == (3,)

    def test_parameterized_update_and_delete(self, conn):
        assert conn.execute(
            "UPDATE r SET b = ? WHERE a = ?", ("updated", 2)
        ).rowcount == 1
        assert conn.execute("SELECT b FROM r WHERE a = 2").fetchone() == ("updated",)
        assert conn.execute("DELETE FROM r WHERE a > ?", (1,)).rowcount == 2

    def test_named_dml(self, conn):
        conn.execute(
            "INSERT INTO r VALUES (:a, :b)", {"a": 5, "b": "named"}
        )
        assert conn.execute("SELECT b FROM r WHERE a = 5").fetchone() == ("named",)

    def test_runtime_error_still_surfaces(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("SELECT a / ? FROM r", (0,)).fetchall()
