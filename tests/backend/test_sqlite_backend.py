"""Unit tests for the SQLite pushdown backend.

The differential harness (tests/differential) proves whole-query
agreement across engines; these tests pin down the backend's moving
parts directly: engine selection, lazy mirror sync, pushdown vs
fallback decisions, the UDF error channel, parameter binding, and the
dialect's rendering rules.
"""

from __future__ import annotations

import pytest

import repro
from repro.algebra import expressions as ax
from repro.algebra.to_sql import expr_to_sql
from repro.backend.dialects import BROWSER_DIALECT, SQLiteDialect
from repro.backend.sqlite import SQLiteBackend, SQLiteQueryOp
from repro.datatypes import SQLType
from repro.errors import ExecutionError, ProgrammingError


@pytest.fixture()
def pair():
    """Identical tiny databases on the row engine and the sqlite backend."""
    connections = {}
    for engine in ("row", "sqlite"):
        conn = repro.connect(engine=engine)
        conn.run(
            "CREATE TABLE t (a int, b text, c float, d bool);"
            "CREATE TABLE s (x int, y text)"
        )
        conn.load_rows(
            "t",
            [
                (1, "Alpha", 1.5, True),
                (2, "beta", -2.5, False),
                (None, "Alpha", None, None),
                (-7, "gamma", 0.25, True),
            ],
        )
        conn.load_rows("s", [(1, "one"), (2, "two"), (2, "dos")])
        connections[engine] = conn
    return connections


def _agree(pair, sql, params=None):
    row = pair["row"].run(sql, params)
    sq = pair["sqlite"].run(sql, params)
    assert row.schema == sq.schema
    assert row.rows == sq.rows
    assert row.provenance_attrs == sq.provenance_attrs
    return sq


def _physical(conn, sql):
    return conn._prepared_for(conn.pipeline.parse(sql)[0]).physical


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_connect_engine_sqlite(self):
        assert repro.connect(engine="sqlite").engine == "sqlite"

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "sqlite")
        assert repro.connect().engine == "sqlite"

    def test_unknown_engine_lists_sqlite(self):
        with pytest.raises(ProgrammingError, match="sqlite"):
            repro.connect(engine="postgres")

    def test_plan_cache_key_includes_engine(self, pair):
        # Same canonical SQL on both connections never shares plans:
        # each connection owns its cache, and the key carries the engine.
        sql = "SELECT a FROM t"
        assert isinstance(_physical(pair["sqlite"], sql), SQLiteQueryOp)
        assert not isinstance(_physical(pair["row"], sql), SQLiteQueryOp)


# ---------------------------------------------------------------------------
# Mirroring
# ---------------------------------------------------------------------------
class TestMirror:
    def test_sync_is_lazy_per_version(self, pair):
        conn = pair["sqlite"]
        backend = conn.pipeline.planner.backend
        conn.run("SELECT a FROM t")
        synced = backend.tables_synced
        conn.run("SELECT a, b FROM t WHERE a > 0")
        assert backend.tables_synced == synced  # unchanged heap: no resync
        conn.run("INSERT INTO t VALUES (9, 'new', 0.5, FALSE)")
        result = conn.run("SELECT a FROM t WHERE a = 9")
        assert result.rows == [(9,)]
        assert backend.tables_synced == synced + 1

    def test_schema_change_resyncs(self, pair):
        conn = pair["sqlite"]
        assert conn.run("SELECT x, y FROM s").rows[0] == (1, "one")
        conn.run("DROP TABLE s; CREATE TABLE s (y text)")
        conn.load_rows("s", [("fresh",)])
        assert conn.run("SELECT y FROM s").rows == [("fresh",)]

    def test_one_statement_per_execution(self, pair):
        conn = pair["sqlite"]
        backend = conn.pipeline.planner.backend
        conn.run("SELECT a, b FROM t JOIN s ON t.a = s.x WHERE a > 0")
        before = backend.statements_executed
        conn.run("SELECT a, b FROM t JOIN s ON t.a = s.x WHERE a > 0")
        assert backend.statements_executed == before + 1

    def test_drop_recreate_loop_never_serves_stale_rows(self):
        # Regression: the mirror signature must not key on a reusable
        # object address — a dropped table's heap can be freed and the
        # next CREATE can land on the same id() with the same version.
        conn = repro.connect(engine="sqlite")
        for i in range(40):
            conn.run("DROP TABLE IF EXISTS t; CREATE TABLE t (a int)")
            conn.run(f"INSERT INTO t VALUES ({i})")
            assert conn.run("SELECT a FROM t").rows == [(i,)], f"stale at {i}"

    def test_bool_values_roundtrip(self, pair):
        result = _agree(pair, "SELECT d, a FROM t")
        assert [row[0] for row in result.rows] == [True, False, None, True]
        assert result.schema[0].type is SQLType.BOOL


# ---------------------------------------------------------------------------
# Pushdown vs fallback
# ---------------------------------------------------------------------------
class TestPushdown:
    def test_spj_aggregate_pushes_down(self, pair):
        plan = _physical(
            pair["sqlite"],
            "SELECT b, count(*) AS n FROM t WHERE a IS NOT NULL GROUP BY b",
        )
        assert isinstance(plan, SQLiteQueryOp)
        assert not plan.slots  # fully native: no fragments, no subplans

    def test_root_setop_uses_row_plan_directly(self, pair):
        # An unsupported *root* skips the pointless wrap-in-a-fragment
        # round trip and just runs the row plan.
        sql = "SELECT a FROM t UNION SELECT x FROM s"
        assert not isinstance(_physical(pair["sqlite"], sql), SQLiteQueryOp)
        _agree(pair, sql)

    def test_setop_falls_back_per_subtree(self, pair):
        # Under a supported operator the set-op subtree becomes a
        # row-engine fragment while the rest stays pushed down.
        sql = "SELECT a FROM t UNION SELECT x FROM s ORDER BY a DESC LIMIT 3"
        plan = _physical(pair["sqlite"], sql)
        assert isinstance(plan, SQLiteQueryOp)
        assert any(slot.kind == "rows" for slot in plan.slots)
        _agree(pair, sql)

    def test_correlated_exists_pushes_down(self, pair):
        sql = "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a)"
        plan = _physical(pair["sqlite"], sql)
        assert isinstance(plan, SQLiteQueryOp)
        assert not plan.slots  # correlated EXISTS compiles inline
        _agree(pair, sql)

    def test_uncorrelated_scalar_binds_value(self, pair):
        sql = "SELECT a FROM t WHERE a > (SELECT min(x) FROM s)"
        plan = _physical(pair["sqlite"], sql)
        assert [slot.kind for slot in plan.slots] == ["scalar"]
        _agree(pair, sql)

    def test_multirow_scalar_subquery_raises_like_row_engine(self, pair):
        sql = "SELECT a FROM t WHERE a = (SELECT x FROM s)"
        errors = {}
        for engine, conn in pair.items():
            with pytest.raises(ExecutionError) as excinfo:
                conn.run(sql)
            errors[engine] = str(excinfo.value)
        assert errors["row"] == errors["sqlite"]
        assert "more than one row" in errors["sqlite"]

    def test_sublink_error_is_lazy_like_row_engine(self, pair):
        # Regression: an erroring uncorrelated sublink over an *empty*
        # outer relation never fires on the row engine (the lazy
        # subquery cache is never touched); the sqlite backend must not
        # raise it eagerly either.
        for conn in pair.values():
            conn.run("CREATE TABLE IF NOT EXISTS empty_t (a int)")
        sql = "SELECT a FROM empty_t WHERE a = (SELECT x FROM s)"
        assert _agree(pair, sql).rows == []
        # With a non-empty outer relation both engines raise it.
        errors = {}
        for engine, conn in pair.items():
            with pytest.raises(ExecutionError) as excinfo:
                conn.run("SELECT a FROM t WHERE a = (SELECT x FROM s)")
            errors[engine] = str(excinfo.value)
        assert errors["row"] == errors["sqlite"]

    def test_fallback_rolls_back_orphaned_slots(self, pair):
        # Regression: when a subtree attempt fails mid-compile (here the
        # unsupported ANY sublink), slots registered by the abandoned
        # attempt must not survive into the fallback plan.
        sql = (
            "SELECT a FROM t WHERE a IN (SELECT x FROM s) "
            "AND a = ANY (SELECT x FROM s) ORDER BY b"
        )
        plan = _physical(pair["sqlite"], sql)
        if isinstance(plan, SQLiteQueryOp):
            for slot in plan.slots:
                frag = slot.frag_table
                assert frag is None or frag in plan.sql, (
                    f"orphaned fragment {frag} materialized but never read"
                )
        _agree(pair, sql)

    def test_grouped_float_sum_falls_back(self, pair):
        # Float accumulation order inside SQLite's GROUP BY is not the
        # engine's first-seen order; the subtree must run on the row
        # engine (and still agree bit-for-bit).
        sql = "SELECT b, sum(c) AS s FROM t GROUP BY b"
        plan = _physical(pair["sqlite"], sql)
        assert any(slot.kind == "rows" for slot in plan.slots)
        _agree(pair, sql)

    def test_global_float_sum_pushes_down(self, pair):
        sql = "SELECT sum(c), avg(c) FROM t WHERE a IS NOT NULL"
        plan = _physical(pair["sqlite"], sql)
        assert isinstance(plan, SQLiteQueryOp) and not plan.slots
        _agree(pair, sql)


# ---------------------------------------------------------------------------
# Semantics preserved through SQLite
# ---------------------------------------------------------------------------
class TestSemantics:
    def test_like_stays_case_sensitive(self, pair):
        # Native SQLite LIKE is case-insensitive for ASCII; the UDF isn't.
        assert _agree(pair, "SELECT b FROM t WHERE b LIKE 'alpha'").rows == []
        assert len(_agree(pair, "SELECT b FROM t WHERE b ILIKE 'alpha'").rows) == 2

    def test_integer_division_truncates_toward_zero(self, pair):
        _agree(pair, "SELECT a / 2, a % 3 FROM t WHERE a IS NOT NULL")

    def test_division_by_zero_column_raises_identically(self, pair):
        sql = "SELECT a / (a - a) FROM t WHERE a = 1"
        errors = {}
        for engine, conn in pair.items():
            with pytest.raises(ExecutionError) as excinfo:
                conn.run(sql)
            errors[engine] = str(excinfo.value)
        assert errors["row"] == errors["sqlite"] == "division by zero"

    def test_null_ordering_matches_postgres_defaults(self, pair):
        _agree(pair, "SELECT a FROM t ORDER BY a")  # NULLS LAST
        _agree(pair, "SELECT a FROM t ORDER BY a DESC")  # NULLS FIRST
        _agree(pair, "SELECT a FROM t ORDER BY a ASC NULLS FIRST")
        _agree(pair, "SELECT a FROM t ORDER BY a DESC NULLS LAST")

    def test_type_errors_never_reach_pushdown(self, pair):
        # SQLite would silently coerce where the engine raises; the
        # analyzer rejects the operand types before a plan exists, so
        # every engine fails the same way, also through the compiler's
        # own div/mod rewrites.
        from repro.errors import TypeCheckError

        for sql in (
            "SELECT (a / (a - a)) || 'x' FROM t WHERE a = 1",
            "SELECT a FROM t WHERE a IS DISTINCT FROM 'oops'",
            "SELECT b || a FROM t",
        ):
            errors = {}
            for engine, conn in pair.items():
                with pytest.raises(TypeCheckError) as excinfo:
                    conn.run(sql)
                errors[engine] = str(excinfo.value)
            assert errors["row"] == errors["sqlite"], sql

    def test_text_param_rejected_at_bind_in_concat(self, pair):
        # `? || 'a'` pins the slot to text at bind time on every engine.
        from repro.errors import TypeCheckError

        for conn in pair.values():
            with pytest.raises(TypeCheckError, match="expects text"):
                conn.run("SELECT ? || 'a' FROM t", (True,))

    def test_oversized_parameter_rescues_to_row_engine(self, pair):
        # A parameter beyond SQLite's 64-bit range cannot bind; instead
        # of erroring (the engines compute this fine), the statement
        # escapes to the row-engine rescue and all engines agree.
        results = {
            engine: conn.run("SELECT a FROM t WHERE a < ?", (2**70,)).rows
            for engine, conn in pair.items()
        }
        assert results["row"] == results["sqlite"]
        # Rescue is per-execution: an in-range parameter on the same
        # cached plan goes back through SQLite and still agrees.
        results = {
            engine: conn.run("SELECT a FROM t WHERE a < ?", (2,)).rows
            for engine, conn in pair.items()
        }
        assert results["row"] == results["sqlite"]

    def test_three_valued_having(self, pair):
        _agree(
            pair,
            "SELECT b, max(a) AS m FROM t GROUP BY b HAVING max(a) > 1",
        )

    def test_outer_join_padding_order(self, pair):
        _agree(pair, "SELECT b, y FROM t LEFT JOIN s ON t.a = s.x")
        _agree(pair, "SELECT b, y FROM t FULL JOIN s ON t.a = s.x")

    def test_padding_sorts_last_even_under_sort_key_ordinals(self, pair):
        # Regression: when the padded side's ordinals come from a sort
        # key with NULLS FIRST semantics (ORDER BY ... DESC in a FROM
        # subquery), unmatched right rows must still append at the end —
        # padding NULLs are not sort-key NULLs.
        sql = (
            "SELECT a, x, y FROM "
            "(SELECT a FROM t ORDER BY a DESC LIMIT 10) o "
            "RIGHT JOIN s ON o.a = s.x"
        )
        _agree(pair, sql)
        sql_full = (
            "SELECT a, x, y FROM "
            "(SELECT a FROM t ORDER BY a DESC LIMIT 10) o "
            "FULL JOIN s ON o.a = s.x"
        )
        _agree(pair, sql_full)

    def test_float_aggregation_matches_on_any_sqlite_version(self, pair):
        # Both the native (< 3.44) and the repro_fsum (>= 3.44, Kahan
        # era) paths must reproduce naive left-to-right accumulation;
        # force the UDF path here so it is exercised on every host.
        sqlite_conn = pair["sqlite"]
        backend = sqlite_conn.pipeline.planner.backend
        saved = backend.native_float_agg
        backend.native_float_agg = False
        try:
            sqlite_conn.plan_cache.clear()
            sql = "SELECT sum(c), avg(c) FROM t"
            plan = _physical(sqlite_conn, sql)
            assert "repro_fsum" in plan.sql and "repro_favg" in plan.sql
            _agree(pair, sql)
        finally:
            backend.native_float_agg = saved
            sqlite_conn.plan_cache.clear()

    def test_parameters_rebind_per_execution(self, pair):
        stmt = pair["sqlite"].prepare("SELECT a FROM t WHERE a > ?")
        row_stmt = pair["row"].prepare("SELECT a FROM t WHERE a > ?")
        for threshold in (0, 1, -10):
            assert stmt.execute((threshold,)).rows == row_stmt.execute((threshold,)).rows

    def test_provenance_pushdown(self, pair):
        result = _agree(pair, "SELECT PROVENANCE a, b FROM t WHERE a > 0")
        assert result.provenance_attrs == ("prov_t_a", "prov_t_b", "prov_t_c", "prov_t_d")


# ---------------------------------------------------------------------------
# Dialect rendering
# ---------------------------------------------------------------------------
class TestDialect:
    def test_bool_literals(self):
        true = ax.Const.of(True)
        assert expr_to_sql(true, BROWSER_DIALECT) == "TRUE"
        assert expr_to_sql(true, SQLiteDialect()) == "1"

    def test_null_safe_comparison_uses_is(self):
        test = ax.DistinctTest(ax.Column("a"), ax.Column("b"), negated=True)
        assert expr_to_sql(test, BROWSER_DIALECT) == "(a IS NOT DISTINCT FROM b)"
        assert expr_to_sql(test, SQLiteDialect()) == '("a" IS "b")'

    def test_functions_route_through_udfs(self):
        call = ax.FuncExpr("upper", (ax.Column("b"),))
        assert expr_to_sql(call, BROWSER_DIALECT) == "upper(b)"
        assert expr_to_sql(call, SQLiteDialect()) == 'repro_upper("b")'

    def test_casts_route_through_udfs(self):
        cast = ax.CastExpr(ax.Column("a"), SQLType.BOOL)
        assert expr_to_sql(cast, SQLiteDialect()) == 'repro_cast_bool("a")'

    def test_keyword_aliases_always_quoted(self):
        assert expr_to_sql(ax.Column("case"), SQLiteDialect()) == '"case"'
        assert expr_to_sql(ax.Column("case"), BROWSER_DIALECT) == "case"

    def test_params_are_slot_named(self):
        param = ax.Param(3, None)
        assert expr_to_sql(param, SQLiteDialect()) == ":p3"
        assert expr_to_sql(param, BROWSER_DIALECT) == "?"


class TestBackendObject:
    def test_backend_created_lazily(self):
        conn = repro.connect(engine="row")
        assert conn.pipeline.planner._backend is None
        conn = repro.connect(engine="sqlite")
        assert conn.pipeline.planner._backend is None
        conn.run("CREATE TABLE t (a int)")
        conn.run("SELECT a FROM t")
        assert isinstance(conn.pipeline.planner._backend, SQLiteBackend)

    def test_close_closes_backend(self):
        conn = repro.connect(engine="sqlite")
        conn.run("CREATE TABLE t (a int); INSERT INTO t VALUES (1)")
        conn.run("SELECT a FROM t")
        backend = conn.pipeline.planner.backend
        conn.close()
        with pytest.raises(Exception):
            backend.connection.execute("SELECT 1")
