"""Unit tests for the cost-based optimizer stages: join-order selection,
redundant join-back elimination (with stats revalidation), column
pruning, hash-side selection and the grounded-cardinality guarantees of
the cost model."""

from __future__ import annotations

import pytest

from repro import connect
from repro.algebra import nodes as an
from repro.algebra.tree import walk_tree
from repro.errors import CostEstimationError
from repro.executor import iterators as it
from repro.optimizer import CostEstimator, Optimizer


def _tables(conn, rows=2000, fan=4, selective=5, domain=100):
    """A 3-relation chain whose syntactic (left-deep) join order is bad:
    big1 x big2 fans out, while big2 x small is highly selective."""
    conn.run(
        """
        CREATE TABLE big1 (k int, v int, pad text);
        CREATE TABLE big2 (k int, j int, pad text);
        CREATE TABLE small (j int, seg text, label text);
        """
    )
    keys = max(rows // fan, 1)
    conn.load_rows("big1", [(i % keys, i % 17, "b1") for i in range(rows)])
    conn.load_rows("big2", [(i % keys, i % domain, "b2") for i in range(rows)])
    conn.load_rows(
        "small",
        [(j, "x" if j < selective else "y", f"l{j}") for j in range(domain)],
    )


CHAIN_SQL = (
    "SELECT s.label, count(*) AS n FROM big1 b1 "
    "JOIN big2 b2 ON b1.k = b2.k JOIN small s ON b2.j = s.j "
    "WHERE s.seg = 'x' GROUP BY s.label"
)


def _joins(node):
    return [n for n in walk_tree(node) if isinstance(n, an.Join)]


def _scans_under(node):
    return [n.table_name for n in walk_tree(node) if isinstance(n, an.Scan)]


class TestJoinOrderSelection:
    def test_chain_is_reshaped_bushy(self):
        conn = connect(optimizer="cost")
        _tables(conn)
        optimized = conn.profile(CHAIN_SQL, execute=False).optimized
        joins = _joins(optimized)
        top = joins[0]
        # Left-deep would put {big1, big2} under the top join's left
        # input; the cost-based shape joins big2 with the filtered small
        # first and streams big1 against that selective result.
        assert _scans_under(top.left) == ["big1"]
        assert sorted(_scans_under(top.right)) == ["big2", "small"]
        assert conn.counters.joins_reordered >= 1

    def test_leaf_sequence_is_preserved(self):
        # Re-association must never commute the leaves: the left-to-right
        # scan sequence (which defines the engines' row order) stays put.
        conn = connect(optimizer="cost")
        _tables(conn)
        optimized = conn.profile(CHAIN_SQL, execute=False).optimized
        assert _scans_under(optimized) == ["big1", "big2", "small"]

    def test_row_order_identical_to_rules_mode(self):
        # No ORDER BY anywhere: the result order is engine-defined, and
        # re-association must reproduce it bit-for-bit.
        sql = (
            "SELECT b1.v, b2.j, s.label FROM big1 b1 "
            "JOIN big2 b2 ON b1.k = b2.k JOIN small s ON b2.j = s.j "
            "WHERE s.seg = 'x'"
        )
        results = {}
        for mode in ("cost", "rules"):
            conn = connect(optimizer=mode)
            _tables(conn, rows=500)
            results[mode] = conn.execute(sql).fetchall()
        assert results["cost"] == results["rules"]
        assert results["cost"], "query unexpectedly returned nothing"

    def test_no_reorder_without_benefit(self):
        conn = connect(optimizer="cost")
        conn.run("CREATE TABLE t (a int); CREATE TABLE s (a int); CREATE TABLE u (a int)")
        for name in ("t", "s", "u"):
            conn.load_rows(name, [(i,) for i in range(10)])
        conn.profile(
            "SELECT t.a FROM t JOIN s ON t.a = s.a JOIN u ON s.a = u.a",
            execute=False,
        )
        # Symmetric inputs: the syntactic left-deep shape is already
        # optimal, so nothing should be counted as reordered.
        assert conn.counters.joins_reordered == 0

    def test_greedy_chaining_beyond_dp_limit(self):
        # Regions larger than the DP bound fall back to greedy
        # adjacent-pair chaining; force the fallback with a tiny bound
        # and check it still finds the selective shape, order intact.
        conn = connect(optimizer="cost")
        _tables(conn)
        analyzed = conn.profile(CHAIN_SQL, execute=False).analyzed
        from repro import PipelineCounters

        counters = PipelineCounters()
        optimizer = Optimizer(conn.catalog, dp_limit=2, counters=counters)
        optimized = optimizer.optimize(conn.rewriter.expand(analyzed).node)
        assert counters.joins_reordered >= 1
        assert _scans_under(optimized) == ["big1", "big2", "small"]
        top = _joins(optimized)[0]
        assert _scans_under(top.left) == ["big1"]

    def test_rules_mode_keeps_syntactic_order(self):
        conn = connect(optimizer="rules")
        _tables(conn)
        optimized = conn.profile(CHAIN_SQL, execute=False).optimized
        top = _joins(optimized)[0]
        assert sorted(_scans_under(top.left)) == ["big1", "big2"]
        assert conn.counters.joins_reordered == 0


class TestJoinBackElimination:
    SQL = "SELECT c0 FROM (SELECT PROVENANCE a AS c0 FROM big LIMIT 3) q"

    def _db(self):
        conn = connect(optimizer="cost")
        conn.run("CREATE TABLE big (a int, b text)")
        conn.load_rows("big", [(i, f"t{i}") for i in range(10)])
        return conn

    def test_redundant_joinback_is_removed(self):
        conn = self._db()
        optimized = conn.profile(self.SQL, execute=False).optimized
        assert not _joins(optimized), "the provenance join-back should be gone"
        assert conn.counters.joinbacks_eliminated == 1
        assert conn.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]

    def test_elimination_requires_uniqueness(self):
        conn = self._db()
        conn.run("INSERT INTO big VALUES (0, 'dup')")  # a is not unique now
        optimized = conn.profile(self.SQL, execute=False).optimized
        assert _joins(optimized), "non-unique key must keep the join-back"
        assert conn.counters.joinbacks_eliminated == 0

    def test_stale_stats_trigger_replan(self):
        # Row-level DML does not bump the catalog version, so the cached
        # eliminated plan must revalidate its uniqueness proof per
        # execution and transparently re-prepare once it breaks.
        conn = self._db()
        assert conn.execute(self.SQL).fetchall() == [(0,), (1,), (2,)]
        assert conn.counters.joinbacks_eliminated == 1
        conn.run("INSERT INTO big VALUES (0, 'dup')")
        # With a duplicated key the join-back legitimately duplicates the
        # limited row (each copy is a witness) — the eliminated plan
        # would miss that.
        assert conn.execute(self.SQL).fetchall() == [(0,), (0,), (1,), (2,)]

    def test_prepared_statement_survives_stats_change(self):
        conn = self._db()
        stmt = conn.prepare(self.SQL)
        assert stmt.execute().rows == [(0,), (1,), (2,)]
        conn.run("INSERT INTO big VALUES (0, 'dup')")
        assert stmt.execute().rows == [(0,), (0,), (1,), (2,)]

    def test_error_capable_condition_blocks_elimination(self):
        # Dropping the join would also drop the ON condition's runtime
        # errors; both optimizer modes must raise identically.
        outcomes = {}
        for mode in ("cost", "rules"):
            # Row engine pinned: it evaluates conditions eagerly, so the
            # error must surface in both modes (sqlite legitimately skips
            # dead expressions on its own — consistently across modes).
            conn = connect(engine="row", optimizer=mode)
            conn.run("CREATE TABLE t (a int, b int); CREATE TABLE s (x int, y int)")
            conn.load_rows("t", [(1, 0), (2, 1)])
            conn.load_rows("s", [(1, 10), (2, 20)])
            sql = "SELECT t.a FROM t LEFT JOIN s ON t.a = s.x AND 1 / t.b = 1"
            try:
                outcomes[mode] = ("ok", conn.execute(sql).fetchall())
            except Exception as exc:  # noqa: BLE001 - compared structurally
                outcomes[mode] = ("error", type(exc).__name__, str(exc))
        assert outcomes["cost"] == outcomes["rules"]
        assert outcomes["cost"][0] == "error"

    def test_error_capable_right_subtree_blocks_elimination(self):
        # Same for errors raised while evaluating the right input itself.
        outcomes = {}
        for mode in ("cost", "rules"):
            conn = connect(engine="row", optimizer=mode)
            conn.run("CREATE TABLE t (a int); CREATE TABLE s (x int, y int)")
            conn.load_rows("t", [(1,), (2,)])
            conn.load_rows("s", [(1, 10), (2, 0)])
            sql = (
                "SELECT t.a FROM t LEFT JOIN "
                "(SELECT x, 100 / y AS inv FROM s) q ON t.a = q.x"
            )
            try:
                outcomes[mode] = ("ok", conn.execute(sql).fetchall())
            except Exception as exc:  # noqa: BLE001 - compared structurally
                outcomes[mode] = ("error", type(exc).__name__, str(exc))
        assert outcomes["cost"] == outcomes["rules"]
        assert outcomes["cost"][0] == "error"

    def test_insert_select_revalidates_stats(self):
        # INSERT ... SELECT runs through _execute_query, not
        # PreparedPlan.execute — it must revalidate statistics-derived
        # eliminations all the same (regression: the stale cached plan
        # used to be executed directly, silently dropping the duplicated
        # match).
        conn = connect(optimizer="cost")
        conn.run(
            "CREATE TABLE t (a int); CREATE TABLE s (x int, y text); "
            "CREATE TABLE sink (a int)"
        )
        conn.load_rows("t", [(1,), (2,)])
        conn.load_rows("s", [(1, "u"), (2, "v")])
        insert = "INSERT INTO sink SELECT t.a FROM t LEFT JOIN s ON t.a = s.x"
        conn.run(insert)  # caches a plan whose join-back was eliminated
        assert conn.counters.joinbacks_eliminated == 1
        conn.run("INSERT INTO s VALUES (1, 'dup'); DELETE FROM sink WHERE a > 0")
        conn.run(insert)
        assert conn.run("SELECT a FROM sink").rows == [(1,), (1,), (2,)]

    def test_provenance_consumers_keep_the_joinback(self):
        # The top-level provenance query still needs its witnesses.
        conn = self._db()
        sql = "SELECT PROVENANCE a AS c0 FROM big LIMIT 3"
        assert conn.execute(sql).fetchall() == [
            (0, 0, "t0"),
            (1, 1, "t1"),
            (2, 2, "t2"),
        ]


class TestColumnPruning:
    def test_prunes_dead_provenance_duplicates(self):
        conn = connect(optimizer="cost")
        _tables(conn, rows=200)
        conn.profile("SELECT PROVENANCE " + CHAIN_SQL[len("SELECT "):], execute=False)
        assert conn.counters.columns_pruned > 0
        # The original query and the rewritten join-back input are both
        # join regions the cost model re-shapes.
        assert conn.counters.joins_reordered >= 2

    def test_pruning_under_outer_join(self):
        # The unused columns of the null-padded side of a LEFT JOIN are
        # pruned, and padding semantics survive.
        results = {}
        trees = {}
        for mode in ("cost", "rules"):
            conn = connect(optimizer=mode)
            conn.run(
                "CREATE TABLE t (a int, b text); "
                "CREATE TABLE s (x int, y text, z int, w int, q text)"
            )
            conn.load_rows("t", [(1, "p"), (2, "q"), (9, "r")])
            conn.load_rows(
                "s",
                [(1, "one", 10, 0, "a"), (1, "uno", 11, 1, "b"), (2, "two", 20, 2, "c")],
            )
            sql = (
                "SELECT u.a, u.y FROM "
                "(SELECT t.a AS a, t.b AS b, s.y AS y, s.z AS z "
                " FROM t LEFT JOIN s ON t.a = s.x) u"
            )
            profile = conn.profile(sql, execute=False)
            trees[mode] = profile.optimized
            results[mode] = conn.execute(sql).fetchall()
        assert results["cost"] == results["rules"]
        assert (9, None) in results["cost"]  # padding intact

        def widths(tree):
            join = next(n for n in walk_tree(tree) if isinstance(n, an.Join))
            return len(join.left.schema) + len(join.right.schema)

        assert widths(trees["cost"]) < widths(trees["rules"])

    def test_root_schema_never_pruned(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int, b text, c int)")
        conn.load_rows("t", [(1, "x", 2)])
        cursor = conn.execute("SELECT a, b, c FROM t")
        assert [d[0] for d in cursor.description] == ["a", "b", "c"]


class TestHashSideSelection:
    def test_build_side_follows_cardinalities(self):
        conn = connect(engine="row")
        conn.run("CREATE TABLE tiny (a int); CREATE TABLE huge (a int, pad text)")
        conn.load_rows("tiny", [(i,) for i in range(3)])
        conn.load_rows("huge", [(i % 3, "p") for i in range(5000)])
        plan_small_left = conn.profile(
            "SELECT tiny.a FROM tiny JOIN huge ON tiny.a = huge.a", execute=False
        ).physical
        joins = [
            op
            for op in _walk_physical(plan_small_left)
            if isinstance(op, it.PHashJoin)
        ]
        assert joins and joins[0].build_side == "left"

        plan_small_right = conn.profile(
            "SELECT tiny.a FROM huge JOIN tiny ON tiny.a = huge.a", execute=False
        ).physical
        joins = [
            op
            for op in _walk_physical(plan_small_right)
            if isinstance(op, it.PHashJoin)
        ]
        assert joins and joins[0].build_side == "right"

    def test_error_capable_residual_pins_build_right(self):
        # Build-left evaluates the residual eagerly over the whole right
        # stream; under LIMIT the lazy build-right path may never reach a
        # late error row. The planner must keep build-right whenever the
        # condition could raise.
        conn = connect(engine="row")
        conn.run("CREATE TABLE small (k int); CREATE TABLE big (k int, v int)")
        conn.load_rows("small", [(i,) for i in range(10)])
        conn.load_rows("big", [(i % 10, 1 if i < 99 else 0) for i in range(100)])
        sql = (
            "SELECT small.k FROM small JOIN big "
            "ON small.k = big.k AND 1 / big.v > 0 LIMIT 1"
        )
        physical = conn.profile(sql, execute=False).physical
        joins = [op for op in _walk_physical(physical) if isinstance(op, it.PHashJoin)]
        assert joins and joins[0].build_side == "right"
        assert conn.execute(sql).fetchall() == [(0,)]

    def test_error_capable_left_subtree_pins_build_right(self):
        # Build-left also materializes the whole left input; a lazily
        # streamed left subtree with an error-capable expression must pin
        # build-right so LIMIT semantics (and cross-engine error
        # agreement) are preserved.
        conn = connect(engine="row")
        conn.run("CREATE TABLE small (k int, x int); CREATE TABLE big (k int, v int)")
        conn.load_rows("small", [(i, i) for i in range(5)])
        conn.load_rows("big", [(i % 5, i) for i in range(40)])
        sql = (
            "SELECT q.y, b.v FROM (SELECT k, 1 / (x - 3) AS y FROM small) q "
            "JOIN big b ON q.k = b.k LIMIT 1"
        )
        physical = conn.profile(sql, execute=False).physical
        joins = [op for op in _walk_physical(physical) if isinstance(op, it.PHashJoin)]
        assert joins and joins[0].build_side == "right"

    def test_vectorized_build_left_matches_row_engine(self):
        from repro.executor import vectorized as vec

        rows = {}
        for engine in ("row", "vectorized"):
            conn = connect(engine=engine)
            conn.run("CREATE TABLE tiny (a int); CREATE TABLE huge (a int, pad text)")
            conn.load_rows("tiny", [(i,) for i in range(3)])
            conn.load_rows("huge", [(i % 5, "p") for i in range(5000)])
            sql = "SELECT tiny.a, huge.a FROM tiny LEFT JOIN huge ON tiny.a = huge.a"
            if engine == "vectorized":
                physical = conn.profile(sql, execute=False).physical
                joins = [
                    op
                    for op in _walk_physical(physical)
                    if isinstance(op, vec.VHashJoin)
                ]
                assert joins and joins[0].build_side == "left"
            rows[engine] = conn.execute(sql).fetchall()
        assert rows["row"] == rows["vectorized"]

    def test_build_left_matches_build_right_output(self):
        conn = connect()
        conn.run("CREATE TABLE tiny (a int, t text); CREATE TABLE huge (a int, v int)")
        conn.load_rows("tiny", [(1, "one"), (2, "two"), (None, "null")])
        conn.load_rows("huge", [(i % 4 if i % 5 else None, i) for i in range(1000)])
        for kind in ("JOIN", "LEFT JOIN"):
            sql = f"SELECT tiny.t, huge.v FROM tiny {kind} huge ON tiny.a = huge.a"
            got = conn.execute(sql).fetchall()
            ref = connect(optimizer="rules")
            ref.run("CREATE TABLE tiny (a int, t text); CREATE TABLE huge (a int, v int)")
            ref.load_rows("tiny", [(1, "one"), (2, "two"), (None, "null")])
            ref.load_rows("huge", [(i % 4 if i % 5 else None, i) for i in range(1000)])
            assert got == ref.execute(sql).fetchall()


class TestCostGrounding:
    def test_unknown_scan_raises(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int)")
        scan = an.Scan("t", "t", conn.catalog.table("t").schema)
        estimator = CostEstimator(conn.catalog)
        assert estimator.estimate(scan).rows == 0.0
        conn.catalog.drop_table("t")
        with pytest.raises(CostEstimationError):
            estimator.estimate(scan)

    def test_ungrounded_region_keeps_syntactic_order(self):
        conn = connect()
        _tables(conn)
        optimized = conn.profile(CHAIN_SQL, execute=False).optimized
        conn.catalog.drop_table("big1")
        # Re-optimizing the same tree without statistics must not throw
        # and must not reorder.
        optimizer = Optimizer(conn.catalog)
        reoptimized = optimizer.optimize(optimized)
        assert _scans_under(reoptimized) == _scans_under(optimized)

    def test_range_selectivity_uses_min_max(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int)")
        conn.load_rows("t", [(i,) for i in range(100)])
        estimator = CostEstimator(conn.catalog)
        narrow = conn.profile("SELECT a FROM t WHERE a < 10", execute=False)
        wide = conn.profile("SELECT a FROM t WHERE a < 90", execute=False)
        assert estimator.estimate(narrow.analyzed).rows < estimator.estimate(
            wide.analyzed
        ).rows

    def test_explain_plan_carries_estimates(self):
        conn = connect()
        conn.run("CREATE TABLE t (a int)")
        conn.load_rows("t", [(i,) for i in range(42)])
        text = conn.explain("SELECT a FROM t", "plan")
        assert "rows≈42" in text and "cost≈" in text


def _walk_physical(op):
    yield op
    for slot in ("child", "left", "right"):
        inner = getattr(op, slot, None)
        if inner is not None and hasattr(inner, "schema"):
            yield from _walk_physical(inner)
