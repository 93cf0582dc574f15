"""Algebra-layer tests: schema inference, tree utilities, rendering and
the algebra->SQL deparser (checked by re-parsing and re-executing)."""

from __future__ import annotations

import pytest

from repro import connect
from repro.algebra import expressions as ax
from repro.algebra import nodes as an
from repro.algebra.render import render_side_by_side, render_tree
from repro.algebra.to_sql import algebra_to_sql, expr_to_sql
from repro.algebra.tree import copy_tree, count_nodes, transform_tree, tree_depth, walk_tree
from repro.analyzer import Analyzer
from repro.catalog.schema import schema_of
from repro.datatypes import SQLType as T
from repro.errors import AnalyzeError
from repro.sql import ast, parse_statement


@pytest.fixture
def db():
    session = connect()
    session.run(
        """
        CREATE TABLE t (a int, b text, c float);
        CREATE TABLE s (x int, y text);
        INSERT INTO t VALUES (1, 'p', 0.5), (2, 'q', 1.5), (3, 'p', 2.5);
        INSERT INTO s VALUES (1, 'one'), (3, 'three');
        """
    )
    return session


def analyzed(db, sql):
    statement = parse_statement(sql)
    assert isinstance(statement, ast.QueryStatement)
    return Analyzer(db.catalog).analyze_query(statement.query)


class TestSchemaInference:
    def test_scan_qualifies_attributes(self, db):
        node = an.Scan("t", "t", db.catalog.table("t").schema)
        assert node.schema.names == ["t.a", "t.b", "t.c"]

    def test_project_types(self, db):
        scan = an.Scan("t", "t", db.catalog.table("t").schema)
        project = an.Project(
            scan,
            [
                ("n", ax.BinOp("+", ax.Column("t.a"), ax.Const.of(1))),
                ("f", ax.BinOp("+", ax.Column("t.a"), ax.Column("t.c"))),
                ("s", ax.BinOp("||", ax.Column("t.b"), ax.Const.of("!"))),
            ],
        )
        assert project.schema.types == [T.INT, T.FLOAT, T.TEXT]

    def test_join_concat_schema(self, db):
        left = an.Scan("t", "t", db.catalog.table("t").schema)
        right = an.Scan("s", "s", db.catalog.table("s").schema)
        join = an.Join(left, right, "cross", None)
        assert join.schema.names == ["t.a", "t.b", "t.c", "s.x", "s.y"]

    def test_aggregate_output_types(self, db):
        scan = an.Scan("t", "t", db.catalog.table("t").schema)
        agg = an.Aggregate(
            scan,
            [("g", ax.Column("t.b"))],
            [
                ("cnt", ax.AggExpr("count", None)),
                ("total", ax.AggExpr("sum", ax.Column("t.a"))),
                ("mean", ax.AggExpr("avg", ax.Column("t.a"))),
                ("fsum", ax.AggExpr("sum", ax.Column("t.c"))),
            ],
        )
        assert agg.schema.types == [T.TEXT, T.INT, T.INT, T.FLOAT, T.FLOAT]

    def test_setop_unifies_types(self, db):
        left = an.Project(an.SingleRow(), [("v", ax.Const.of(1))])
        right = an.Project(an.SingleRow(), [("v", ax.Const.of(2.5))])
        union = an.SetOpNode(left, right, "union", False)
        assert union.schema.types == [T.FLOAT]

    def test_join_kind_validation(self, db):
        scan = an.Scan("t", "t", db.catalog.table("t").schema)
        with pytest.raises(AnalyzeError):
            an.Join(scan, scan, "sideways", None)
        with pytest.raises(AnalyzeError):
            an.Join(scan, scan, "left", None)  # outer joins need a condition

    def test_setop_arity_validation(self, db):
        one = an.Project(an.SingleRow(), [("v", ax.Const.of(1))])
        two = an.Project(an.SingleRow(), [("v", ax.Const.of(1)), ("w", ax.Const.of(2))])
        with pytest.raises(AnalyzeError):
            an.SetOpNode(one, two, "union", False)


class TestTreeUtilities:
    def test_walk_and_count(self, db):
        node = analyzed(db, "SELECT a FROM t WHERE b = 'p'")
        kinds = [type(n).__name__ for n in walk_tree(node)]
        assert kinds[0] == "Project"
        assert "Scan" in kinds
        assert count_nodes(node) == len(kinds)

    def test_count_includes_subplans(self, db):
        node = analyzed(db, "SELECT a FROM t WHERE a IN (SELECT x FROM s)")
        assert count_nodes(node) > count_nodes(analyzed(db, "SELECT a FROM t"))

    def test_copy_tree_is_deep_for_nodes(self, db):
        node = analyzed(db, "SELECT a FROM t WHERE b = 'p'")
        clone = copy_tree(node)
        assert clone is not node
        assert clone.schema.names == node.schema.names

    def test_transform_tree_replaces(self, db):
        node = analyzed(db, "SELECT a FROM t WHERE b = 'p'")

        def drop_selects(candidate):
            if isinstance(candidate, an.Select):
                return candidate.child
            return None

        stripped = transform_tree(node, drop_selects)
        assert not any(isinstance(n, an.Select) for n in walk_tree(stripped))

    def test_tree_depth(self, db):
        assert tree_depth(analyzed(db, "SELECT a FROM t")) >= 2


class TestRendering:
    def test_render_tree_shows_operators(self, db):
        node = analyzed(db, "SELECT b, count(*) FROM t GROUP BY b")
        text = render_tree(node)
        assert "α[" in text and "Scan(t)" in text and "Π[" in text
        assert "∪" in render_tree(analyzed(db, "SELECT a FROM t UNION SELECT x FROM s"))

    def test_render_includes_sublinks(self, db):
        node = analyzed(db, "SELECT a FROM t WHERE a IN (SELECT x FROM s)")
        assert "sublink:" in render_tree(node)

    def test_render_schema_annotation(self, db):
        node = analyzed(db, "SELECT a FROM t")
        assert ":: (a)" in render_tree(node, show_schema=True)

    def test_side_by_side(self):
        merged = render_side_by_side("a\nbb", "ccc", headers=("L", "R"))
        lines = merged.splitlines()
        assert lines[0].startswith("L") and "R" in lines[0]
        assert len(lines) == 4


class TestAlgebraToSql:
    """The deparsed SQL must re-parse and produce identical results —
    this is what makes browser pane 2 trustworthy."""

    QUERIES = [
        "SELECT a, b FROM t WHERE a > 1",
        "SELECT b, count(*) AS n FROM t GROUP BY b HAVING count(*) > 1",
        "SELECT t.a, s.y FROM t JOIN s ON t.a = s.x",
        "SELECT t.a FROM t LEFT JOIN s ON t.a = s.x WHERE s.y IS NULL",
        "SELECT a FROM t UNION SELECT x FROM s",
        "SELECT DISTINCT b FROM t ORDER BY b DESC",
        "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1",
        "SELECT a FROM t WHERE a IN (SELECT x FROM s)",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a)",
        "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END AS size FROM t",
        "SELECT sum(a * 2) FROM t",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_roundtrip_execution(self, db, sql):
        node = analyzed(db, sql)
        regenerated = algebra_to_sql(node)
        direct = db.run(sql)
        via_deparse = db.run(regenerated)
        assert sorted(direct.rows, key=repr) == sorted(via_deparse.rows, key=repr)

    def test_rewritten_provenance_sql_roundtrips(self, db):
        for sql in (
            "SELECT PROVENANCE a, b FROM t WHERE a > 1",
            "SELECT PROVENANCE a FROM t UNION SELECT x FROM s",
        ):
            profile = db.profile(sql)
            regenerated = algebra_to_sql(profile.rewritten)
            again = db.run(regenerated)
            assert sorted(profile.result.rows, key=repr) == sorted(again.rows, key=repr)

    def test_expr_to_sql_forms(self):
        assert expr_to_sql(ax.Const.of(None)) == "NULL"
        assert expr_to_sql(ax.Const(None, T.INT)) == "CAST(NULL AS int)"
        assert expr_to_sql(ax.Const.of("it's")) == "'it''s'"
        assert expr_to_sql(ax.Column("a.b")) == '"a.b"'
        assert (
            expr_to_sql(ax.DistinctTest(ax.Column("x"), ax.Column("y"), negated=True))
            == "(x IS NOT DISTINCT FROM y)"
        )
