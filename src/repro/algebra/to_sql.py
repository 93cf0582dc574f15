"""Algebra -> SQL text: the browser deparser.

The Perm browser's pane 2 shows the *rewritten query as an SQL statement*
(Figure 4, marker 2). Perm obtains that text by deparsing the rewritten
PostgreSQL query tree; this module is the equivalent deparser for our
algebra trees. The generated SQL nests one subselect per operator, with
every intermediate attribute exposed under its unique (quoted) name, so
the output is both readable and re-parseable by :mod:`repro.sql.parser`.

Deparsing is split between tree shape (the :class:`_SqlBuilder` nesting
here) and scalar rendering, which is parameterized by a dialect object.
Dialects live in :mod:`repro.backend.dialects` behind the
:class:`~repro.backend.dialects.base.Dialect` interface — the browser
dialect for this module, the SQLite/DuckDB dialects for the pushdown
backends.

Dialects only cover scalar expressions; operator-tree compilation for
pushdown targets (ordering channel, fallbacks, sublink strategies)
lives in :mod:`repro.backend.compile`.
"""

from __future__ import annotations

from itertools import count

from . import nodes as n
from .expressions import Expr

_BARE = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def expr_to_sql(expr: Expr, dialect=None) -> str:
    """Render a resolved expression as SQL text in *dialect* (the
    browser dialect when none is given)."""
    from ..backend.dialects.base import expr_to_sql as render

    return render(expr, dialect)


def _quote(name: str) -> str:
    if name and all(c in _BARE for c in name) and not name[0].isdigit():
        return name
    return '"' + name.replace('"', '""') + '"'


class _SqlBuilder:
    """Builds nested-subselect SQL for a plan (browser dialect)."""

    def __init__(self, pretty: bool):
        self._alias = (f"sub_{i}" for i in count())
        self._pretty = pretty

    def build(self, node: n.Node, depth: int = 0) -> str:
        method = getattr(self, "_" + type(node).__name__.lower(), None)
        if method is None:
            raise TypeError(f"cannot deparse operator {type(node).__name__}")
        return method(node, depth)

    # -- helpers ---------------------------------------------------------
    def _wrap(self, node: n.Node, depth: int) -> str:
        """Child as a FROM item: ``(sql) AS alias``."""
        inner = self.build(node, depth + 1)
        return f"({inner}) AS {next(self._alias)}"

    def _select_all(self, node: n.Node) -> str:
        return ", ".join(_quote(a.name) for a in node.schema)

    def _nl(self, depth: int) -> str:
        return ("\n" + "  " * depth) if self._pretty else " "

    # -- operators -------------------------------------------------------
    def _scan(self, node: n.Scan, depth: int) -> str:
        alias = _quote(node.alias)
        items = ", ".join(
            f"{alias}.{_quote(col)} AS {_quote(out.name)}"
            for col, out in zip(node.columns, node.schema)
        )
        return f"SELECT {items}{self._nl(depth)}FROM {_quote(node.table_name)} AS {alias}"

    def _singlerow(self, node: n.SingleRow, depth: int) -> str:
        return "SELECT 1 AS one_"

    def _project(self, node: n.Project, depth: int) -> str:
        items = ", ".join(f"{expr_to_sql(e)} AS {_quote(name)}" for name, e in node.items)
        if isinstance(node.child, n.SingleRow):
            return f"SELECT {items}"
        return f"SELECT {items}{self._nl(depth)}FROM {self._wrap(node.child, depth)}"

    def _select(self, node: n.Select, depth: int) -> str:
        return (
            f"SELECT {self._select_all(node)}{self._nl(depth)}"
            f"FROM {self._wrap(node.child, depth)}{self._nl(depth)}"
            f"WHERE {expr_to_sql(node.condition)}"
        )

    def _join(self, node: n.Join, depth: int) -> str:
        keyword = {
            "inner": "JOIN",
            "left": "LEFT JOIN",
            "right": "RIGHT JOIN",
            "full": "FULL JOIN",
            "cross": "CROSS JOIN",
        }[node.kind]
        text = (
            f"SELECT {self._select_all(node)}{self._nl(depth)}"
            f"FROM {self._wrap(node.left, depth)}{self._nl(depth)}"
            f"{keyword} {self._wrap(node.right, depth)}"
        )
        if node.condition is not None:
            text += f" ON {expr_to_sql(node.condition)}"
        return text

    def _aggregate(self, node: n.Aggregate, depth: int) -> str:
        items = [f"{expr_to_sql(e)} AS {_quote(name)}" for name, e in node.group_items]
        items += [f"{expr_to_sql(a)} AS {_quote(name)}" for name, a in node.agg_items]
        text = (
            f"SELECT {', '.join(items)}{self._nl(depth)}"
            f"FROM {self._wrap(node.child, depth)}"
        )
        if node.group_items:
            group = ", ".join(expr_to_sql(e) for _, e in node.group_items)
            text += f"{self._nl(depth)}GROUP BY {group}"
        return text

    def _setopnode(self, node: n.SetOpNode, depth: int) -> str:
        keyword = node.kind.upper() + (" ALL" if node.all else "")
        left = self.build(node.left, depth + 1)
        right = self.build(node.right, depth + 1)
        return f"({left}){self._nl(depth)}{keyword}{self._nl(depth)}({right})"

    def _distinct(self, node: n.Distinct, depth: int) -> str:
        return (
            f"SELECT DISTINCT {self._select_all(node)}{self._nl(depth)}"
            f"FROM {self._wrap(node.child, depth)}"
        )

    def _sort(self, node: n.Sort, depth: int) -> str:
        keys = []
        for key in node.keys:
            text = expr_to_sql(key.expr) + (" DESC" if key.descending else " ASC")
            if key.nulls_first is True:
                text += " NULLS FIRST"
            elif key.nulls_first is False:
                text += " NULLS LAST"
            keys.append(text)
        return (
            f"SELECT {self._select_all(node)}{self._nl(depth)}"
            f"FROM {self._wrap(node.child, depth)}{self._nl(depth)}"
            f"ORDER BY {', '.join(keys)}"
        )

    def _limit(self, node: n.Limit, depth: int) -> str:
        text = (
            f"SELECT {self._select_all(node)}{self._nl(depth)}"
            f"FROM {self._wrap(node.child, depth)}"
        )
        if node.limit is not None:
            text += f"{self._nl(depth)}LIMIT {expr_to_sql(node.limit)}"
        if node.offset is not None:
            text += f"{self._nl(depth)}OFFSET {expr_to_sql(node.offset)}"
        return text

    def _provenancenode(self, node: n.ProvenanceNode, depth: int) -> str:
        # Only reachable before the provenance rewrite has run.
        inner = self.build(node.child, depth)
        marker = "SELECT PROVENANCE"
        if node.contribution != "influence":
            marker += f" ON CONTRIBUTION ({node.contribution.upper()})"
        return inner.replace("SELECT", marker, 1)

    def _baserelationnode(self, node: n.BaseRelationNode, depth: int) -> str:
        return self.build(node.child, depth)


def algebra_to_sql(node: n.Node, pretty: bool = True) -> str:
    """Deparse an algebra tree to SQL text (browser dialect)."""
    return _SqlBuilder(pretty).build(node)
