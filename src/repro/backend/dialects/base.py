"""The :class:`Dialect` interface: everything that differs between SQL
targets, behind one object.

A dialect bundles two layers of knobs:

* *Scalar rendering* — identifiers, literals, parameter placeholders,
  function/cast/LIKE spelling, sublinks. This is what the algebra
  deparser (:func:`expr_to_sql`) consumes for every target.
* *Pushdown hooks* — the points where the generic plan compiler
  (:mod:`repro.backend.compile`) must diverge per engine without naming
  any engine: how a null-safe comparison is spelled
  (:meth:`distinct_test`), how scalar UDFs and the sublink side channel
  are addressed (:attr:`udf_prefix`, :meth:`udf_name`,
  :meth:`slot_expr`), and the integer-interval gate bounds
  (:attr:`integer_bounds`) driving the exact-arithmetic rewrites.

Concrete dialects: :class:`~repro.backend.dialects.browser
.BrowserDialect` (the engine's own SQL, re-parseable),
:class:`~repro.backend.dialects.sqlite.SQLiteDialect` (executable by
``sqlite3``), and the optional :class:`~repro.backend.dialects.duckdb
.DuckDBDialect`. Third-party backends subclass :class:`Dialect` and
register through :func:`repro.backend.register`.
"""

from __future__ import annotations

from typing import Optional

from ...datatypes import SQLType, Value
from ...algebra.expressions import (
    AggExpr,
    BinOp,
    CaseExpr,
    CastExpr,
    Column,
    Const,
    DistinctTest,
    Expr,
    FuncExpr,
    InListExpr,
    IsNullTest,
    OuterColumn,
    Param,
    SubqueryExpr,
    UnOp,
)

_BARE = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def quote_identifier(name: str) -> str:
    """Quote *name* only when a bare spelling would be ambiguous."""
    if name and all(c in _BARE for c in name) and not name[0].isdigit():
        return name
    return '"' + name.replace('"', '""') + '"'


def quote_identifier_always(name: str) -> str:
    """Unconditionally quote *name* — required for SQLite/DuckDB, whose
    keyword lists (CASE, ORDER, ...) would collide with bare aliases."""
    return '"' + name.replace('"', '""') + '"'


class Dialect:
    """Scalar-rendering and pushdown knobs that differ between targets."""

    name = "abstract"

    #: SQL spellings of the static types (CAST targets, typed NULLs).
    type_names: dict[SQLType, str] = {}

    #: Prefix under which the backend registers exact-semantics UDFs
    #: (empty for dialects that use plain function names).
    udf_prefix = ""

    #: Inclusive bounds of the target's native integer type, or ``None``
    #: when its integers are unbounded. The plan compiler's static
    #: interval analysis gates every integer ``+``/``-``/``*``/``-x`` on
    #: these bounds, rewriting unprovable arithmetic to the exact UDFs.
    integer_bounds: Optional[tuple[int, int]] = None

    def identifier(self, name: str) -> str:
        return quote_identifier(name)

    def literal(self, value: Value) -> str:
        raise NotImplementedError

    def typed_null(self, type_: SQLType) -> str:
        return f"CAST(NULL AS {self.type_names[type_]})"

    def param(self, expr: Param) -> str:
        raise NotImplementedError

    def function(self, name: str, args: list[str]) -> str:
        raise NotImplementedError

    def udf_name(self, name: str) -> str:
        """The callable name of the backend-registered UDF *name*."""
        return f"{self.udf_prefix}{name}"

    def cast(self, operand: str, target: SQLType) -> str:
        return f"CAST({operand} AS {self.type_names[target]})"

    def like(self, left: str, right: str, case_insensitive: bool) -> str:
        raise NotImplementedError

    def distinct_test(self, left: str, right: str, negated: bool) -> str:
        """Render the null-safe comparison ``left IS [NOT] DISTINCT FROM
        right``. Dialects without the standard spelling override this
        (SQLite's bare ``IS`` / ``IS NOT`` *is* the null-safe form)."""
        maybe_not = " NOT" if negated else ""
        return f"({left} IS{maybe_not} DISTINCT FROM {right})"

    def bind_label(self, name: str) -> str:
        """Placeholder spelling of the named bind parameter *name*
        (LIMIT/OFFSET counts evaluated per execution)."""
        return f":{name}"

    def limit_all(self) -> str:
        """The LIMIT clause meaning "no limit" (needed when an OFFSET
        follows without a LIMIT)."""
        return "LIMIT -1"

    def slot_expr(self, slot_id: int) -> str:
        """Render the sublink side-channel access for *slot_id* (the
        compiled statement's handle on lazily evaluated uncorrelated
        sublinks; see :class:`repro.backend.runtime.SubplanSlot`)."""
        return f"{self.udf_prefix}slot({slot_id})"

    def subquery(self, expr: SubqueryExpr) -> str:
        """Render a sublink. Dialects that cannot inline arbitrary
        subplans (SQLite) override this to delegate or refuse."""
        raise NotImplementedError


def expr_to_sql(expr: Expr, dialect: Optional[Dialect] = None) -> str:
    """Render a resolved expression as SQL text in *dialect* (the
    browser dialect when none is given)."""
    if dialect is None:
        from .browser import BROWSER_DIALECT

        dialect = BROWSER_DIALECT
    if isinstance(expr, Column):
        return dialect.identifier(expr.name)
    if isinstance(expr, OuterColumn):
        # Correlated reference: rendered as a bare name; the enclosing
        # query exposes it (display + re-parse inside the right scope).
        return dialect.identifier(expr.name)
    if isinstance(expr, Const):
        if expr.value is None and expr.type is not SQLType.NULL:
            return dialect.typed_null(expr.type)
        return dialect.literal(expr.value)
    if isinstance(expr, Param):
        return dialect.param(expr)
    if isinstance(expr, BinOp):
        if expr.op in ("like", "ilike"):
            return dialect.like(
                expr_to_sql(expr.left, dialect),
                expr_to_sql(expr.right, dialect),
                expr.op == "ilike",
            )
        op = expr.op.upper() if expr.op in ("and", "or") else expr.op
        return f"({expr_to_sql(expr.left, dialect)} {op} {expr_to_sql(expr.right, dialect)})"
    if isinstance(expr, UnOp):
        if expr.op == "not":
            return f"(NOT {expr_to_sql(expr.operand, dialect)})"
        return f"({expr.op}{expr_to_sql(expr.operand, dialect)})"
    if isinstance(expr, IsNullTest):
        maybe_not = " NOT" if expr.negated else ""
        return f"({expr_to_sql(expr.operand, dialect)} IS{maybe_not} NULL)"
    if isinstance(expr, DistinctTest):
        return dialect.distinct_test(
            expr_to_sql(expr.left, dialect),
            expr_to_sql(expr.right, dialect),
            expr.negated,
        )
    if isinstance(expr, CaseExpr):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(expr_to_sql(expr.operand, dialect))
        for condition, result in expr.whens:
            parts.append(
                f"WHEN {expr_to_sql(condition, dialect)} "
                f"THEN {expr_to_sql(result, dialect)}"
            )
        if expr.else_result is not None:
            parts.append(f"ELSE {expr_to_sql(expr.else_result, dialect)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, FuncExpr):
        return dialect.function(expr.name, [expr_to_sql(a, dialect) for a in expr.args])
    if isinstance(expr, CastExpr):
        return dialect.cast(expr_to_sql(expr.operand, dialect), expr.target)
    if isinstance(expr, InListExpr):
        maybe_not = "NOT " if expr.negated else ""
        items = ", ".join(expr_to_sql(i, dialect) for i in expr.items)
        return f"({expr_to_sql(expr.operand, dialect)} {maybe_not}IN ({items}))"
    if isinstance(expr, AggExpr):
        if expr.arg is None:
            return f"{expr.func}(*)"
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.func}({distinct}{expr_to_sql(expr.arg, dialect)})"
    if isinstance(expr, SubqueryExpr):
        return dialect.subquery(expr)
    raise TypeError(f"cannot deparse expression {type(expr).__name__}")
