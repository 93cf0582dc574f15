"""Parameter typing: expected SQL types for bind-parameter slots.

A placeholder has no type of its own (``infer_type`` reports NULL), but
its position usually demands one. This module records, per slot, the
type its position in a resolved tree demands; the front end
(:mod:`repro.engine.pipeline`) checks bound values against it, so a
mistyped value fails at bind, whatever the plan, engine and data.

The demand flows top-down. A truth-value position (``WHERE``, ``HAVING``,
``ON``, an ``AND``/``OR``/``NOT`` operand, a searched ``WHEN``) demands
BOOL, ``||`` and ``LIKE`` TEXT, arithmetic a number. Expressions that
must agree on one type (comparison sides, a ``CASE`` operand and its
``WHEN`` values, a ``CASE``'s results, the arguments of ``coalesce`` and
its kin) take their unified static type, else their position's demand:
``WHERE coalesce(?, ?) = a`` types both slots as ``a``. A scalar sublink
passes its demand to its output. Slots whose position demands nothing
accept any value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..algebra.tree import walk_tree
from ..catalog.schema import Schema
from ..datatypes import SQLType, unify_types
from ..scalars import SCALARS

_COMPARISONS = frozenset({"=", "<>", "<", ">", "<=", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})
_NUMBERS = (SQLType.INT, SQLType.FLOAT)

# Operators whose output columns are their input's.
_PASS_THROUGH = (an.Select, an.Sort, an.Limit, an.Distinct)

Found = dict[int, SQLType]


def infer_param_types(
    root: an.Node, outer_schemas: tuple[Schema, ...] = ()
) -> Found:
    """Map parameter slot index -> expected :class:`SQLType`, for the
    slots whose position demands one (the first position wins)."""
    found: Found = {}
    _walk_plan(root, outer_schemas, found, SQLType.NULL)
    return found


def infer_scalar_param_types(
    expr: ax.Expr, schema: Schema, expected: SQLType, found: Found
) -> None:
    """Add to *found* the slots of one DML expression over *schema* —
    an UPDATE/DELETE ``WHERE`` (*expected* BOOL), a ``SET`` value or an
    ``INSERT … VALUES`` item (*expected* NULL: the column coerces)."""
    _Typer(schema, (), found).expect(expr, expected)


def _input_schema(node: an.Node) -> Schema:
    """Schema the node's expressions are resolved against."""
    if isinstance(node, an.Join):
        return node.schema  # concatenation of both inputs
    children = node.children
    return children[0].schema if children else node.schema


def _output_expr(root: an.Node) -> Optional[ax.Expr]:
    """The expression computing *root*'s first output column, when a
    projection under pass-through operators holds it."""
    while isinstance(root, _PASS_THROUGH):
        root = root.children[0]
    return root.items[0][1] if isinstance(root, an.Project) else None


def _walk_plan(
    root: an.Node, outer: tuple[Schema, ...], found: Found, output: SQLType
) -> None:
    """Type the slots of every expression in *root*; *output* is what
    the plan's first output column must be (a scalar sublink's demand)."""
    target = _output_expr(root) if output is not SQLType.NULL else None
    for node in walk_tree(root):
        typer = _Typer(_input_schema(node), outer, found)
        truth = isinstance(node, (an.Select, an.Join))
        for expr in node.expressions():
            if truth:
                typer.expect(expr, SQLType.BOOL)
            else:
                typer.expect(expr, output if expr is target else SQLType.NULL)


class _Typer:
    """Slot typing of the expressions over one input schema."""

    def __init__(self, schema: Schema, outer: tuple[Schema, ...], found: Found):
        self.schema = schema
        self.outer = outer
        self.found = found

    def shared(self, exprs: Sequence[ax.Expr], fallback: SQLType = SQLType.NULL) -> SQLType:
        """The one type *exprs* must agree on: their unified static
        type, else *fallback* (what their position demands)."""
        result = SQLType.NULL
        for expr in exprs:
            result = unify_types(
                result, ax.infer_type(expr, self.schema, self.outer), "parameter"
            )
        return fallback if result is SQLType.NULL else result

    def agree(self, exprs: Sequence[ax.Expr], fallback: SQLType = SQLType.NULL) -> None:
        type_ = self.shared(exprs, fallback)
        for expr in exprs:
            self.expect(expr, type_)

    def expect(self, expr: ax.Expr, expected: SQLType) -> None:
        """Record the slots in *expr*, whose own position demands
        *expected* (NULL: nothing)."""
        # Arithmetic takes numbers: FLOAT admits both int and float.
        numeric = expected if expected in _NUMBERS else SQLType.FLOAT
        if isinstance(expr, ax.Param):
            if expected is not SQLType.NULL and expr.index not in self.found:
                self.found[expr.index] = expected
        elif isinstance(expr, ax.BinOp):
            if expr.op in ("and", "or"):
                self.expect(expr.left, SQLType.BOOL)
                self.expect(expr.right, SQLType.BOOL)
            elif expr.op in ("||", "like", "ilike"):
                self.expect(expr.left, SQLType.TEXT)
                self.expect(expr.right, SQLType.TEXT)
            elif expr.op in _COMPARISONS:
                self.agree((expr.left, expr.right))
            elif expr.op in _ARITHMETIC:
                self.agree((expr.left, expr.right), numeric)
        elif isinstance(expr, ax.UnOp):
            self.expect(expr.operand, SQLType.BOOL if expr.op == "not" else numeric)
        elif isinstance(expr, ax.DistinctTest):
            self.agree((expr.left, expr.right))
        elif isinstance(expr, ax.InListExpr):
            for item in expr.items:
                self.agree((expr.operand, item))
        elif isinstance(expr, ax.CaseExpr):
            if expr.operand is None:
                for condition, _ in expr.whens:
                    self.expect(condition, SQLType.BOOL)
            else:
                for condition, _ in expr.whens:
                    self.agree((expr.operand, condition))
            results = [result for _, result in expr.whens]
            if expr.else_result is not None:
                results.append(expr.else_result)
            self.agree(results, expected)
        elif isinstance(expr, ax.FuncExpr):
            scalar = SCALARS.get(expr.name)
            if scalar is not None and scalar.unifies_args:
                self.agree(expr.args, expected)
            else:
                for arg in expr.args:
                    self.expect(arg, SQLType.NULL)
        elif isinstance(expr, (ax.IsNullTest, ax.CastExpr)):
            self.expect(expr.operand, SQLType.NULL)
        elif isinstance(expr, ax.AggExpr):
            if expr.arg is not None:
                self.expect(expr.arg, SQLType.NULL)
        elif isinstance(expr, ax.SubqueryExpr):
            inner = (self.schema, *self.outer)
            if expr.kind == "scalar":
                _walk_plan(expr.plan, inner, self.found, expected)
            elif expr.operand is not None:  # IN / quantified comparison
                self.expect(expr.operand, expr.plan.schema[0].type)
                _walk_plan(expr.plan, inner, self.found, self.shared((expr.operand,)))
            else:
                _walk_plan(expr.plan, inner, self.found, SQLType.NULL)
