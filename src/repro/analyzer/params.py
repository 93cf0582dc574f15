"""Parameter typing: expected SQL types for bind-parameter slots.

A placeholder has no type of its own (``infer_type`` reports NULL, which
unifies with anything), but its *context* usually pins one down: in
``WHERE a > ?`` the slot must be comparable to ``a``. This module walks a
resolved algebra tree after analysis and records, per parameter slot, the
static type of the expression it is compared with / combined with. The
prepared-statement front end (:mod:`repro.engine.prepared`) checks bound
values against these expectations so a type mismatch fails at bind time
with a clear error instead of deep inside the executor.

The inference is deliberately best-effort: slots used only in opaque
contexts stay untyped and accept any value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..algebra.tree import walk_tree
from ..catalog.schema import Schema
from ..datatypes import SQLType, unify_types
from ..scalars import SCALARS

_COMPARABLE_OPS = frozenset({"=", "<>", "<", ">", "<=", ">=", "+", "-", "*", "/", "%"})

_EMPTY = Schema(())


def infer_param_types(
    root: an.Node, outer_schemas: tuple[Schema, ...] = ()
) -> dict[int, SQLType]:
    """Map parameter slot index -> expected :class:`SQLType`.

    Only slots whose expected type can be pinned down appear in the
    result. When a slot is used in several contexts, the first one
    encountered wins (the contexts agree in any well-typed query).
    """
    found: dict[int, SQLType] = {}
    _walk_plan(root, outer_schemas, found)
    return found


def _input_schema(node: an.Node) -> Schema:
    """Schema the node's expressions are resolved against."""
    if isinstance(node, an.Join):
        return node.schema  # concatenation of both inputs
    if isinstance(node, an.Limit):
        return _EMPTY  # LIMIT/OFFSET expressions reference no columns
    children = node.children
    return children[0].schema if children else node.schema


def _walk_plan(
    root: an.Node, outer: tuple[Schema, ...], found: dict[int, SQLType]
) -> None:
    for node in walk_tree(root):
        schema = _input_schema(node)
        if isinstance(node, (an.Select, an.Join)):
            _predicate(node.condition, found)
        for expr in node.expressions():
            for sub in ax.walk_expr(expr):
                _match(sub, schema, outer, found)
                if isinstance(sub, ax.SubqueryExpr):
                    _walk_plan(sub.plan, (schema, *outer), found)


def _match(
    expr: ax.Expr, schema: Schema, outer: tuple[Schema, ...], found: dict[int, SQLType]
) -> None:
    if isinstance(expr, ax.BinOp) and expr.op in _COMPARABLE_OPS:
        _share((expr.left, expr.right), schema, outer, found)
    elif isinstance(expr, ax.BinOp) and expr.op in ("||", "like", "ilike"):
        # Both operands must be text regardless of the other side.
        for side in (expr.left, expr.right):
            if isinstance(side, ax.Param):
                _record(found, side, SQLType.TEXT)
    elif isinstance(expr, ax.BinOp) and expr.op in ("and", "or"):
        for side in (expr.left, expr.right):
            _predicate(side, found)
    elif isinstance(expr, ax.UnOp) and expr.op == "not":
        _predicate(expr.operand, found)
    elif isinstance(expr, ax.DistinctTest):
        _share((expr.left, expr.right), schema, outer, found)
    elif isinstance(expr, ax.InListExpr):
        for item in expr.items:
            _share((expr.operand, item), schema, outer, found)
    elif isinstance(expr, ax.FuncExpr):
        scalar = SCALARS.get(expr.name)
        if scalar is not None and scalar.unifies_args:
            _share(expr.args, schema, outer, found)
    elif isinstance(expr, ax.CaseExpr):
        if expr.operand is None:  # searched CASE: every WHEN is a predicate
            for condition, _ in expr.whens:
                _predicate(condition, found)
        results = [result for _, result in expr.whens]
        if expr.else_result is not None:
            results.append(expr.else_result)
        _share(results, schema, outer, found)
    elif isinstance(expr, ax.SubqueryExpr) and expr.kind in ("in", "quant"):
        if isinstance(expr.operand, ax.Param):
            _record(found, expr.operand, expr.plan.schema[0].type)


def _share(
    exprs: Sequence[ax.Expr],
    schema: Schema,
    outer: tuple[Schema, ...],
    found: dict[int, SQLType],
) -> None:
    """Expressions that must agree on one type (the two sides of a
    comparison, the arguments of a type-unifying scalar, the result
    branches of a CASE): a parameter among them takes the unified static
    type of the others (none, if they are all parameters)."""
    params = [expr for expr in exprs if isinstance(expr, ax.Param)]
    if params:
        shared = SQLType.NULL  # what a parameter itself reports
        for expr in exprs:
            shared = unify_types(shared, ax.static_type(expr, schema, outer), "parameter")
        for param in params:
            _record(found, param, shared)


def _predicate(expr: Optional[ax.Expr], found: dict[int, SQLType]) -> None:
    """*expr* is used as a truth value: a parameter there is BOOL."""
    if isinstance(expr, ax.Param):
        _record(found, expr, SQLType.BOOL)


def _record(found: dict[int, SQLType], param: ax.Param, type_: SQLType) -> None:
    if type_ is not SQLType.NULL and param.index not in found:
        found[param.index] = type_
