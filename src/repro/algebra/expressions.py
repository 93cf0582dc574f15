"""Resolved expression trees used inside algebra operators.

Unlike the AST (:mod:`repro.sql.ast`), every :class:`Column` here refers
to an attribute *name that is unique in the input schema* of the operator
holding the expression — the analyzer qualifies scan outputs as
``alias.column`` so two relations never clash. Correlated references
into an enclosing query are explicit :class:`OuterColumn` nodes with a
scope level, which is what lets the provenance rewriter reason about
sublinks (EDBT'09 companion paper) without re-running name resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..catalog.schema import Schema
from ..datatypes import SQLType, Value, statically_comparable, type_of_value, unify_types
from ..errors import TypeCheckError
from ..scalars import lookup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .nodes import Node


class Expr:
    """Base class for resolved expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Column(Expr):
    """Reference to an attribute of the current operator input by name."""

    name: str

    def __str__(self) -> str:  # pragma: no cover
        return self.name


@dataclass(frozen=True)
class OuterColumn(Expr):
    """Correlated reference to an attribute *level* scopes out (level >= 1)."""

    name: str
    level: int = 1

    def __str__(self) -> str:  # pragma: no cover
        return f"outer({self.level}).{self.name}"


@dataclass(frozen=True)
class Const(Expr):
    """A constant with an explicit static type (NULL constants keep the
    type of the attribute they stand in for — the rewrite rules pad
    non-contributing branches with *typed* NULLs)."""

    value: Value
    type: SQLType

    @staticmethod
    def of(value: Value) -> "Const":
        return Const(value, type_of_value(value))

    @staticmethod
    def null(type_: SQLType = SQLType.NULL) -> "Const":
        return Const(None, type_)

    def __str__(self) -> str:  # pragma: no cover
        return "null" if self.value is None else repr(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A bind-parameter slot, filled in at execution time.

    The slot's value lives in the :class:`~repro.executor.expr_eval.ParamContext`
    shared by every compiled expression of one plan, so a prepared plan
    can be re-executed with fresh values without recompilation."""

    index: int
    name: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover
        return f":{self.name}" if self.name is not None else f"${self.index + 1}"


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation: arithmetic, comparison, AND/OR, LIKE, ``||``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation: ``not`` or ``-``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class IsNullTest(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class DistinctTest(Expr):
    """``IS [NOT] DISTINCT FROM`` — the null-safe comparison the
    aggregation/set-operation rewrite rules join on."""

    left: Expr
    right: Expr
    negated: bool = False  # True = IS NOT DISTINCT FROM


@dataclass(frozen=True)
class CaseExpr(Expr):
    operand: Optional[Expr]
    whens: tuple[tuple[Expr, Expr], ...]
    else_result: Optional[Expr] = None


@dataclass(frozen=True)
class FuncExpr(Expr):
    """Scalar function call (abs, upper, coalesce, ...)."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class CastExpr(Expr):
    operand: Expr
    target: SQLType


@dataclass(frozen=True)
class InListExpr(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class AggExpr(Expr):
    """Aggregate call; only valid in :class:`~repro.algebra.nodes.Aggregate`."""

    func: str  # count, sum, avg, min, max
    arg: Optional[Expr]  # None only for count(*)
    distinct: bool = False

    @property
    def star(self) -> bool:
        return self.arg is None


@dataclass(frozen=True, eq=False)
class SubqueryExpr(Expr):
    """A sublink: scalar / EXISTS / IN / quantified comparison.

    ``plan`` is a full algebra subtree whose :class:`OuterColumn`
    references (at level 1) bind to the schema of the operator holding
    this expression. ``eq=False`` because plans compare by identity.
    """

    kind: str  # "scalar" | "exists" | "in" | "quant"
    plan: "Node"
    operand: Optional[Expr] = None  # for "in" and "quant"
    op: Optional[str] = None  # comparison operator for "quant"
    quantifier: Optional[str] = None  # "any" | "all"
    negated: bool = False


# ---------------------------------------------------------------------------
# Traversal / transformation
# ---------------------------------------------------------------------------

def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and all sub-expressions (not descending into subplans)."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, IsNullTest):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, DistinctTest):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, CaseExpr):
        if expr.operand is not None:
            yield from walk_expr(expr.operand)
        for condition, result in expr.whens:
            yield from walk_expr(condition)
            yield from walk_expr(result)
        if expr.else_result is not None:
            yield from walk_expr(expr.else_result)
    elif isinstance(expr, FuncExpr):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, CastExpr):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, InListExpr):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, AggExpr):
        if expr.arg is not None:
            yield from walk_expr(expr.arg)
    elif isinstance(expr, SubqueryExpr):
        if expr.operand is not None:
            yield from walk_expr(expr.operand)


def map_expr(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up transformation. *fn* returns a replacement or ``None``
    to keep the (already child-rewritten) node.

    Identity-preserving: when neither *fn* nor any recursive call changes
    anything, the original object is returned, so callers can detect
    change with ``is`` (the optimizer's fixpoint loop relies on this).
    """

    def maybe(child: Optional[Expr]) -> Optional[Expr]:
        return map_expr(child, fn) if child is not None else None

    rebuilt: Expr = expr
    if isinstance(expr, BinOp):
        left, right = map_expr(expr.left, fn), map_expr(expr.right, fn)
        if left is not expr.left or right is not expr.right:
            rebuilt = BinOp(expr.op, left, right)
    elif isinstance(expr, UnOp):
        operand = map_expr(expr.operand, fn)
        if operand is not expr.operand:
            rebuilt = UnOp(expr.op, operand)
    elif isinstance(expr, IsNullTest):
        operand = map_expr(expr.operand, fn)
        if operand is not expr.operand:
            rebuilt = IsNullTest(operand, expr.negated)
    elif isinstance(expr, DistinctTest):
        left, right = map_expr(expr.left, fn), map_expr(expr.right, fn)
        if left is not expr.left or right is not expr.right:
            rebuilt = DistinctTest(left, right, expr.negated)
    elif isinstance(expr, CaseExpr):
        operand = maybe(expr.operand)
        whens = tuple((map_expr(c, fn), map_expr(r, fn)) for c, r in expr.whens)
        else_result = maybe(expr.else_result)
        if (
            operand is not expr.operand
            or else_result is not expr.else_result
            or any(c is not oc or r is not orr for (c, r), (oc, orr) in zip(whens, expr.whens))
        ):
            rebuilt = CaseExpr(operand, whens, else_result)
    elif isinstance(expr, FuncExpr):
        args = tuple(map_expr(a, fn) for a in expr.args)
        if any(a is not o for a, o in zip(args, expr.args)):
            rebuilt = FuncExpr(expr.name, args)
    elif isinstance(expr, CastExpr):
        operand = map_expr(expr.operand, fn)
        if operand is not expr.operand:
            rebuilt = CastExpr(operand, expr.target)
    elif isinstance(expr, InListExpr):
        operand = map_expr(expr.operand, fn)
        items = tuple(map_expr(i, fn) for i in expr.items)
        if operand is not expr.operand or any(i is not o for i, o in zip(items, expr.items)):
            rebuilt = InListExpr(operand, items, expr.negated)
    elif isinstance(expr, AggExpr):
        arg = maybe(expr.arg)
        if arg is not expr.arg:
            rebuilt = AggExpr(expr.func, arg, expr.distinct)
    elif isinstance(expr, SubqueryExpr):
        operand = maybe(expr.operand)
        if operand is not expr.operand:
            rebuilt = SubqueryExpr(
                expr.kind, expr.plan, operand, expr.op, expr.quantifier, expr.negated
            )
    replacement = fn(rebuilt)
    return rebuilt if replacement is None else replacement


def rename_columns(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite :class:`Column` names according to *mapping*."""

    def rename(node: Expr) -> Optional[Expr]:
        if isinstance(node, Column) and node.name in mapping:
            return Column(mapping[node.name])
        return None

    return map_expr(expr, rename)


def columns_used(expr: Expr) -> set[str]:
    """Names of level-0 columns referenced by *expr* (subplans included:
    their level-1 outer references bind to this operator's input)."""
    used: set[str] = set()
    for node in walk_expr(expr):
        if isinstance(node, Column):
            used.add(node.name)
        elif isinstance(node, SubqueryExpr):
            used |= _outer_columns_of_plan(node.plan, level=1)
    return used


def plan_is_correlated(plan: "Node", min_level: int = 1) -> bool:
    """Whether *plan* references any enclosing scope at all — at any
    level. A plan with only level-2+ references still varies with its
    (grand)parent rows, so its result must not be cached per-plan."""
    from .tree import walk_tree

    for node in walk_tree(plan):
        for expr in node.expressions():
            for sub in walk_expr(expr):
                if isinstance(sub, OuterColumn) and sub.level >= min_level:
                    return True
                if isinstance(sub, SubqueryExpr) and plan_is_correlated(
                    sub.plan, min_level + 1
                ):
                    return True
    return False


def _outer_columns_of_plan(plan: "Node", level: int) -> set[str]:
    """Names referenced by *plan* as :class:`OuterColumn` at *level*.

    All operators inside one plan share the same correlation level;
    nesting increases only when crossing a :class:`SubqueryExpr`.
    """
    from .tree import walk_tree  # local import to avoid a cycle

    used: set[str] = set()
    for node in walk_tree(plan):
        for expr in node.expressions():
            for sub in walk_expr(expr):
                if isinstance(sub, OuterColumn) and sub.level == level:
                    used.add(sub.name)
                elif isinstance(sub, SubqueryExpr):
                    used |= _outer_columns_of_plan(sub.plan, level + 1)
    return used


# ---------------------------------------------------------------------------
# Static typing of expressions
# ---------------------------------------------------------------------------

_COMPARISONS = {"=", "<>", "<", ">", "<=", ">="}
# Operators whose operands each take one kind: op -> (kind, result type;
# None for arithmetic, whose result unifies its operands).
_OPERAND_RULES = {
    "and": ("boolean", SQLType.BOOL),
    "or": ("boolean", SQLType.BOOL),
    "||": ("text", SQLType.TEXT),
    "like": ("text", SQLType.BOOL),
    "ilike": ("text", SQLType.BOOL),
    **{op: ("numeric", None) for op in ("+", "-", "*", "/", "%")},
}
_KINDS = {
    "boolean": (SQLType.BOOL,),
    "text": (SQLType.TEXT,),
    "numeric": (SQLType.INT, SQLType.FLOAT),
}


def require_operand(type_: SQLType, kind: str, context: str) -> None:
    """An operand of *context* must be of *kind*; NULL (a NULL literal,
    or a parameter, whose value is checked at bind) passes."""
    if type_ is not SQLType.NULL and type_ not in _KINDS[kind]:
        raise TypeCheckError(f"argument of {context} must be {kind}, not {type_}")


def _require_comparable(a: SQLType, b: SQLType, context: str) -> None:
    if not statically_comparable(a, b):
        raise TypeCheckError(f"cannot compare {a} with {b} in {context}")


def agg_result_type(func: str, arg_type: SQLType | None) -> SQLType:
    """Static result type of an aggregate."""
    if func == "count":
        return SQLType.INT
    if arg_type is None:
        raise TypeCheckError(f"aggregate {func} requires an argument")
    if func == "avg":
        return SQLType.FLOAT
    if func == "sum":
        return SQLType.FLOAT if arg_type is SQLType.FLOAT else SQLType.INT
    if func in ("min", "max"):
        return arg_type
    raise TypeCheckError(f"unknown aggregate {func!r}")


def infer_type(expr: Expr, schema: Schema, outer_schemas: tuple[Schema, ...] = ()) -> SQLType:
    """Static type of *expr* against *schema* (and enclosing scopes for
    :class:`OuterColumn` references). Checks every operand on the way,
    as PostgreSQL's parse analysis does: an ill-typed operator raises
    :class:`TypeCheckError` before any row is read, whatever the plan
    and the data. Each rule is the static form of a per-row check."""
    if isinstance(expr, Column):
        return schema.attribute(expr.name).type
    if isinstance(expr, OuterColumn):
        if expr.level <= len(outer_schemas):
            return outer_schemas[expr.level - 1].attribute(expr.name).type
        return SQLType.NULL
    if isinstance(expr, Const):
        return expr.type
    if isinstance(expr, Param):
        # A parameter's type is unknown until bind time; NULL unifies
        # with anything (the analyzer records expected types separately,
        # see repro.analyzer.params).
        return SQLType.NULL
    if isinstance(expr, BinOp):
        lt = infer_type(expr.left, schema, outer_schemas)
        rt = infer_type(expr.right, schema, outer_schemas)
        op = expr.op
        if op in _COMPARISONS:
            _require_comparable(lt, rt, f"operator {op}")
            return SQLType.BOOL
        if op not in _OPERAND_RULES:
            raise TypeCheckError(f"unknown operator {op!r}")
        kind, result = _OPERAND_RULES[op]
        context = op.upper() if kind == "boolean" else f"operator {op}"
        require_operand(lt, kind, context)
        require_operand(rt, kind, context)
        if result is not None:
            return result
        if op == "/" and SQLType.FLOAT in (lt, rt):
            return SQLType.FLOAT
        return unify_types(lt, rt, context)
    if isinstance(expr, UnOp):
        operand = infer_type(expr.operand, schema, outer_schemas)
        if expr.op == "not":
            require_operand(operand, "boolean", "NOT")
            return SQLType.BOOL
        require_operand(operand, "numeric", "unary minus")
        return operand
    if isinstance(expr, IsNullTest):
        infer_type(expr.operand, schema, outer_schemas)
        return SQLType.BOOL
    if isinstance(expr, DistinctTest):
        _require_comparable(
            infer_type(expr.left, schema, outer_schemas),
            infer_type(expr.right, schema, outer_schemas),
            "IS DISTINCT FROM",
        )
        return SQLType.BOOL
    if isinstance(expr, InListExpr):
        operand = infer_type(expr.operand, schema, outer_schemas)
        for item in expr.items:
            _require_comparable(operand, infer_type(item, schema, outer_schemas), "IN")
        return SQLType.BOOL
    if isinstance(expr, CaseExpr):
        operand = (
            infer_type(expr.operand, schema, outer_schemas)
            if expr.operand is not None
            else None
        )
        result = SQLType.NULL
        for condition, branch in expr.whens:
            when = infer_type(condition, schema, outer_schemas)
            if operand is None:
                require_operand(when, "boolean", "CASE WHEN")
            else:
                _require_comparable(operand, when, "CASE")
            result = unify_types(result, infer_type(branch, schema, outer_schemas), "CASE")
        if expr.else_result is not None:
            result = unify_types(result, infer_type(expr.else_result, schema, outer_schemas), "CASE")
        return result
    if isinstance(expr, FuncExpr):
        types = [infer_type(a, schema, outer_schemas) for a in expr.args]
        return lookup(expr.name).result_type(types)
    if isinstance(expr, CastExpr):
        infer_type(expr.operand, schema, outer_schemas)
        return expr.target
    if isinstance(expr, AggExpr):
        arg_type = infer_type(expr.arg, schema, outer_schemas) if expr.arg is not None else None
        return agg_result_type(expr.func, arg_type)
    if isinstance(expr, SubqueryExpr):
        if expr.kind == "scalar":
            return expr.plan.schema[0].type
        if expr.operand is not None:  # IN, or a quantified comparison
            _require_comparable(
                infer_type(expr.operand, schema, outer_schemas),
                expr.plan.schema[0].type,
                "IN" if expr.kind == "in" else f"{expr.op} {expr.quantifier.upper()}",
            )
        return SQLType.BOOL
    raise TypeCheckError(f"cannot type expression {type(expr).__name__}")


def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Split a condition on AND (None -> empty list)."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def combine_conjuncts(parts: list[Expr]) -> Optional[Expr]:
    """Rebuild an AND chain; empty list -> None (always true)."""
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = BinOp("and", result, part)
    return result
