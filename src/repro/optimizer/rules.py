"""Logical rewrite rules.

Each rule is a function ``rule(node) -> Optional[Node]`` returning a
replacement or ``None``. The driver (:mod:`repro.optimizer.optimizer`)
applies them bottom-up to a fixpoint. All rules preserve query results
— property-tested in ``tests/optimizer/test_optimizer_semantics.py``.
"""

from __future__ import annotations

from typing import Optional

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..datatypes import SQLType, arith, eq, ge, gt, le, lt, ne, tvl_and, tvl_not, tvl_or


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold_constants(expr: ax.Expr) -> ax.Expr:
    """Evaluate constant sub-expressions at plan time.

    Only side-effect-free, always-safe folds are applied; anything that
    could raise at runtime (division by zero, casts) is left alone so
    runtime semantics do not change. Operand types need no guard: the
    analyzer has checked them, so no fold below can raise.
    """

    def fold(node: ax.Expr) -> Optional[ax.Expr]:
        if isinstance(node, ax.BinOp):
            left, right = node.left, node.right
            if isinstance(left, ax.Const) and isinstance(right, ax.Const):
                return _try_fold_binop(node.op, left, right)
            # Boolean short-circuits with one constant side.
            if node.op == "and":
                for side, other in ((left, right), (right, left)):
                    if isinstance(side, ax.Const):
                        if side.value is False:
                            return ax.Const(False, SQLType.BOOL)
                        if side.value is True:
                            return other
            if node.op == "or":
                for side, other in ((left, right), (right, left)):
                    if isinstance(side, ax.Const):
                        if side.value is True:
                            return ax.Const(True, SQLType.BOOL)
                        if side.value is False:
                            return other
            return None
        if isinstance(node, ax.UnOp) and isinstance(node.operand, ax.Const):
            value = node.operand.value
            if node.op == "not":
                return ax.Const(tvl_not(value), SQLType.BOOL)
            return ax.Const(None if value is None else -value, node.operand.type)
        if isinstance(node, ax.IsNullTest) and isinstance(node.operand, ax.Const):
            is_null = node.operand.value is None
            return ax.Const(is_null != node.negated, SQLType.BOOL)
        return None

    return ax.map_expr(expr, fold)


_FOLDABLE = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _try_fold_binop(op: str, left: ax.Const, right: ax.Const) -> Optional[ax.Expr]:
    a, b = left.value, right.value
    if op in ("and", "or"):
        return ax.Const(tvl_and(a, b) if op == "and" else tvl_or(a, b), SQLType.BOOL)
    if op in _FOLDABLE:
        return ax.Const(_FOLDABLE[op](a, b), SQLType.BOOL)
    if op in ("+", "-", "*", "||"):
        return ax.Const.of(arith(op, a, b))
    # '/' and '%' can raise division-by-zero: leave them for runtime.
    return None


def _has_subquery(expr: ax.Expr) -> bool:
    return any(isinstance(sub, ax.SubqueryExpr) for sub in ax.walk_expr(expr))


# Expression shapes that provably cannot raise at runtime: plain values,
# null tests, and comparisons/logic, whose operand types ``infer_type``
# checks at analysis and whose bind values are checked at bind (``? = ?``
# is the one pair neither sees). Arithmetic (division by zero), casts,
# functions, LIKE, CASE and sublinks (multi-row scalar results) stay out.
# Shared by every transformation that would otherwise skip or relocate an
# evaluation — the engine's contract is identical *errors*, not just
# identical rows, across optimizer modes and engines.
_SAFE_BINOPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "and", "or"})
_SAFE_AGGS = frozenset({"count", "min", "max"})  # sum/avg raise on non-numerics


def expr_cannot_raise(expr: ax.Expr) -> bool:
    for sub in ax.walk_expr(expr):
        if isinstance(
            sub, (ax.Column, ax.Const, ax.Param, ax.IsNullTest, ax.DistinctTest)
        ):
            continue
        if isinstance(sub, ax.BinOp) and sub.op in _SAFE_BINOPS:
            continue
        if isinstance(sub, ax.UnOp) and sub.op == "not":
            continue
        if isinstance(sub, ax.AggExpr) and sub.func in _SAFE_AGGS:
            continue
        return False
    return True


def plan_cannot_raise(node: an.Node) -> bool:
    """Whether evaluating *node* (fully, or not at all) provably cannot
    raise a runtime error. Required before a transformation changes how
    much of a subtree executes — skipping it (join-back elimination) or
    eagerly materializing it (build-side selection under LIMIT)."""
    from ..algebra.tree import walk_tree

    for op in walk_tree(node):
        if isinstance(op, an.Limit):
            for bound in (op.limit, op.offset):
                if bound is None:
                    continue
                if not (
                    isinstance(bound, ax.Const)
                    and isinstance(bound.value, int)
                    and not isinstance(bound.value, bool)
                    and bound.value >= 0
                ):
                    return False  # a negative/NULL/param bound raises lazily
            continue
        for expr in op.expressions():
            if not expr_cannot_raise(expr):
                return False
    return True


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def rule_fold_expressions(node: an.Node) -> Optional[an.Node]:
    """Apply constant folding to every expression of the node."""
    if isinstance(node, an.Select):
        folded = fold_constants(node.condition)
        if folded is not node.condition:
            return an.Select(node.child, folded)
    elif isinstance(node, an.Project):
        items = [(name, fold_constants(e)) for name, e in node.items]
        if any(new is not old for (_, new), (_, old) in zip(items, node.items)):
            return an.Project(node.child, items)
    elif isinstance(node, an.Join) and node.condition is not None:
        folded = fold_constants(node.condition)
        if folded is not node.condition:
            return an.Join(node.left, node.right, node.kind, folded)
    return None


def rule_remove_trivial_select(node: an.Node) -> Optional[an.Node]:
    """σ[true](T) -> T."""
    if isinstance(node, an.Select) and isinstance(node.condition, ax.Const):
        if node.condition.value is True:
            return node.child
    return None


def rule_merge_selects(node: an.Node) -> Optional[an.Node]:
    """σ[a](σ[b](T)) -> σ[a AND b](T)."""
    if isinstance(node, an.Select) and isinstance(node.child, an.Select):
        inner = node.child
        return an.Select(inner.child, ax.BinOp("and", inner.condition, node.condition))
    return None


def rule_select_into_join(node: an.Node) -> Optional[an.Node]:
    """Push σ conjuncts into / below joins.

    * conjuncts referencing only the left (right) input move below the
      join when that side is not the null-padded side of an outer join;
    * for inner/cross joins, conjuncts spanning both sides merge into the
      join condition (turning cross products into real joins, which the
      planner can then execute as hash joins — essential for provenance
      queries whose rewrite rules produce join-backs).
    """
    if not (isinstance(node, an.Select) and isinstance(node.child, an.Join)):
        return None
    join = node.child
    left_names = {a.name.lower() for a in join.left.schema}
    right_names = {a.name.lower() for a in join.right.schema}

    push_left: list[ax.Expr] = []
    push_right: list[ax.Expr] = []
    into_condition: list[ax.Expr] = []
    keep: list[ax.Expr] = []

    # A conjunct may move below an outer join only on the preserved side;
    # pushing into the null-padded side would change padding behaviour.
    can_push_left = join.kind in ("inner", "cross", "left")
    can_push_right = join.kind in ("inner", "cross", "right")

    for conjunct in ax.conjuncts(node.condition):
        used = ax.columns_used(conjunct)
        used_lower = {u.lower() for u in used}
        if used_lower <= left_names and can_push_left:
            push_left.append(conjunct)
        elif used_lower <= right_names and can_push_right:
            push_right.append(conjunct)
        elif join.kind in ("inner", "cross"):
            into_condition.append(conjunct)
        else:
            keep.append(conjunct)

    if not (push_left or push_right or into_condition):
        return None

    left = join.left
    right = join.right
    if push_left:
        left = an.Select(left, ax.combine_conjuncts(push_left))  # type: ignore[arg-type]
    if push_right:
        right = an.Select(right, ax.combine_conjuncts(push_right))  # type: ignore[arg-type]

    kind = join.kind
    condition = join.condition
    if into_condition:
        merged = ax.combine_conjuncts(
            ([condition] if condition is not None else []) + into_condition
        )
        kind = "inner" if kind == "cross" else kind
        condition = merged

    new_join = an.Join(left, right, kind, condition)
    remaining = ax.combine_conjuncts(keep)
    return an.Select(new_join, remaining) if remaining is not None else new_join


def rule_select_through_project(node: an.Node) -> Optional[an.Node]:
    """σ[c](Π[items](T)) -> Π[items](σ[c'](T)) when every column the
    condition uses maps to a plain column or constant in the projection
    (substitution cannot duplicate expensive or non-deterministic work)."""
    if not (isinstance(node, an.Select) and isinstance(node.child, an.Project)):
        return None
    if _has_subquery(node.condition):
        # A sublink's correlated references bind to this operator's input
        # schema; moving the condition would change that frame.
        return None
    project = node.child
    mapping: dict[str, ax.Expr] = {}
    for name, expr in project.items:
        if isinstance(expr, (ax.Column, ax.Const)):
            mapping[name] = expr
    used = ax.columns_used(node.condition)
    if not all(u in mapping for u in used):
        return None

    def substitute(sub: ax.Expr) -> Optional[ax.Expr]:
        if isinstance(sub, ax.Column) and sub.name in mapping:
            return mapping[sub.name]
        return None

    pushed = ax.map_expr(node.condition, substitute)
    return an.Project(an.Select(project.child, pushed), project.items)


def rule_select_through_distinct(node: an.Node) -> Optional[an.Node]:
    """σ(δ(T)) -> δ(σ(T))."""
    if isinstance(node, an.Select) and isinstance(node.child, an.Distinct):
        return an.Distinct(an.Select(node.child.child, node.condition))
    return None


def rule_select_through_union(node: an.Node) -> Optional[an.Node]:
    """σ(T1 ∪ T2) -> σ(T1) ∪ σ(T2), renaming columns positionally."""
    if not (isinstance(node, an.Select) and isinstance(node.child, an.SetOpNode)):
        return None
    if _has_subquery(node.condition):
        return None
    setop = node.child
    if setop.kind != "union":
        return None

    def renamed_condition(target: an.Node) -> ax.Expr:
        mapping = {
            out.name: ax.Column(inner.name)
            for out, inner in zip(setop.schema, target.schema)
        }

        def substitute(sub: ax.Expr) -> Optional[ax.Expr]:
            if isinstance(sub, ax.Column) and sub.name in mapping:
                return mapping[sub.name]
            return None

        return ax.map_expr(node.condition, substitute)

    left = an.Select(setop.left, renamed_condition(setop.left))
    right = an.Select(setop.right, renamed_condition(setop.right))
    return an.SetOpNode(left, right, setop.kind, setop.all)


def rule_collapse_projects(node: an.Node) -> Optional[an.Node]:
    """Π[outer](Π[inner](T)) -> Π[merged](T) when the outer projection
    only re-references inner columns and constants (no duplication of
    computed expressions), and no dropped inner item could have raised
    at runtime (merging silently discards unreferenced inner items)."""
    if not (isinstance(node, an.Project) and isinstance(node.child, an.Project)):
        return None
    inner = node.child
    inner_map = dict(inner.items)

    referenced: set[str] = set()
    for _, expr in node.items:
        referenced |= ax.columns_used(expr)
    for name, expr in inner.items:
        if name not in referenced and not expr_cannot_raise(expr):
            return None

    merged: list[tuple[str, ax.Expr]] = []
    for name, expr in node.items:
        simple = True
        for sub in ax.walk_expr(expr):
            if isinstance(sub, ax.Column):
                target = inner_map.get(sub.name)
                if target is None or not isinstance(target, (ax.Column, ax.Const)):
                    simple = False
                    break
            elif isinstance(sub, ax.SubqueryExpr):
                simple = False
                break
        if not simple:
            return None

        def substitute(sub: ax.Expr) -> Optional[ax.Expr]:
            if isinstance(sub, ax.Column):
                return inner_map[sub.name]
            return None

        merged.append((name, ax.map_expr(expr, substitute)))
    return an.Project(inner.child, merged)


def rule_remove_identity_project(node: an.Node) -> Optional[an.Node]:
    """Π that reproduces its child's schema exactly (names and order) is
    a no-op."""
    if not isinstance(node, an.Project):
        return None
    child_schema = node.child.schema
    if len(node.items) != len(child_schema):
        return None
    for (name, expr), attribute in zip(node.items, child_schema):
        if not (isinstance(expr, ax.Column) and expr.name == attribute.name == name):
            return None
    return node.child


def rule_distinct_over_distinct(node: an.Node) -> Optional[an.Node]:
    """δ(δ(T)) -> δ(T)."""
    if isinstance(node, an.Distinct) and isinstance(node.child, an.Distinct):
        return node.child
    return None


DEFAULT_RULES = (
    rule_fold_expressions,
    rule_remove_trivial_select,
    rule_merge_selects,
    rule_select_into_join,
    rule_select_through_project,
    rule_select_through_distinct,
    rule_select_through_union,
    rule_collapse_projects,
    rule_remove_identity_project,
    rule_distinct_over_distinct,
)
