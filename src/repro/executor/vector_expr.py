"""Column-at-a-time expression compilation for the vectorized executor.

A vector expression is compiled into a callable ``(batch, env) ->
column`` that produces one output value per batch row — either a packed
:class:`~repro.executor.columns.TypedColumn` or a plain list. The
compiler mirrors :class:`~repro.executor.expr_eval.ExprCompiler`
semantics exactly — it reuses the same scalar kernels
(:func:`~repro.datatypes.eq`, :func:`~repro.datatypes.arith`, the
:mod:`repro.scalars` table, three-valued logic) — but applies them over whole
columns, and dispatches on the *runtime* column representation: when an
operand arrives as a numpy-backed typed buffer the hot kernels
(comparison-vs-constant filters, numeric arithmetic, AND/OR masks,
IS NULL) run as single bulk array operations with exactness guards (see
:mod:`~repro.executor.columns`); when it arrives as an object column —
because the static type had no packed form, or a value escaped the
typed domain — the same expression runs the per-element object kernel.
Both paths are bit-identical; the typed path is just faster.

Expressions whose row-engine evaluation is *lazy* (CASE branches, IN
list items, sublinks) or that reference enclosing rows are not
vectorized: evaluating all branches eagerly could raise errors the row
engine never would. Those subtrees fall back to the row compiler and are
evaluated tuple-at-a-time within the batch — this is also what runs
correlated sublinks through the row engine per-subtree.
"""

from __future__ import annotations

from typing import Callable

from ..algebra import expressions as ax
from ..catalog.schema import Schema
from ..datatypes import (
    SQLType,
    Value,
    arith,
    cast_value,
    not_distinct,
    negate,
    tvl_and,
    tvl_not,
    tvl_or,
)
from ..errors import ExecutionError, PlanError
from ..scalars import like_match, like_matcher, lookup
from .batch import Batch
from .columns import (
    AnyColumn,
    TypedColumn,
    column_values,
    vec_and,
    vec_arith,
    vec_cmp,
    vec_cmp_const,
    vec_isnull,
    vec_neg,
    vec_not,
    vec_or,
)
from .expr_eval import _COMPARATORS, _as_bool, Env, ExprCompiler

# A compiled vector expression: (batch, env) -> one column per call.
VectorExpr = Callable[[Batch, Env], AnyColumn]

# Static types for which the native Python operator agrees with SQL
# comparison/arithmetic semantics on non-NULL values.
_NUMERIC = (SQLType.INT, SQLType.FLOAT)

# Sentinel distinguishing "no constant operand" from a None constant.
_NO_CONST = object()

# Trusted static type of a compared operand -> the exact runtime types of
# a constant for which Python's operator is the row engine's comparison
# (bool is excluded: it is an int to Python but not comparable to one).
_EXACT_TYPES = {
    SQLType.INT: (int, float),
    SQLType.FLOAT: (int, float),
    SQLType.TEXT: (str,),
}

# ``a <op> b`` is ``b <flipped op> a``.
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

# Native comparison of a value list against a constant, NULL-propagating.
_CONST_KERNELS = {
    "=": lambda col, c: [None if v is None else v == c for v in col],
    "<>": lambda col, c: [None if v is None else v != c for v in col],
    "<": lambda col, c: [None if v is None else v < c for v in col],
    "<=": lambda col, c: [None if v is None else v <= c for v in col],
    ">": lambda col, c: [None if v is None else v > c for v in col],
    ">=": lambda col, c: [None if v is None else v >= c for v in col],
}

# Native comparison of two values, NULL-propagating.
_PAIR_KERNELS = {
    "=": lambda a, b: None if a is None or b is None else a == b,
    "<>": lambda a, b: None if a is None or b is None else a != b,
    "<": lambda a, b: None if a is None or b is None else a < b,
    "<=": lambda a, b: None if a is None or b is None else a <= b,
    ">": lambda a, b: None if a is None or b is None else a > b,
    ">=": lambda a, b: None if a is None or b is None else a >= b,
}


def _is_constant(expr: ax.Expr) -> bool:
    """A literal or a bind parameter: one value for a whole execution."""
    return isinstance(expr, (ax.Const, ax.Param))


def _scalar_const(expr: ax.Expr):
    """The non-NULL numeric constant of *expr*, or ``_NO_CONST`` —
    constants feed the bulk kernels as broadcast scalars."""
    if (
        isinstance(expr, ax.Const)
        and expr.value is not None
        and not isinstance(expr.value, bool)
        and isinstance(expr.value, (int, float))
    ):
        return expr.value
    return _NO_CONST


class VectorExprCompiler:
    """Compiles resolved expressions into column-level evaluators.

    ``row_compiler`` must be an :class:`ExprCompiler` over the *same*
    schema, outer scopes and parameter context; it serves the row-wise
    fallback path (lazy constructs, sublinks) so both evaluation modes
    share one set of subplan/parameter mechanics.
    """

    def __init__(self, schema: Schema, row_compiler: ExprCompiler):
        self.schema = schema
        self.positions = {a.name.lower(): i for i, a in enumerate(schema)}
        self.row_compiler = row_compiler
        # Set once any subtree compiles to the row-wise fallback, which
        # reads whole rows rather than the columns it names.
        self.falls_back = False

    # ------------------------------------------------------------------
    def compile(self, expr: ax.Expr) -> VectorExpr:
        if isinstance(expr, ax.Column):
            try:
                position = self.positions[expr.name.lower()]
            except KeyError:
                raise PlanError(
                    f"column {expr.name!r} not in schema ({', '.join(self.schema.names)})"
                ) from None
            return lambda batch, env, p=position: batch.columns[p]

        if isinstance(expr, ax.Const):
            value = expr.value
            return lambda batch, env: [value] * batch.length

        if isinstance(expr, ax.Param):
            read = self._param_reader(expr)
            return lambda batch, env: [read()] * batch.length

        if isinstance(expr, ax.BinOp):
            return self._compile_binop(expr)

        if isinstance(expr, ax.UnOp):
            operand = self.compile(expr.operand)
            if expr.op == "not":

                def run_not(batch: Batch, env: Env) -> AnyColumn:
                    column = operand(batch, env)
                    bulk = vec_not(column)
                    if bulk is not None:
                        return bulk
                    return [tvl_not(_as_bool(v)) for v in column_values(column)]

                return run_not
            if expr.op == "-":

                def run_neg(batch: Batch, env: Env) -> AnyColumn:
                    column = operand(batch, env)
                    bulk = vec_neg(column)
                    if bulk is not None:
                        return bulk
                    return [negate(v) for v in column_values(column)]

                return run_neg
            raise PlanError(f"unknown unary operator {expr.op!r}")

        if isinstance(expr, ax.IsNullTest):
            operand = self.compile(expr.operand)
            negated = expr.negated

            def run_isnull(batch: Batch, env: Env) -> AnyColumn:
                column = operand(batch, env)
                bulk = vec_isnull(column, negated)
                if bulk is not None:
                    return bulk
                values = column_values(column)
                if negated:
                    return [v is not None for v in values]
                return [v is None for v in values]

            return run_isnull

        if isinstance(expr, ax.DistinctTest):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            if expr.negated:  # IS NOT DISTINCT FROM
                return lambda batch, env: [
                    not_distinct(a, b)
                    for a, b in zip(
                        column_values(left(batch, env)),
                        column_values(right(batch, env)),
                    )
                ]
            return lambda batch, env: [
                not not_distinct(a, b)
                for a, b in zip(
                    column_values(left(batch, env)),
                    column_values(right(batch, env)),
                )
            ]

        if isinstance(expr, ax.FuncExpr):
            return self._compile_func(expr)

        if isinstance(expr, ax.CastExpr):
            operand = self.compile(expr.operand)
            target = expr.target
            return lambda batch, env: [
                cast_value(v, target) for v in column_values(operand(batch, env))
            ]

        if isinstance(expr, ax.AggExpr):
            raise PlanError("aggregate expression outside an Aggregate operator")

        # Lazily evaluated constructs (CASE, IN lists, sublinks) and
        # correlated references: evaluate tuple-at-a-time through the
        # row compiler so short-circuit and subplan semantics match the
        # row engine exactly.
        return self._fallback(expr)

    # ------------------------------------------------------------------
    def _fallback(self, expr: ax.Expr) -> VectorExpr:
        self.falls_back = True
        scalar = self.row_compiler.compile(expr)

        def run(batch: Batch, env: Env) -> AnyColumn:
            return [scalar(row, env) for row in batch.iter_rows()]

        return run

    def _param_reader(self, expr: ax.Param) -> Callable[[], Value]:
        """The bound value of parameter *expr* — read at run time, so a
        compiled expression serves every execution of its plan."""
        context = self.row_compiler.params
        index = expr.index
        label = f":{expr.name}" if expr.name is not None else f"${expr.index + 1}"

        def read() -> Value:
            if index >= len(context.values):
                raise ExecutionError(
                    f"parameter {label} has no bound value "
                    f"({len(context.values)} bound)"
                )
            return context.values[index]

        return read

    def _type(self, expr: ax.Expr) -> SQLType:
        """Static type of *expr* when every runtime value provably
        conforms to it, NULL (unknown) otherwise. An untyped leaf — a
        bind parameter, a column projecting one through a derived table,
        a sublink — carries values the analyzer never saw, and the
        unifying rules of functions and CASE hide it (``coalesce(?, 1)``
        types as INT, also one query level up), so only operators and
        casts over typed leaves are trusted."""
        outer = self.row_compiler.outer_schemas
        for part in ax.walk_expr(expr):
            if isinstance(part, (ax.FuncExpr, ax.CaseExpr, ax.SubqueryExpr)) or (
                isinstance(part, (ax.Column, ax.OuterColumn, ax.Param))
                and ax.infer_type(part, self.schema, outer) is SQLType.NULL
            ):
                return SQLType.NULL
        return ax.infer_type(expr, self.schema, outer)

    def _static_boolean(self, expr: ax.Expr) -> bool:
        """Whether *expr* can only evaluate to True/False/None — lets
        AND/OR skip the per-value boolean type check."""
        if isinstance(expr, ax.BinOp):
            if expr.op in _COMPARATORS or expr.op in ("and", "or", "like", "ilike"):
                return True
            return False
        if isinstance(expr, ax.UnOp) and expr.op == "not":
            return self._static_boolean(expr.operand)
        if isinstance(expr, (ax.IsNullTest, ax.DistinctTest)):
            return True
        if isinstance(expr, ax.Const):
            return expr.type is SQLType.BOOL
        return False

    def _native_ok(self, left: ax.Expr, right: ax.Expr) -> bool:
        """Whether Python's operators match SQL comparison/arithmetic for
        these operands: both statically numeric, or both text."""
        lt, rt = self._type(left), self._type(right)
        if lt in _NUMERIC and rt in _NUMERIC:
            return True
        return lt is SQLType.TEXT and rt is SQLType.TEXT

    # ------------------------------------------------------------------
    def _compile_binop(self, expr: ax.BinOp) -> VectorExpr:
        op = expr.op
        if op in ("and", "or"):
            left, right = self.compile(expr.left), self.compile(expr.right)
            bulk = vec_and if op == "and" else vec_or
            if self._static_boolean(expr.left) and self._static_boolean(expr.right):
                if op == "and":
                    # Inline 3VL kernel: false dominates unknown.
                    def inline(a_vals, b_vals):
                        return [
                            False
                            if (a is False or b is False)
                            else (None if (a is None or b is None) else True)
                            for a, b in zip(a_vals, b_vals)
                        ]

                else:
                    # Inline 3VL kernel: true dominates unknown.
                    def inline(a_vals, b_vals):
                        return [
                            True
                            if (a is True or b is True)
                            else (None if (a is None or b is None) else False)
                            for a, b in zip(a_vals, b_vals)
                        ]

            else:
                checked = tvl_and if op == "and" else tvl_or

                def inline(a_vals, b_vals, _k=checked):
                    return [
                        _k(_as_bool(a), _as_bool(b))
                        for a, b in zip(a_vals, b_vals)
                    ]

            def run_logic(batch: Batch, env: Env) -> AnyColumn:
                a = left(batch, env)
                b = right(batch, env)
                # A packed boolean column guarantees bool/None contents,
                # so the bulk kernel is valid regardless of static types.
                out = bulk(a, b)
                if out is not None:
                    return out
                return inline(column_values(a), column_values(b))

            return run_logic

        if op in _COMPARATORS:
            return self._compile_comparison(expr)

        if op in ("+", "-", "*", "/", "%", "||"):
            return self._compile_arith(expr)

        if op in ("like", "ilike"):
            return self._compile_like(expr)

        raise PlanError(f"unknown binary operator {op!r}")

    def _compile_comparison(self, expr: ax.BinOp) -> VectorExpr:
        comparator = _COMPARATORS[expr.op]
        op = expr.op

        # column <op> constant and constant <op> column — the hot filter
        # shapes. A bind parameter is a constant for one execution.
        if _is_constant(expr.right) and not _is_constant(expr.left):
            return self._compile_const_comparison(expr, const_on_left=False)
        if _is_constant(expr.left) and not _is_constant(expr.right):
            return self._compile_const_comparison(expr, const_on_left=True)

        left, right = self.compile(expr.left), self.compile(expr.right)
        if self._native_ok(expr.left, expr.right):
            kernel2 = _PAIR_KERNELS[op]

            def run_native(batch: Batch, env: Env) -> AnyColumn:
                a = left(batch, env)
                b = right(batch, env)
                bulk = vec_cmp(a, b, op)
                if bulk is not None:
                    return bulk
                return [
                    kernel2(x, y)
                    for x, y in zip(column_values(a), column_values(b))
                ]

            return run_native
        return lambda batch, env: [
            comparator(a, b)
            for a, b in zip(
                column_values(left(batch, env)), column_values(right(batch, env))
            )
        ]

    def _compile_const_comparison(
        self, expr: ax.BinOp, const_on_left: bool
    ) -> VectorExpr:
        """``operand <op> constant`` (a constant on the left flips the
        operator). The constant's value is read once per batch, and it
        takes the native path only when its exact runtime type makes
        Python's operator equal to the row engine's comparison for the
        operand's trusted static type; anything else (``bool``, a type
        mismatch, NULL) runs the row engine's comparator in the written
        operand order, so errors are the row engine's too."""
        comparator = _COMPARATORS[expr.op]
        if const_on_left:
            operand_expr, const_expr, op = expr.right, expr.left, _FLIPPED[expr.op]
        else:
            operand_expr, const_expr, op = expr.left, expr.right, expr.op
        operand = self.compile(operand_expr)
        if isinstance(const_expr, ax.Const):
            value = const_expr.value
            read = lambda: value  # noqa: E731
        else:
            read = self._param_reader(const_expr)
        exact = _EXACT_TYPES.get(self._type(operand_expr), ())
        kernel = _CONST_KERNELS[op]

        def run_const(batch: Batch, env: Env) -> AnyColumn:
            column = operand(batch, env)
            constant = read()
            if constant is None:
                return [None] * batch.length
            if type(constant) in exact:
                bulk = vec_cmp_const(column, op, constant)
                if bulk is not None:
                    return bulk
                return kernel(column_values(column), constant)
            if const_on_left:
                return [comparator(constant, v) for v in column_values(column)]
            return [comparator(v, constant) for v in column_values(column)]

        return run_const

    def _compile_arith(self, expr: ax.BinOp) -> VectorExpr:
        op = expr.op
        left, right = self.compile(expr.left), self.compile(expr.right)
        lt, rt = self._type(expr.left), self._type(expr.right)
        numeric = lt in _NUMERIC and rt in _NUMERIC
        if op in ("+", "-", "*", "/", "%") and numeric:
            # Constants broadcast into the bulk kernels as scalars.
            left_const = _scalar_const(expr.left)
            right_const = _scalar_const(expr.right)
            if op == "+":
                scalar_kernel = lambda a, b: None if a is None or b is None else a + b
            elif op == "-":
                scalar_kernel = lambda a, b: None if a is None or b is None else a - b
            elif op == "*":
                scalar_kernel = lambda a, b: None if a is None or b is None else a * b
            else:
                # "/" and "%" keep the exact kernel outside the bulk
                # path: SQL integer-division and division-by-zero
                # semantics differ from Python's.
                scalar_kernel = lambda a, b, _op=op: arith(_op, a, b)

            def run_arith(batch: Batch, env: Env) -> AnyColumn:
                a = left(batch, env) if left_const is _NO_CONST else left_const
                b = right(batch, env) if right_const is _NO_CONST else right_const
                bulk = vec_arith(op, a, b, batch.length)
                if bulk is not None:
                    return bulk
                a_vals = (
                    column_values(a)
                    if left_const is _NO_CONST
                    else [left_const] * batch.length
                )
                b_vals = (
                    column_values(b)
                    if right_const is _NO_CONST
                    else [right_const] * batch.length
                )
                return [scalar_kernel(x, y) for x, y in zip(a_vals, b_vals)]

            return run_arith
        return lambda batch, env: [
            arith(op, a, b)
            for a, b in zip(
                column_values(left(batch, env)), column_values(right(batch, env))
            )
        ]

    def _compile_like(self, expr: ax.BinOp) -> VectorExpr:
        case_insensitive = expr.op == "ilike"
        left = self.compile(expr.left)
        if isinstance(expr.right, ax.Const) and isinstance(expr.right.value, str):
            # A constant pattern compiles once, here; text values match
            # inline, NULLs and mistyped values take the one full body.
            pattern = expr.right.value
            matcher = like_matcher(pattern, case_insensitive)
            return lambda batch, env: [
                (matcher(v.lower() if case_insensitive else v) is not None)
                if isinstance(v, str)
                else like_match(v, pattern, case_insensitive)
                for v in column_values(left(batch, env))
            ]
        right = self.compile(expr.right)
        return lambda batch, env: [
            like_match(value, pattern, case_insensitive)
            for value, pattern in zip(
                column_values(left(batch, env)), column_values(right(batch, env))
            )
        ]

    # ------------------------------------------------------------------
    def _compile_func(self, expr: ax.FuncExpr) -> VectorExpr:
        args = [self.compile(a) for a in expr.args]
        impl = lookup(expr.name).kernel

        if not args:
            return lambda batch, env: [impl([]) for _ in range(batch.length)]
        if len(args) == 1:
            arg = args[0]
            return lambda batch, env: [
                impl([v]) for v in column_values(arg(batch, env))
            ]

        def run(batch: Batch, env: Env) -> list[Value]:
            columns = [column_values(a(batch, env)) for a in args]
            return [impl(list(values)) for values in zip(*columns)]

        return run
