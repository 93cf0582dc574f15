"""Expression compilation and evaluation.

Expressions are compiled once per plan into Python closures over column
positions, then evaluated per row. Correlated sublinks receive an
*environment*: a chain of (name -> position, row) frames, innermost
first, that :class:`~repro.algebra.expressions.OuterColumn` references
index into. Uncorrelated subplans are executed once and cached.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from ..algebra import expressions as ax
from ..catalog.schema import Schema
from ..datatypes import (
    Value,
    arith,
    cast_value,
    compare,
    eq,
    ge,
    gt,
    is_true,
    le,
    lt,
    ne,
    negate,
    not_distinct,
    tvl_and,
    tvl_not,
    tvl_or,
    type_of_value,
    value_identity,
)
from ..errors import ExecutionError, PlanError
from ..scalars import like_match, lookup

Row = tuple[Value, ...]
# Environment frame: name->position mapping plus the current row.
Frame = tuple[dict[str, int], Row]
Env = tuple[Frame, ...]

# A compiled expression: (row, env) -> value.
CompiledExpr = Callable[[Row, Env], Value]


class ParamContext:
    """Per-execution binding environment shared by every compiled
    expression of one plan.

    Compiled :class:`~repro.algebra.expressions.Param` references read
    their value from here at evaluation time, which is what lets a
    prepared physical plan be re-executed with fresh parameter values and
    no recompilation. ``epoch`` increments on every :meth:`bind`; the
    uncorrelated-subquery result cache is keyed on it so cached rows never
    leak across executions (they could be stale after DML, or wrong for a
    subquery that mentions a parameter).
    """

    __slots__ = ("values", "epoch")

    def __init__(self) -> None:
        self.values: tuple[Value, ...] = ()
        self.epoch = 0

    def bind(self, values: Sequence[Value] = ()) -> None:
        """Install the values for one execution and start a new epoch."""
        self.values = tuple(values)
        self.epoch += 1

_COMPARATORS: dict[str, Callable[[Value, Value], Optional[bool]]] = {
    "=": eq,
    "<>": ne,
    "<": lt,
    "<=": le,
    ">": gt,
    ">=": ge,
}


def _schema_map(schema: Schema) -> dict[str, int]:
    return {attribute.name.lower(): i for i, attribute in enumerate(schema)}


class ExprCompiler:
    """Compiles resolved expressions against a schema.

    ``plan_compiler`` turns an algebra subplan into an executable
    callable ``run(env) -> list[Row]`` — injected by the planner so this
    module stays independent of physical operator classes.
    """

    def __init__(
        self,
        schema: Schema,
        outer_schemas: Sequence[Schema] = (),
        plan_compiler: Optional[Callable[..., Callable[[Env], list[Row]]]] = None,
        params: Optional[ParamContext] = None,
    ):
        self.schema = schema
        self.positions = _schema_map(schema)
        self.outer_schemas = tuple(outer_schemas)
        self.plan_compiler = plan_compiler
        self.params = params if params is not None else ParamContext()

    # ------------------------------------------------------------------
    def compile(self, expr: ax.Expr) -> CompiledExpr:
        if isinstance(expr, ax.Column):
            try:
                position = self.positions[expr.name.lower()]
            except KeyError:
                raise PlanError(
                    f"column {expr.name!r} not in schema ({', '.join(self.schema.names)})"
                ) from None
            return lambda row, env, p=position: row[p]

        if isinstance(expr, ax.OuterColumn):
            level = expr.level
            key = expr.name.lower()
            def outer_ref(row: Row, env: Env, level=level, key=key) -> Value:
                if level > len(env):
                    raise ExecutionError(
                        f"correlated reference {expr.name!r} has no enclosing row"
                    )
                frame_positions, frame_row = env[level - 1]
                try:
                    return frame_row[frame_positions[key]]
                except KeyError:
                    raise ExecutionError(
                        f"correlated reference {expr.name!r} not found in outer scope"
                    ) from None
            return outer_ref

        if isinstance(expr, ax.Const):
            value = expr.value
            return lambda row, env: value

        if isinstance(expr, ax.Param):
            context = self.params
            index = expr.index
            label = f":{expr.name}" if expr.name is not None else f"${expr.index + 1}"

            def read_param(row: Row, env: Env) -> Value:
                if index >= len(context.values):
                    raise ExecutionError(
                        f"parameter {label} has no bound value "
                        f"({len(context.values)} bound)"
                    )
                return context.values[index]

            return read_param

        if isinstance(expr, ax.BinOp):
            return self._compile_binop(expr)

        if isinstance(expr, ax.UnOp):
            operand = self.compile(expr.operand)
            if expr.op == "not":
                return lambda row, env: tvl_not(_as_bool(operand(row, env)))
            if expr.op == "-":
                return lambda row, env: negate(operand(row, env))
            raise PlanError(f"unknown unary operator {expr.op!r}")

        if isinstance(expr, ax.IsNullTest):
            operand = self.compile(expr.operand)
            if expr.negated:
                return lambda row, env: operand(row, env) is not None
            return lambda row, env: operand(row, env) is None

        if isinstance(expr, ax.DistinctTest):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            if expr.negated:  # IS NOT DISTINCT FROM (null-safe equality)
                return lambda row, env: not_distinct(left(row, env), right(row, env))
            return lambda row, env: not not_distinct(left(row, env), right(row, env))

        if isinstance(expr, ax.CaseExpr):
            return self._compile_case(expr)

        if isinstance(expr, ax.FuncExpr):
            return self._compile_func(expr)

        if isinstance(expr, ax.CastExpr):
            operand = self.compile(expr.operand)
            target = expr.target
            return lambda row, env: cast_value(operand(row, env), target)

        if isinstance(expr, ax.InListExpr):
            return self._compile_in_list(expr)

        if isinstance(expr, ax.SubqueryExpr):
            return self._compile_subquery(expr)

        if isinstance(expr, ax.AggExpr):
            raise PlanError("aggregate expression outside an Aggregate operator")

        raise PlanError(f"cannot compile expression {type(expr).__name__}")

    # ------------------------------------------------------------------
    def _compile_binop(self, expr: ax.BinOp) -> CompiledExpr:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op

        if op == "and":
            return lambda row, env: tvl_and(_as_bool(left(row, env)), _as_bool(right(row, env)))
        if op == "or":
            return lambda row, env: tvl_or(_as_bool(left(row, env)), _as_bool(right(row, env)))
        if op in _COMPARATORS:
            comparator = _COMPARATORS[op]
            return lambda row, env: comparator(left(row, env), right(row, env))
        if op in ("+", "-", "*", "/", "%", "||"):
            return lambda row, env: arith(op, left(row, env), right(row, env))
        if op in ("like", "ilike"):
            case_insensitive = op == "ilike"
            return lambda row, env: like_match(
                left(row, env), right(row, env), case_insensitive
            )
        raise PlanError(f"unknown binary operator {op!r}")

    def _compile_case(self, expr: ax.CaseExpr) -> CompiledExpr:
        whens = [(self.compile(c), self.compile(r)) for c, r in expr.whens]
        else_fn = self.compile(expr.else_result) if expr.else_result is not None else None
        if expr.operand is None:

            def searched(row: Row, env: Env) -> Value:
                for condition, result in whens:
                    if is_true(_as_bool(condition(row, env))):
                        return result(row, env)
                return else_fn(row, env) if else_fn is not None else None

            return searched
        operand_fn = self.compile(expr.operand)

        def simple(row: Row, env: Env) -> Value:
            subject = operand_fn(row, env)
            for condition, result in whens:
                if is_true(eq(subject, condition(row, env))):
                    return result(row, env)
            return else_fn(row, env) if else_fn is not None else None

        return simple

    def _compile_in_list(self, expr: ax.InListExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = [self.compile(i) for i in expr.items]
        negated = expr.negated

        def run(row: Row, env: Env) -> Optional[bool]:
            subject = operand(row, env)
            saw_null = False
            for item in items:
                result = eq(subject, item(row, env))
                if result is True:
                    return False if negated else True
                if result is None:
                    saw_null = True
            if saw_null:
                return None
            return True if negated else False

        return run

    def _compile_subquery(self, expr: ax.SubqueryExpr) -> CompiledExpr:
        if self.plan_compiler is None:
            raise PlanError("subquery in a context without a plan compiler")
        run_plan = self.plan_compiler(expr.plan, (self.schema, *self.outer_schemas))
        correlated = ax.plan_is_correlated(expr.plan)
        my_positions = self.positions
        context = self.params
        # Uncorrelated subplans run once *per execution epoch*: re-binding
        # parameters (or any fresh execution of a cached plan) starts a
        # new epoch, so stale rows are never reused.
        cache: dict[str, object] = {}

        def rows_for(row: Row, env: Env) -> list[Row]:
            if not correlated and cache.get("epoch") == context.epoch:
                return cache["rows"]  # type: ignore[return-value]
            inner_env: Env = ((my_positions, row), *env)
            result = run_plan(inner_env)
            if not correlated:
                cache["rows"] = result
                cache["epoch"] = context.epoch
            return result

        kind = expr.kind
        if kind == "scalar":

            def scalar(row: Row, env: Env) -> Value:
                rows = rows_for(row, env)
                if not rows:
                    return None
                if len(rows) > 1:
                    raise ExecutionError("scalar subquery returned more than one row")
                return rows[0][0]

            return scalar

        if kind == "exists":
            negated = expr.negated

            def exists(row: Row, env: Env) -> bool:
                found = bool(rows_for(row, env))
                return (not found) if negated else found

            return exists

        if kind == "in":
            assert expr.operand is not None
            operand = self.compile(expr.operand)
            negated = expr.negated

            def in_sub(row: Row, env: Env) -> Optional[bool]:
                subject = operand(row, env)
                saw_null = False
                for inner in rows_for(row, env):
                    result = eq(subject, inner[0])
                    if result is True:
                        return False if negated else True
                    if result is None:
                        saw_null = True
                if saw_null:
                    return None
                return True if negated else False

            return in_sub

        if kind == "quant":
            assert expr.operand is not None and expr.op is not None
            operand = self.compile(expr.operand)
            comparator = _COMPARATORS[expr.op]
            want_all = expr.quantifier == "all"

            def quant(row: Row, env: Env) -> Optional[bool]:
                subject = operand(row, env)
                saw_null = False
                matched = False
                for inner in rows_for(row, env):
                    result = comparator(subject, inner[0])
                    if result is None:
                        saw_null = True
                    elif result:
                        matched = True
                        if not want_all:
                            return True
                    elif want_all:
                        return False
                if want_all:
                    return None if saw_null else True
                return None if saw_null else matched

            return quant

        raise PlanError(f"unknown sublink kind {kind!r}")

    # ------------------------------------------------------------------
    def _compile_func(self, expr: ax.FuncExpr) -> CompiledExpr:
        args = [self.compile(a) for a in expr.args]
        impl = lookup(expr.name).kernel

        def run(row: Row, env: Env) -> Value:
            return impl([a(row, env) for a in args])

        return run


def _as_bool(value: Value) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise ExecutionError(f"expected a boolean, got {type_of_value(value)}")


class AggregateRule(NamedTuple):
    """One aggregate as four functions over an
    :class:`AggregateAccumulator`'s fields — the generalized-linear-
    aggregate shape. ``init`` zeroes the fields the aggregate uses,
    ``accumulate`` folds one input value in, ``retract`` takes one back
    out and returns ``None`` — or, when the fields cannot say what the
    aggregate is without that value, the reason, leaving them untouched —
    and ``terminate`` is the SQL result. NULL inputs change nothing
    (``count(*)`` is fed a non-NULL sentinel per row)."""

    init: Callable[["AggregateAccumulator"], None]
    accumulate: Callable[["AggregateAccumulator", Value], None]
    retract: Callable[["AggregateAccumulator", Value], Optional[str]]
    terminate: Callable[["AggregateAccumulator"], Value]


def _init_count(acc: "AggregateAccumulator") -> None:
    acc.count = 0


def _accumulate_count(acc: "AggregateAccumulator", value: Value) -> None:
    if value is not None:
        acc.count += 1


def _retract_count(acc: "AggregateAccumulator", value: Value) -> Optional[str]:
    if value is not None:
        acc.count -= 1
    return None


def _terminate_count(acc: "AggregateAccumulator") -> Value:
    return acc.count


def _init_sum(acc: "AggregateAccumulator") -> None:
    acc.count = 0
    acc.total = 0


def _accumulate_sum(acc: "AggregateAccumulator", value: Value) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{acc.func}() requires numeric input")
    if isinstance(value, float):
        acc.float_seen = True
    acc.count += 1
    acc.total += value


def _retract_sum(acc: "AggregateAccumulator", value: Value) -> Optional[str]:
    if value is None:
        return None
    if acc.float_seen or isinstance(value, float):
        # Float addition is order-sensitive: subtracting does not undo it.
        return "float aggregate"
    acc.count -= 1
    acc.total -= value
    return None


def _terminate_sum(acc: "AggregateAccumulator") -> Value:
    if acc.count == 0:
        return None
    return float(acc.total) if acc.float_seen else acc.total


def _terminate_avg(acc: "AggregateAccumulator") -> Value:
    if acc.count == 0:
        return None
    return acc.total / acc.count


def _init_extreme(acc: "AggregateAccumulator") -> None:
    acc.count = 0
    acc.best = None


def _extreme(want: int) -> Callable[["AggregateAccumulator", Value], None]:
    """min (``want=-1``) / max (``want=1``): the first value no later
    value beats strictly."""

    def accumulate(acc: "AggregateAccumulator", value: Value) -> None:
        if value is None:
            return
        acc.count += 1
        if acc.best is None or compare(value, acc.best) == want:
            acc.best = value

    return accumulate


def _retract_extreme(acc: "AggregateAccumulator", value: Value) -> Optional[str]:
    if value is None:
        return None
    if compare(value, acc.best) == 0:
        # The runner-up is not kept: only the whole group can say.
        return "min/max retraction"
    acc.count -= 1
    return None


def _terminate_extreme(acc: "AggregateAccumulator") -> Value:
    return acc.best


#: The aggregate functions, each one rule. The row and vectorized
#: engines accumulate and terminate through it, the sqlite backend's
#: exact-float UDFs too, and the materialized-view maintainer also
#: retracts through it.
AGGREGATES: dict[str, AggregateRule] = {
    "count": AggregateRule(_init_count, _accumulate_count, _retract_count, _terminate_count),
    "sum": AggregateRule(_init_sum, _accumulate_sum, _retract_sum, _terminate_sum),
    "avg": AggregateRule(_init_sum, _accumulate_sum, _retract_sum, _terminate_avg),
    "min": AggregateRule(_init_extreme, _extreme(-1), _retract_extreme, _terminate_extreme),
    "max": AggregateRule(_init_extreme, _extreme(1), _retract_extreme, _terminate_extreme),
}


class AggregateAccumulator:
    """One aggregate over one group: the fields its :data:`AGGREGATES`
    rule reads and writes, plus DISTINCT's seen-set."""

    __slots__ = ("func", "rule", "count", "total", "best", "seen", "float_seen")

    def __init__(self, func: str, distinct: bool):
        rule = AGGREGATES.get(func)
        if rule is None:
            raise ExecutionError(f"unknown aggregate {func!r}")
        self.func = func
        self.rule = rule
        self.seen: Optional[set] = set() if distinct else None
        self.float_seen = False
        rule.init(self)

    def add(self, value: Value) -> None:
        seen = self.seen
        if seen is not None and value is not None:
            key = value_identity(value)
            if key in seen:
                return
            seen.add(key)
        self.rule.accumulate(self, value)

    def result(self) -> Value:
        return self.rule.terminate(self)

    def copy(self) -> "AggregateAccumulator":
        twin = object.__new__(AggregateAccumulator)
        for name in self.__slots__:
            if hasattr(self, name):
                setattr(twin, name, getattr(self, name))
        if self.seen is not None:
            twin.seen = set(self.seen)
        return twin


class _CountStar:
    """Sentinel handed to count(*) accumulators for every input row."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<count(*)>"


_COUNT_STAR = _CountStar()


def count_star_sentinel() -> "_CountStar":
    return _COUNT_STAR
