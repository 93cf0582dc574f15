"""The static operand-type rules and the per-row checks cannot drift.

``infer_type`` rejects an ill-typed operator at analysis; the engines
keep a per-row check for bind values in slots no context types. For
every operator and every pair of operand types the two must agree:
analysis rejects the pair exactly when evaluation raises on non-NULL
values of those types — in the row engine's compiled expressions (the
``datatypes`` comparators, ``arith``, ``negate``, ``_as_bool``) and in
the vectorized kernels alike.
"""

from __future__ import annotations

import itertools

import pytest

from repro.algebra import expressions as ax
from repro.catalog.schema import schema_of
from repro.datatypes import SQLType
from repro.errors import ExecutionError, TypeCheckError
from repro.executor.batch import Batch
from repro.executor.columns import column_values
from repro.executor.expr_eval import ExprCompiler
from repro.executor.vector_expr import VectorExprCompiler

TYPES = (SQLType.INT, SQLType.FLOAT, SQLType.TEXT, SQLType.BOOL, SQLType.NULL)
SAMPLES = {
    SQLType.INT: 1,
    SQLType.FLOAT: 1.5,
    SQLType.TEXT: "x",
    SQLType.BOOL: True,
    SQLType.NULL: None,
}

L, R = ax.Column("l"), ax.Column("r")
OPERATORS = {
    **{op: ax.BinOp(op, L, R) for op in ("=", "<>", "<", "<=", ">", ">=")},
    "AND": ax.BinOp("and", L, R),
    "OR": ax.BinOp("or", L, R),
    "||": ax.BinOp("||", L, R),
    "IS DISTINCT FROM": ax.DistinctTest(L, R),
    "IN": ax.InListExpr(L, (R,)),
    "CASE operand": ax.CaseExpr(L, ((R, ax.Const.of(1)),)),
    # Unary: the right operand is unused, so only its NULL column runs.
    "NOT": ax.UnOp("not", L),
    "unary -": ax.UnOp("-", L),
}
UNARY = {"NOT", "unary -"}

CASES = [
    (name, left, right)
    for name in OPERATORS
    for left, right in itertools.product(
        TYPES, (SQLType.NULL,) if name in UNARY else TYPES
    )
]


def _rejected_statically(expr, schema) -> bool:
    try:
        ax.infer_type(expr, schema)
    except TypeCheckError:
        return True
    return False


def _rejected_per_row(expr, schema, row) -> bool:
    try:
        ExprCompiler(schema).compile(expr)(row, ())
    except ExecutionError:
        return True
    return False


def _rejected_per_batch(expr, schema, row) -> bool:
    compiler = VectorExprCompiler(schema, ExprCompiler(schema))
    batch = Batch([[value] for value in row], 1)
    try:
        column_values(compiler.compile(expr)(batch, ()))
    except ExecutionError:
        return True
    return False


@pytest.mark.parametrize(
    "name,left,right", CASES, ids=[f"{n}-{l.value}-{r.value}" for n, l, r in CASES]
)
def test_analysis_rejects_exactly_what_evaluation_rejects(name, left, right):
    expr = OPERATORS[name]
    schema = schema_of(("l", left), ("r", right))
    row = (SAMPLES[left], SAMPLES[right])
    static = _rejected_statically(expr, schema)
    assert static == _rejected_per_row(expr, schema, row)
    assert static == _rejected_per_batch(expr, schema, row)


def test_the_matrix_rejects_and_accepts():
    """Both outcomes occur for every binary operator, so no operator's
    row is vacuous (all-accept would pass with no rule at all)."""
    for name in OPERATORS:
        outcomes = {
            _rejected_statically(OPERATORS[name], schema_of(("l", left), ("r", right)))
            for _, left, right in (case for case in CASES if case[0] == name)
        }
        assert outcomes == {True, False}, name
