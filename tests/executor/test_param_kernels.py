"""``column <op> ?`` on the vectorized comparison kernels.

A bind parameter is a constant for one execution: the vectorized
compiler reads it once per batch and runs the same native or bulk kernel
a literal gets, but only when the bound value's exact type makes
Python's operator the row engine's comparison. Every operator, over int,
float, text and bool columns, against int, float, an int past 2^53,
bool, text, NULL and NaN, both ways round: the row compiler, the
vectorized compiler on plain lists and (with numpy) on packed columns,
and the same comparison with the value as a literal must all agree —
rows and errors alike.
"""

from __future__ import annotations

import pytest

from repro.algebra import expressions as ax
from repro.catalog.schema import schema_of
from repro.datatypes import SQLType
from repro.executor.batch import Batch
from repro.executor.columns import (
    HAVE_NUMPY,
    TypedColumn,
    build_typed_column,
    column_values,
)
from repro.executor.expr_eval import ExprCompiler, ParamContext
from repro.executor.vector_expr import VectorExprCompiler

BIG = 2**53 + 1  # the first int a float64 cannot hold
NAN = float("nan")

COLUMNS = {
    SQLType.INT: [1, 2, None, -3, 0, BIG, 2**53],
    SQLType.FLOAT: [1.0, 2.5, None, NAN, -0.0, float(2**53), float("inf")],
    SQLType.TEXT: ["a", "b", None, "", "B"],
    SQLType.BOOL: [True, False, None],
}
BOUND = [2, 2.5, BIG, -BIG, True, False, "b", None, NAN]
OPS = ("=", "<>", "<", "<=", ">", ">=")


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("error", type(exc).__name__, str(exc))


def _comparison(op, constant, param_first):
    column = ax.Column("c")
    if param_first:
        return ax.BinOp(op, constant, column)
    return ax.BinOp(op, column, constant)


def _compilers(sql_type, value):
    schema = schema_of(("c", sql_type))
    params = ParamContext()
    params.bind((value,))
    row = ExprCompiler(schema, params=params)
    return row, VectorExprCompiler(schema, row)


def _row_result(expr, sql_type, values, value):
    compiled = _compilers(sql_type, value)[0].compile(expr)
    return _outcome(lambda: [compiled((v,), ()) for v in values])


def _vector_result(expr, sql_type, column, value):
    compiled = _compilers(sql_type, value)[1].compile(expr)
    return _outcome(
        lambda: column_values(compiled(Batch([column], len(column)), ()))
    )


def _literal(value):
    return ax.Const.null() if value is None else ax.Const.of(value)


@pytest.mark.parametrize("value", BOUND, ids=repr)
@pytest.mark.parametrize("sql_type", list(COLUMNS), ids=lambda t: t.value)
def test_parameter_comparison_matches_row_engine_and_literal(sql_type, value):
    values = COLUMNS[sql_type]
    packed = build_typed_column(values, sql_type)
    for op in OPS:
        for param_first in (False, True):
            param_form = _comparison(op, ax.Param(0), param_first)
            literal_form = _comparison(op, _literal(value), param_first)
            expected = _row_result(param_form, sql_type, values, value)
            assert _row_result(literal_form, sql_type, values, value) == expected
            for form in (param_form, literal_form):
                label = f"{form} with {value!r}"
                assert (
                    _vector_result(form, sql_type, list(values), value) == expected
                ), label
                if packed is not None:
                    assert (
                        _vector_result(form, sql_type, packed, value) == expected
                    ), f"{label} (packed)"


@pytest.mark.skipif(not HAVE_NUMPY, reason="the bulk kernels need numpy")
@pytest.mark.parametrize("sql_type", [SQLType.INT, SQLType.FLOAT])
@pytest.mark.parametrize("value", [2, 2.5])
def test_numeric_parameter_runs_the_bulk_kernel(sql_type, value):
    """A numeric parameter against a packed numeric column takes the
    bulk comparison, as a literal does — not the per-element loop (the
    values stay within 2^53, where int64 against float64 is exact)."""
    column = build_typed_column([1, 2, None, -3], sql_type)
    assert column is not None
    for param_first in (False, True):
        expr = _comparison("<", ax.Param(0), param_first)
        compiled = _compilers(sql_type, value)[1].compile(expr)
        result = compiled(Batch([column], len(column)), ())
        assert isinstance(result, TypedColumn), expr
