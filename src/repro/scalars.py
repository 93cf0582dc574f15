"""The one table of scalar-function semantics.

Perm hands the rewritten query to *one* executor with *one* set of
scalar semantics; this reproduction has several engines, so every scalar
fact lives here exactly once and every consumer walks the table:

* the analyzer resolves SQL function calls and checks their arity
  (:meth:`Scalar.check_arity`),
* :func:`repro.algebra.expressions.infer_type` types every call through
  :attr:`Scalar.result_type`,
* the row and vectorized expression compilers fetch :attr:`Scalar.kernel`
  at compile time (the per-row call depth is the kernel itself),
* the pushdown backends register every entry as a ``repro_<name>`` UDF
  in one loop, so the mirror DBMS evaluates the very same Python kernel.

Entries with ``sql_visible=False`` are compiler-internal exact helpers:
the targets of the pushdown compiler's rewrites (``div``, ``iadd`` ...)
and the UDF forms of CAST and LIKE. They are typed and registered like
any other entry but cannot be named from SQL text.

Adding a scalar function is one :data:`SCALARS` entry. Binary operators
are *not* here: :func:`repro.datatypes.arith` and
:func:`repro.datatypes.compare` already are their single kernels.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .datatypes import (
    SQLType,
    Value,
    arith,
    cast_value,
    compare,
    eq,
    negate,
    unify_types,
)
from .errors import AnalyzeError, ExecutionError, TypeCheckError

Kernel = Callable[[list[Value]], Value]
TypeRule = Callable[[list[SQLType]], SQLType]


class Scalar(NamedTuple):
    """One scalar function: everything any engine knows about it."""

    name: str
    min_args: int
    max_args: Optional[int]  # None = variadic
    kernel: Kernel  # exact evaluation over the argument list
    result_type: TypeRule  # static result type from the argument types
    sql_visible: bool = True  # False: compiler-internal exact helper
    # All arguments must share one type, so a bind parameter among them
    # is expected to have its siblings' (:mod:`repro.analyzer.params`).
    unifies_args: bool = False

    def check_arity(self, nargs: int) -> None:
        if nargs >= self.min_args and (self.max_args is None or nargs <= self.max_args):
            return
        if self.max_args is None:
            expected = f"at least {self.min_args}"
        elif self.min_args == self.max_args:
            expected = str(self.min_args)
        else:
            expected = f"{self.min_args} to {self.max_args}"
        raise AnalyzeError(
            f"function {self.name}() takes {expected} argument(s), got {nargs}"
        )


# ---------------------------------------------------------------------------
# LIKE and integer intervals: the two non-function facts engines share
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def like_matcher(pattern: str, case_insensitive: bool) -> Callable[[str], Optional[re.Match[str]]]:
    """The compiled form of one ``[I]LIKE`` pattern: ``%``/``_``
    wildcards, backslash escapes. ``matcher(text) is not None`` is the
    test, on the lower-cased text for ILIKE. Compilers resolve a
    constant pattern once; :func:`like_match` is the whole operator."""
    if case_insensitive:
        pattern = pattern.lower()
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out) + r"\Z", re.DOTALL).match


def like_match(value: Value, pattern: Value, case_insensitive: bool) -> Optional[bool]:
    """``value [I]LIKE pattern``: NULL-propagating, text operands only,
    case-sensitive unless ILIKE."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExecutionError("LIKE requires text operands")
    if case_insensitive:
        value = value.lower()
    return like_matcher(pattern, case_insensitive)(value) is not None


def arith_interval(
    op: str, left: tuple[int, int], right: tuple[int, int]
) -> tuple[int, int]:
    """Exact interval arithmetic for integer ``+``/``-``/``*``: the
    bounds of the result given inclusive bounds of the operands."""
    (a, b), (c, d) = left, right
    if op == "+":
        return (a + c, b + d)
    if op == "-":
        return (a - d, b - c)
    products = (a * c, a * d, b * c, b * d)
    return (min(products), max(products))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _strict(name: str, fn: Callable[..., Value]) -> Kernel:
    """NULL in, NULL out; a numeric domain or range failure of the
    underlying Python builtin becomes an engine error."""

    def kernel(args: list[Value]) -> Value:
        if any(a is None for a in args):
            return None
        try:
            return fn(*args)
        except (ValueError, ZeroDivisionError, OverflowError):
            shown = ", ".join(repr(a) for a in args)
            raise ExecutionError(
                f"{name}({shown}) is undefined or out of range"
            ) from None

    return kernel


def _num(value: Value, func: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{func}() requires a numeric argument")
    return value


def _text(value: Value, func: str) -> str:
    if not isinstance(value, str):
        raise ExecutionError(f"{func}() requires a text argument")
    return value


def _round(value: Value, digits: Value = 0) -> Value:
    # PostgreSQL round(double precision): always a float, ties to even.
    return round(float(_num(value, "round")) + 0.0, int(_num(digits, "round")))


def _substring(text: Value, start: Value, length: Value = None) -> Value:
    text = _text(text, "substring")
    start = int(_num(start, "substring"))
    # SQL substring is 1-based; handle start < 1 like PostgreSQL.
    if length is None:
        return text[max(start, 1) - 1 :]
    length = int(_num(length, "substring"))
    if length < 0:
        raise ExecutionError("negative substring length not allowed")
    return text[max(start, 1) - 1 : max(start + length - 1, 0)]


def _coalesce(args: list[Value]) -> Value:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(args: list[Value]) -> Value:
    return None if eq(args[0], args[1]) is True else args[0]


def _extreme(sign: int) -> Kernel:
    """greatest (``sign`` 1) / least (-1): NULLs are skipped."""

    def kernel(args: list[Value]) -> Value:
        best = None
        for candidate in args:
            if candidate is not None and (
                best is None or compare(candidate, best) == sign
            ):
                best = candidate
        return best

    return kernel


def _concat(args: list[Value]) -> Value:
    # PostgreSQL concat() skips NULLs.
    return "".join(cast_value(a, SQLType.TEXT) for a in args if a is not None)  # type: ignore[misc]


def _arith(op: str) -> Kernel:
    return lambda args: arith(op, args[0], args[1])


# ---------------------------------------------------------------------------
# Static result-type rules
# ---------------------------------------------------------------------------

def _returns(type_: SQLType) -> TypeRule:
    return lambda types: type_


_CAST_TARGETS = (SQLType.INT, SQLType.FLOAT, SQLType.TEXT, SQLType.BOOL)
_INT, _FLOAT, _TEXT, _BOOL = (_returns(t) for t in _CAST_TARGETS)


def _first(types: list[SQLType]) -> SQLType:
    return types[0]


def _unified(context: str) -> TypeRule:
    def rule(types: list[SQLType]) -> SQLType:
        result = SQLType.NULL
        for t in types:
            result = unify_types(result, t, context)
        return result

    return rule


def _abs_type(types: list[SQLType]) -> SQLType:
    return types[0] if types[0] is not SQLType.NULL else SQLType.FLOAT


_ARITH_TYPE = _unified("arithmetic")  # the typing of + - * /


def _div_type(types: list[SQLType]) -> SQLType:
    return SQLType.FLOAT if SQLType.FLOAT in types else _ARITH_TYPE(types)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

def _text_fn(name: str, method: Callable[[str], Value], result: TypeRule = _TEXT) -> Scalar:
    return Scalar(name, 1, 1, _strict(name, lambda v: method(_text(v, name))), result)


SCALARS: dict[str, Scalar] = {
    entry.name: entry
    for entry in (
        # -- SQL-visible functions -------------------------------------
        Scalar("abs", 1, 1, _strict("abs", lambda v: abs(_num(v, "abs"))), _abs_type),
        Scalar("round", 1, 2, _strict("round", _round), _FLOAT),
        Scalar("floor", 1, 1, _strict("floor", lambda v: math.floor(_num(v, "floor"))), _INT),
        Scalar("ceil", 1, 1, _strict("ceil", lambda v: math.ceil(_num(v, "ceil"))), _INT),
        Scalar("sqrt", 1, 1, _strict("sqrt", lambda v: math.sqrt(_num(v, "sqrt"))), _FLOAT),
        Scalar(
            "power",
            2,
            2,
            # math.pow, not **: a negative base with a fractional
            # exponent must be a domain error, never a complex value.
            _strict("power", lambda a, b: math.pow(_num(a, "power"), _num(b, "power"))),
            _FLOAT,
        ),
        Scalar("mod", 2, 2, _arith("%"), _INT),
        _text_fn("upper", str.upper),
        _text_fn("lower", str.lower),
        _text_fn("length", len, _INT),
        _text_fn("char_length", len, _INT),
        Scalar("substring", 2, 3, _strict("substring", _substring), _TEXT),
        Scalar("substr", 2, 3, _strict("substr", _substring), _TEXT),
        _text_fn("trim", str.strip),
        _text_fn("ltrim", str.lstrip),
        _text_fn("rtrim", str.rstrip),
        Scalar(
            "replace",
            3,
            3,
            _strict(
                "replace",
                lambda s, old, new: _text(s, "replace").replace(
                    _text(old, "replace"), _text(new, "replace")
                ),
            ),
            _TEXT,
        ),
        Scalar("concat", 0, None, _concat, _TEXT),
        Scalar("coalesce", 1, None, _coalesce, _unified("coalesce"), unifies_args=True),
        Scalar("nullif", 2, 2, _nullif, _first, unifies_args=True),
        Scalar("greatest", 1, None, _extreme(1), _unified("greatest"), unifies_args=True),
        Scalar("least", 1, None, _extreme(-1), _unified("least"), unifies_args=True),
        # -- compiler-internal exact helpers ---------------------------
        # '/' with the engine's rules (raise on zero, truncate toward
        # zero); used where native target division could diverge.
        Scalar("div", 2, 2, _arith("/"), _div_type, False),
        # Exact integer arithmetic for results the pushdown compiler
        # cannot prove within the target's integer bounds.
        Scalar("iadd", 2, 2, _arith("+"), _ARITH_TYPE, False),
        Scalar("isub", 2, 2, _arith("-"), _ARITH_TYPE, False),
        Scalar("imul", 2, 2, _arith("*"), _ARITH_TYPE, False),
        Scalar("ineg", 1, 1, lambda args: negate(args[0]), _first, False),
        Scalar("like", 2, 2, lambda args: like_match(args[0], args[1], False), _BOOL, False),
        Scalar("ilike", 2, 2, lambda args: like_match(args[0], args[1], True), _BOOL, False),
        *(
            Scalar(
                f"cast_{t.value}",
                1,
                1,
                lambda args, t=t: cast_value(args[0], t),
                _returns(t),
                False,
            )
            for t in _CAST_TARGETS
        ),
    )
}


def lookup(name: str) -> Scalar:
    """The table entry for *name* (SQL-visible or internal)."""
    try:
        return SCALARS[name]
    except KeyError:
        raise TypeCheckError(f"unknown function {name!r}") from None
