"""SQL value model: types, casts, three-valued logic and arithmetic.

The engine represents SQL values as plain Python objects:

========  ==========================
SQL type  Python representation
========  ==========================
INT       ``int``
FLOAT     ``float``
TEXT      ``str``
BOOL      ``bool``
NULL      ``None`` (any type)
========  ==========================

All comparison and boolean operations follow SQL three-valued logic
(``None`` standing in for ``unknown``), which the provenance rewrite
rules rely on — e.g. the aggregation rule joins on *null-safe* equality
(``IS NOT DISTINCT FROM``) so that NULL group keys still find their
witnesses.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from .errors import ExecutionError, TypeCheckError

# The SQL value type used throughout the engine.
Value = int | float | str | bool | None


class SQLType(enum.Enum):
    """Static SQL types known to the analyzer."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    # Type of an untyped NULL literal; unifies with anything.
    NULL = "null"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_TYPE_ALIASES = {
    "int": SQLType.INT,
    "integer": SQLType.INT,
    "int4": SQLType.INT,
    "int8": SQLType.INT,
    "bigint": SQLType.INT,
    "smallint": SQLType.INT,
    "float": SQLType.FLOAT,
    "float8": SQLType.FLOAT,
    "real": SQLType.FLOAT,
    "double": SQLType.FLOAT,
    "double precision": SQLType.FLOAT,
    "numeric": SQLType.FLOAT,
    "decimal": SQLType.FLOAT,
    "text": SQLType.TEXT,
    "varchar": SQLType.TEXT,
    "char": SQLType.TEXT,
    "character varying": SQLType.TEXT,
    "string": SQLType.TEXT,
    "bool": SQLType.BOOL,
    "boolean": SQLType.BOOL,
}


def type_from_name(name: str) -> SQLType:
    """Resolve a SQL type name (``INTEGER``, ``varchar`` ...) to a :class:`SQLType`."""
    try:
        return _TYPE_ALIASES[name.strip().lower()]
    except KeyError:
        raise TypeCheckError(f"unknown type name: {name!r}") from None


def type_of_value(value: Value) -> SQLType:
    """Dynamic type of a Python value under the SQL value model."""
    if value is None:
        return SQLType.NULL
    if isinstance(value, bool):  # bool before int: bool is a subclass of int
        return SQLType.BOOL
    if isinstance(value, int):
        return SQLType.INT
    if isinstance(value, float):
        return SQLType.FLOAT
    if isinstance(value, str):
        return SQLType.TEXT
    raise TypeCheckError(f"value {value!r} is not a SQL value")


_NUMERIC = (SQLType.INT, SQLType.FLOAT)


def is_numeric(t: SQLType) -> bool:
    return t in _NUMERIC or t is SQLType.NULL


def unify_types(a: SQLType, b: SQLType, context: str = "expression") -> SQLType:
    """Least common type of *a* and *b* (used for CASE branches, set
    operations and IN lists). NULL unifies with anything; INT and FLOAT
    unify to FLOAT. Raises :class:`TypeCheckError` otherwise."""
    if a is b:
        return a
    if a is SQLType.NULL:
        return b
    if b is SQLType.NULL:
        return a
    if a in _NUMERIC and b in _NUMERIC:
        return SQLType.FLOAT
    raise TypeCheckError(f"cannot unify types {a} and {b} in {context}")


def cast_value(value: Value, target: SQLType) -> Value:
    """Run-time CAST. NULL casts to NULL of any type."""
    if value is None:
        return None
    try:
        if target is SQLType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, str):
                return int(value.strip())
            return int(value)
        if target is SQLType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
            return float(value)
        if target is SQLType.TEXT:
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float) and value.is_integer():
                return str(value)
            return str(value)
        if target is SQLType.BOOL:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return value != 0
            lowered = value.strip().lower()
            if lowered in ("t", "true", "yes", "on", "1"):
                return True
            if lowered in ("f", "false", "no", "off", "0"):
                return False
            raise ValueError(lowered)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ExecutionError(f"cannot cast {value!r} to {target}") from exc
    raise ExecutionError(f"cannot cast to {target}")


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------

def tvl_and(a: bool | None, b: bool | None) -> bool | None:
    """SQL AND: false dominates unknown."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def tvl_or(a: bool | None, b: bool | None) -> bool | None:
    """SQL OR: true dominates unknown."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def tvl_not(a: bool | None) -> bool | None:
    """SQL NOT: NOT unknown = unknown."""
    if a is None:
        return None
    return not a


def is_true(a: bool | None) -> bool:
    """Whether a 3VL value passes a WHERE/HAVING/JOIN condition."""
    return a is True


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

# One rule in two forms: over static types (the analyzer's; NULL stands
# for any type), and over the non-NULL values compared per row.

def statically_comparable(a: SQLType, b: SQLType) -> bool:
    if a is SQLType.NULL or b is SQLType.NULL:
        return True
    if a in _NUMERIC and b in _NUMERIC:
        return True
    return a is b


def _comparable(a: Value, b: Value) -> None:
    ta, tb = type_of_value(a), type_of_value(b)
    if ta in _NUMERIC and tb in _NUMERIC:
        return
    if ta is tb:
        return
    raise ExecutionError(f"cannot compare {ta} with {tb} ({a!r} vs {b!r})")


def compare(a: Value, b: Value) -> int | None:
    """Spaceship comparison under SQL semantics.

    Returns ``None`` when either side is NULL (unknown), otherwise
    -1 / 0 / +1. Booleans order ``false < true``; strings compare
    lexicographically (codepoint order, as in the C collation).
    """
    if a is None or b is None:
        return None
    _comparable(a, b)
    if a < b:  # type: ignore[operator]
        return -1
    if a > b:  # type: ignore[operator]
        return 1
    return 0


# The six comparison operators check comparability, then apply Python's
# operator: exact for int/float mixes, and IEEE for NaN (NaN is unequal
# to everything and orders against nothing), which is what the
# vectorized engine's native and numpy kernels compute. ``compare`` is
# not their base: it maps an unordered pair (NaN) to 0, "equal".

def eq(a: Value, b: Value) -> bool | None:
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a == b


def ne(a: Value, b: Value) -> bool | None:
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a != b


def lt(a: Value, b: Value) -> bool | None:
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a < b  # type: ignore[operator]


def le(a: Value, b: Value) -> bool | None:
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a <= b  # type: ignore[operator]


def gt(a: Value, b: Value) -> bool | None:
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a > b  # type: ignore[operator]


def ge(a: Value, b: Value) -> bool | None:
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a >= b  # type: ignore[operator]


def not_distinct(a: Value, b: Value) -> bool:
    """``a IS NOT DISTINCT FROM b`` — null-safe equality.

    Two NULLs are *not distinct*; a NULL and a non-NULL are distinct.
    This is the join predicate the aggregation and set-operation rewrite
    rules use to re-attach provenance to group keys that may be NULL.
    """
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return compare(a, b) == 0


def distinct(a: Value, b: Value) -> bool:
    """``a IS DISTINCT FROM b``."""
    return not not_distinct(a, b)


# Sort key helper: SQL orders NULLs last for ASC (PostgreSQL default).
_NULL_LAST = 1
_NULL_FIRST = 0


def sort_key(value: Value, descending: bool = False, nulls_first: bool | None = None):
    """Build a totally ordered key for ORDER BY with NULL placement.

    PostgreSQL defaults: NULLs last for ascending, first for descending.
    """
    if nulls_first is None:
        nulls_first = descending
    null_rank = _NULL_FIRST if nulls_first else _NULL_LAST
    if value is None:
        return (null_rank, 0, "")
    # Normalize across int/float and bool so mixed columns sort stably.
    # Ints stay exact (Python compares int vs float exactly); a float()
    # normalization here would make integers 2^53 apart tie and sort in
    # input order instead of numeric order.
    if isinstance(value, bool):
        return (1 - null_rank, 0, int(value))
    if isinstance(value, (int, float)):
        return (1 - null_rank, 0, value)
    return (1 - null_rank, 1, value)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def arith(op: str, a: Value, b: Value) -> Value:
    """Binary arithmetic with NULL propagation and SQL division rules.

    ``/`` on two INTs performs integer division (PostgreSQL semantics);
    ``%`` is only defined on INTs.
    """
    if a is None or b is None:
        # A NULL does not hide an ill-typed partner: each operand is
        # checked on its own, as the analyzer checks each static type.
        other = b if a is None else a
        if other is None or (
            isinstance(other, str)
            if op == "||"
            else isinstance(other, (int, float)) and not isinstance(other, bool)
        ):
            return None
    ta, tb = type_of_value(a), type_of_value(b)
    if op == "||":
        if ta is not SQLType.TEXT or tb is not SQLType.TEXT:
            raise ExecutionError(f"|| requires text operands, got {ta} and {tb}")
        return a + b  # type: ignore[operator]
    if not (ta in _NUMERIC and tb in _NUMERIC):
        raise ExecutionError(f"arithmetic {op!r} requires numeric operands, got {ta} and {tb}")
    assert isinstance(a, (int, float)) and isinstance(b, (int, float))
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ExecutionError("division by zero")
        if isinstance(a, int) and isinstance(b, int):
            # SQL integer division truncates toward zero.
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    if op == "%":
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ExecutionError("% requires integer operands")
        if b == 0:
            raise ExecutionError("division by zero")
        # SQL modulo takes the sign of the dividend.
        r = abs(a) % abs(b)
        return r if a >= 0 else -r
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def negate(a: Value) -> Value:
    if a is None:
        return None
    if isinstance(a, bool) or not isinstance(a, (int, float)):
        raise ExecutionError(f"unary minus requires a numeric operand, got {type_of_value(a)}")
    return -a


def format_value(value: Value) -> str:
    """Render a value the way the Perm browser result grid shows it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "t" if value else "f"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return str(value)


def value_identity(value: Value) -> tuple[int, Any]:
    """Hash/equality key distinguishing ``1`` from ``1.0`` from ``True``.

    Python hashes ``1 == 1.0 == True`` identically; SQL DISTINCT and set
    operations must too (they compare by value), so ints and floats
    share one numeric tag while booleans and strings keep their own.
    The numeric value itself is kept **exact** — Python guarantees
    ``5 == 5.0`` with equal hashes, so cross-type matches still work,
    while big integers beyond 2^53 (where float conversion rounds) can
    no longer collide with their neighbours in hash joins, GROUP BY or
    DISTINCT.
    """
    if value is None:
        return (0, None)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def row_identity(row: tuple[Value, ...]) -> tuple[tuple[int, Any], ...]:
    """Identity key for a whole tuple (used by DISTINCT, set ops, hash joins)."""
    return tuple(value_identity(v) for v in row)


# ---------------------------------------------------------------------------
# JSON-safe value encoding (shared by the wire protocol and the WAL)
# ---------------------------------------------------------------------------

# RFC 8259 JSON has no Infinity/NaN literals, so non-finite floats travel
# as tagged one-key objects. Unambiguous: SQL values are scalars, never
# objects, so a dict on the wire can only be a tag.
_NONFINITE_DECODE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def to_jsonsafe_value(value: Value) -> object:
    """Encode one SQL value for strict (``allow_nan=False``) JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"$f": "nan"}
        return {"$f": "inf" if value > 0 else "-inf"}
    return value


def from_jsonsafe_value(value: object) -> Value:
    """Decode one value produced by :func:`to_jsonsafe_value`."""
    if isinstance(value, dict):
        decoded = _NONFINITE_DECODE.get(value.get("$f"))  # type: ignore[arg-type]
        if decoded is not None or value.get("$f") == "nan":
            return decoded if decoded is not None else math.nan
        raise TypeCheckError(f"unknown tagged wire value: {value!r}")
    return value  # type: ignore[return-value]
