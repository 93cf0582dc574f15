"""Typed columnar buffers for the vectorized engine.

A :class:`TypedColumn` stores one batch column in a packed machine
representation — ``int64`` / ``float64`` / ``bool`` buffers with a
separate null mask — instead of a list of PyObjects. The representation
is chosen from the planner's static types: INT/FLOAT/BOOL columns pack,
TEXT and untyped columns stay plain Python lists. numpy is an *optional
accelerator*: when importable, buffers are numpy arrays and the kernels
below operate on whole buffers; without numpy nothing packs
(:func:`build_typed_column` returns ``None``), every column is a plain
list and the engine runs its per-element object paths, so results are
bit-identical either way. A batch column therefore has two forms — list
or numpy-backed — never a third.

Exactness is non-negotiable — these kernels must match the row engine's
unbounded-Python-int semantics bit for bit, so every bulk path guards
the places where int64/float64 machine arithmetic and exact Python
arithmetic can disagree, and **spills** to the object representation
instead of wrapping or rounding:

* integer ``+ - * / %`` pre-check the result interval from the operand
  buffers' actual min/max; a possible int64 overflow runs the exact
  Python loop and returns an object column (bignums preserved);
* comparisons mixing int64 buffers with floats (or float buffers with
  big int constants) only run in machine arithmetic when the int side
  is within ±2^53 (exactly representable in float64); otherwise the
  caller falls back to Python's exact int-vs-float comparison;
* every value leaving a buffer is materialized with ``tolist()`` /
  ``item()`` so numpy scalars never leak into result rows, hash keys or
  the wire protocol.

Null slots in a buffer hold a zero fill; because fills flow through
arithmetic, the min/max used by the interval checks can only *widen*,
never narrow — the guards stay conservative.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from ..datatypes import SQLType, Value
from ..scalars import arith_interval

try:  # optional accelerator
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

HAVE_NUMPY = _np is not None

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# Integers up to 2^53 convert to float64 exactly; beyond, machine
# comparisons against floats can disagree with Python's exact ones.
FLOAT_EXACT_INT = 2**53

KIND_I64 = "i64"
KIND_F64 = "f64"
KIND_BOOL = "bool"

# Static type -> (kind, numpy dtype, fill stored in NULL slots).
_PACKED = {
    SQLType.INT: (KIND_I64, "int64", 0),
    SQLType.FLOAT: (KIND_F64, "float64", 0.0),
    SQLType.BOOL: (KIND_BOOL, "bool", False),
}


class TypedColumn:
    """One column of a batch in packed typed form.

    ``data`` is a numpy array; ``nulls`` is ``None`` (no NULLs) or a
    parallel boolean mask. ``values()`` materializes (and caches) the
    plain-Python list view, which is what row materialization, hash
    keys and the object fallback paths consume.
    """

    __slots__ = ("kind", "data", "nulls", "length", "_values")

    def __init__(self, kind: str, data, nulls, length: int):
        self.kind = kind
        self.data = data
        self.nulls = nulls
        self.length = length
        self._values: Optional[list[Value]] = None

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values())

    def __getitem__(self, index: int) -> Value:
        return self.values()[index]

    # -- materialization ----------------------------------------------
    def values(self) -> list[Value]:
        """The column as a plain Python list (``None`` for NULLs).
        Cached; callers must not mutate the returned list."""
        if self._values is None:
            out = self.data.tolist()
            if self.nulls is not None:
                for i in _np.nonzero(self.nulls)[0].tolist():
                    out[i] = None
            self._values = out
        return self._values

    @property
    def null_count(self) -> int:
        return 0 if self.nulls is None else int(self.nulls.sum())

    # -- reshaping -----------------------------------------------------
    def take(self, indices) -> "TypedColumn":
        """A new column holding the rows at *indices* (in that order)."""
        data = self.data[indices]
        nulls = self.nulls[indices] if self.nulls is not None else None
        return TypedColumn(self.kind, data, nulls, len(data))

    def slice(self, start: int, stop: int) -> "TypedColumn":
        data = self.data[start:stop]
        nulls = self.nulls[start:stop] if self.nulls is not None else None
        return TypedColumn(self.kind, data, nulls, len(data))

    # -- mask consumption ---------------------------------------------
    def true_indices(self):
        """Indices (a numpy index array) where this boolean column is
        non-NULL ``True`` — the filter-selection primitive."""
        assert self.kind == KIND_BOOL
        if self.nulls is None:
            return _np.nonzero(self.data)[0]
        return _np.nonzero(self.data & ~self.nulls)[0]

    # -- interval bounds ----------------------------------------------
    def int_bounds(self) -> tuple[int, int]:
        """(min, max) over the int64 buffer *including* null fills —
        conservative (possibly wider than the true value range), which
        is the safe direction for overflow/exactness guards."""
        assert self.kind == KIND_I64
        if self.length == 0:
            return (0, 0)
        return (int(self.data.min()), int(self.data.max()))


# A batch column is either packed or a plain list of Python values.
AnyColumn = Union[TypedColumn, list]


def build_typed_column(
    values: Sequence[Value], sql_type: Optional[SQLType]
) -> Optional[TypedColumn]:
    """Pack *values* into a :class:`TypedColumn`, or return ``None``
    (the caller keeps the plain list) when numpy is not importable, the
    static type has no packed form (TEXT, unknown) or a value escapes
    the typed domain (an int outside int64 — exactness beats packing)."""
    packed = _PACKED.get(sql_type)  # type: ignore[arg-type]
    if packed is None or not HAVE_NUMPY:
        return None
    kind, dtype, zero = packed
    null_count = values.count(None) if isinstance(values, list) else sum(
        1 for v in values if v is None
    )
    if null_count:
        filled = [zero if v is None else v for v in values]
        flags = [v is None for v in values]
    else:
        filled = values if isinstance(values, list) else list(values)
        flags = None
    try:
        data = _np.array(filled, dtype=dtype)
    except (OverflowError, ValueError, TypeError):
        # A value escaped the typed domain (int64 overflow, stray type):
        # spill to the object representation.
        return None
    nulls = _np.array(flags, dtype=bool) if flags is not None else None
    return TypedColumn(kind, data, nulls, len(values))


def column_values(column: AnyColumn) -> list[Value]:
    """Plain-Python list view of any column representation."""
    if isinstance(column, TypedColumn):
        return column.values()
    return column


def column_slice(column: AnyColumn, start: int, stop: int) -> AnyColumn:
    if isinstance(column, TypedColumn):
        return column.slice(start, stop)
    return column[start:stop]


def _bool_column(mask, nulls) -> TypedColumn:
    return TypedColumn(KIND_BOOL, mask, nulls, len(mask))


def _union_nulls(a: Optional[object], b: Optional[object]):
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def concat_any_columns(parts: Sequence[AnyColumn]) -> AnyColumn:
    """Concatenate per-batch columns into one, preserving packing when
    every part is a packed column of the same kind."""
    if not parts:
        return []
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    if isinstance(first, TypedColumn) and all(
        isinstance(p, TypedColumn) and p.kind == first.kind for p in parts
    ):
        data = _np.concatenate([p.data for p in parts])
        if any(p.nulls is not None for p in parts):
            nulls = _np.concatenate(
                [
                    p.nulls
                    if p.nulls is not None
                    else _np.zeros(p.length, dtype=bool)
                    for p in parts
                ]
            )
        else:
            nulls = None
        return TypedColumn(first.kind, data, nulls, len(data))
    out: list[Value] = []
    for part in parts:
        out.extend(column_values(part))
    return out


def f64_has_nan(column: TypedColumn) -> bool:
    """Whether a float64 column contains NaN (NaN breaks total ordering
    and min/max associativity, so bulk paths step aside)."""
    return bool(_np.isnan(column.data).any())


def int_sum_exact(column: TypedColumn) -> int:
    """Exact sum of the non-NULL values of an int64 column: the bulk
    machine sum when the result provably fits int64, else the unbounded
    Python sum (bignums, never wraps)."""
    lo, hi = column.int_bounds()
    if max(abs(lo), abs(hi)) * column.length <= INT64_MAX:
        data = (
            column.data if column.nulls is None else column.data[~column.nulls]
        )
        return int(data.sum())
    return sum(v for v in column.values() if v is not None)


def typed_extreme(column: TypedColumn, want_max: bool) -> Value:
    """min/max over the non-NULL values, or None when there are none.
    NaN-containing float columns use the object path so the (order-
    dependent) Python min/max semantics are preserved exactly."""
    if column.kind in (KIND_I64, KIND_F64):
        data = (
            column.data if column.nulls is None else column.data[~column.nulls]
        )
        if data.size == 0:
            return None
        if not (column.kind == KIND_F64 and bool(_np.isnan(data).any())):
            return (data.max() if want_max else data.min()).item()
    present = [v for v in column.values() if v is not None]
    if not present:
        return None
    return max(present) if want_max else min(present)


# ---------------------------------------------------------------------------
# Bulk kernels (packed columns only; callers fall back to the object
# paths when these return None)
# ---------------------------------------------------------------------------

_CMP_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def vec_cmp_const(column: AnyColumn, op: str, const: Value) -> Optional[TypedColumn]:
    """``column <op> const`` as a bulk boolean mask, or None when no
    exact machine path exists."""
    if not isinstance(column, TypedColumn) or column.kind == KIND_BOOL:
        return None
    if isinstance(const, bool) or not isinstance(const, (int, float)):
        return None
    data, nulls = column.data, column.nulls
    if column.kind == KIND_I64:
        if isinstance(const, int):
            if INT64_MIN <= const <= INT64_MAX:
                mask = _CMP_OPS[op](data, const)
            else:
                # Every in-range int64 relates to an out-of-range
                # constant the same way.
                if const > INT64_MAX:
                    all_true = op in ("<", "<=", "<>")
                else:
                    all_true = op in (">", ">=", "<>")
                mask = _np.full(column.length, all_true, dtype=bool)
        else:  # int64 buffer vs float: exact only within ±2^53
            low, high = column.int_bounds()
            if low < -FLOAT_EXACT_INT or high > FLOAT_EXACT_INT:
                return None
            mask = _CMP_OPS[op](data, const)
    else:  # KIND_F64
        if isinstance(const, int) and not -FLOAT_EXACT_INT <= const <= FLOAT_EXACT_INT:
            return None
        mask = _CMP_OPS[op](data, float(const))
    return _bool_column(mask, nulls)


def vec_cmp(a: AnyColumn, b: AnyColumn, op: str) -> Optional[TypedColumn]:
    """``a <op> b`` column-vs-column as a bulk boolean mask."""
    if not (isinstance(a, TypedColumn) and isinstance(b, TypedColumn)):
        return None
    if a.kind == KIND_BOOL or b.kind == KIND_BOOL:
        return None
    if a.kind != b.kind:
        # int64 promotes to float64 for the machine comparison; exact
        # only while the int side is within ±2^53.
        int_side = a if a.kind == KIND_I64 else b
        low, high = int_side.int_bounds()
        if low < -FLOAT_EXACT_INT or high > FLOAT_EXACT_INT:
            return None
    mask = _CMP_OPS[op](a.data, b.data)
    return _bool_column(mask, _union_nulls(a.nulls, b.nulls))


def vec_isnull(column: AnyColumn, negated: bool) -> Optional[TypedColumn]:
    if not isinstance(column, TypedColumn):
        return None
    if column.nulls is None:
        mask = _np.full(column.length, negated, dtype=bool)
    else:
        mask = ~column.nulls if negated else column.nulls.copy()
    return _bool_column(mask, None)


def vec_and(a: AnyColumn, b: AnyColumn) -> Optional[TypedColumn]:
    """Three-valued AND over boolean columns: false dominates unknown."""
    if not (isinstance(a, TypedColumn) and isinstance(b, TypedColumn)):
        return None
    if a.kind != KIND_BOOL or b.kind != KIND_BOOL:
        return None
    va, vb = a.data, b.data
    if a.nulls is None and b.nulls is None:
        return _bool_column(va & vb, None)
    na = a.nulls if a.nulls is not None else _np.zeros(a.length, dtype=bool)
    nb = b.nulls if b.nulls is not None else _np.zeros(b.length, dtype=bool)
    either_false = (~va & ~na) | (~vb & ~nb)
    nulls = (na | nb) & ~either_false
    return _bool_column(va & vb, nulls if nulls.any() else None)


def vec_or(a: AnyColumn, b: AnyColumn) -> Optional[TypedColumn]:
    """Three-valued OR over boolean columns: true dominates unknown."""
    if not (isinstance(a, TypedColumn) and isinstance(b, TypedColumn)):
        return None
    if a.kind != KIND_BOOL or b.kind != KIND_BOOL:
        return None
    va, vb = a.data, b.data
    if a.nulls is None and b.nulls is None:
        return _bool_column(va | vb, None)
    na = a.nulls if a.nulls is not None else _np.zeros(a.length, dtype=bool)
    nb = b.nulls if b.nulls is not None else _np.zeros(b.length, dtype=bool)
    either_true = (va & ~na) | (vb & ~nb)
    nulls = (na | nb) & ~either_true
    return _bool_column(va | vb, nulls if nulls.any() else None)


def vec_not(a: AnyColumn) -> Optional[TypedColumn]:
    if not isinstance(a, TypedColumn) or a.kind != KIND_BOOL:
        return None
    return _bool_column(~a.data, a.nulls)


def vec_neg(a: AnyColumn) -> Optional[AnyColumn]:
    """Unary minus; spills to the exact object path when negating could
    overflow int64 (only ``-INT64_MIN``)."""
    if not isinstance(a, TypedColumn) or a.kind == KIND_BOOL:
        return None
    if a.kind == KIND_I64:
        low, _ = a.int_bounds()
        if low == INT64_MIN:
            return [None if v is None else -v for v in a.values()]
        return TypedColumn(KIND_I64, -a.data, a.nulls, a.length)
    return TypedColumn(KIND_F64, -a.data, a.nulls, a.length)


def _operand_info(operand):
    """(is_column, kind, bounds) for a TypedColumn or scalar operand."""
    if isinstance(operand, TypedColumn):
        if operand.kind == KIND_I64:
            return True, KIND_I64, operand.int_bounds()
        if operand.kind == KIND_F64:
            return True, KIND_F64, None
        return True, None, None  # BOOL columns never enter arithmetic
    if isinstance(operand, bool):
        return False, None, None
    if isinstance(operand, int):
        return False, KIND_I64, (operand, operand)
    if isinstance(operand, float):
        return False, KIND_F64, None
    return False, None, None


def _spill_arith(op: str, a, b, length: int) -> list[Value]:
    """Exact Python evaluation into an object column (the mandatory
    spill path: int64 overflow promotes to bignums, never wraps)."""
    from ..datatypes import arith

    a_vals = a.values() if isinstance(a, TypedColumn) else [a] * length
    b_vals = b.values() if isinstance(b, TypedColumn) else [b] * length
    if op == "+":
        return [
            None if x is None or y is None else x + y for x, y in zip(a_vals, b_vals)
        ]
    if op == "-":
        return [
            None if x is None or y is None else x - y for x, y in zip(a_vals, b_vals)
        ]
    if op == "*":
        return [
            None if x is None or y is None else x * y for x, y in zip(a_vals, b_vals)
        ]
    return [arith(op, x, y) for x, y in zip(a_vals, b_vals)]


def vec_arith(op: str, a, b, length: int) -> Optional[AnyColumn]:
    """Bulk arithmetic over ``TypedColumn | scalar`` operands.

    Returns a packed column on the machine path, an object list from
    the exact spill path, or None when no bulk path applies (caller
    falls back to the per-element kernels).
    """
    a_col, a_kind, a_bounds = _operand_info(a)
    b_col, b_kind, b_bounds = _operand_info(b)
    if a_kind is None or b_kind is None:
        return None
    if not (a_col or b_col):
        return None
    # A scalar int operand beyond int64 cannot enter a numpy kernel at
    # all (the operand conversion itself overflows, even when the
    # *result* interval fits). Exact object evaluation instead.
    for is_col, kind, scalar in ((a_col, a_kind, a), (b_col, b_kind, b)):
        if not is_col and kind == KIND_I64 and not (INT64_MIN <= scalar <= INT64_MAX):
            if op in ("+", "-", "*"):
                return _spill_arith(op, a, b, length)
            return None  # caller's per-element kernel is exact

    a_nulls = a.nulls if a_col else None
    b_nulls = b.nulls if b_col else None
    nulls = _union_nulls(a_nulls, b_nulls)
    both_int = a_kind == KIND_I64 and b_kind == KIND_I64

    if op in ("+", "-", "*"):
        ad = a.data if a_col else a
        bd = b.data if b_col else b
        if both_int:
            low, high = arith_interval(op, a_bounds, b_bounds)
            if low < INT64_MIN or high > INT64_MAX:
                return _spill_arith(op, a, b, length)
            if op == "+":
                data = ad + bd
            elif op == "-":
                data = ad - bd
            else:
                data = ad * bd
            return TypedColumn(KIND_I64, data, nulls, length)
        # Mixed or float: float64 result. int64 -> float64 casts round
        # to nearest, exactly as Python's int -> float conversion does,
        # so the machine result matches the row engine bit for bit.
        if op == "+":
            data = ad + bd
        elif op == "-":
            data = ad - bd
        else:
            data = ad * bd
        if data.dtype != _np.float64:  # e.g. int column + float scalar edge
            data = data.astype(_np.float64)
        return TypedColumn(KIND_F64, data, nulls, length)

    if op == "/":
        # Any true zero divisor must raise in row order — leave that to
        # the exact per-element kernel.
        if b_col:
            bd = b.data
            valid = ~b.nulls if b.nulls is not None else None
            zeros = (bd == 0) & valid if valid is not None else bd == 0
            if bool(zeros.any()):
                return None
            if b.nulls is not None:
                bd = _np.where(b.nulls, 1, bd)
        else:
            if b == 0:
                return None
            bd = b
        ad = a.data if a_col else a
        if both_int:
            # SQL integer division truncates toward zero; only
            # INT64_MIN / -1 can overflow.
            if a_bounds[0] == INT64_MIN:
                if b_col:
                    minus_one = bd == -1
                    if bool(minus_one.any()):
                        return _spill_arith(op, a, b, length)
                elif b == -1:
                    return _spill_arith(op, a, b, length)
            remainder = _np.fmod(ad, bd)
            data = (ad - remainder) // bd
            return TypedColumn(KIND_I64, data, nulls, length)
        data = ad / bd
        if data.dtype != _np.float64:
            data = data.astype(_np.float64)
        return TypedColumn(KIND_F64, data, nulls, length)

    if op == "%":
        if not both_int:
            return None  # % requires ints; let the exact kernel raise
        if b_col:
            bd = b.data
            valid = ~b.nulls if b.nulls is not None else None
            zeros = (bd == 0) & valid if valid is not None else bd == 0
            if bool(zeros.any()):
                return None
            if b.nulls is not None:
                bd = _np.where(b.nulls, 1, bd)
            if a_bounds[0] == INT64_MIN and bool((bd == -1).any()):
                return _spill_arith(op, a, b, length)
        else:
            if b == 0:
                return None
            if a_bounds[0] == INT64_MIN and b == -1:
                return _spill_arith(op, a, b, length)
            bd = b
        ad = a.data if a_col else a
        # C-style fmod on int64 is the truncated remainder — exactly
        # SQL's sign-of-the-dividend modulo.
        data = _np.fmod(ad, bd)
        return TypedColumn(KIND_I64, data, nulls, length)

    return None
