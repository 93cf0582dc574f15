"""DuckDB pushdown backend (optional).

The second proof of backend pluggability: the same shared plan compiler
(:mod:`repro.backend.compile`) drives an embedded DuckDB mirror through
the :class:`~repro.backend.runtime.MirrorAdapter` contract and the
:class:`~repro.backend.dialects.duckdb.DuckDBDialect`. The module is
*optional*: :mod:`repro.backend.registry` only registers the
``"duckdb"`` engine when the :mod:`duckdb` module is importable, so on
hosts without it the engine name is simply unknown (and this module is
never imported — importing it directly raises ImportError).

Differences from the SQLite adapter, all expressed through the contract
rather than special cases in the compiler:

* *Mirrors are typed.* DuckDB columns need declared types; mirrors use
  the dialect's type names, except BOOL which is stored as BIGINT 0/1 —
  the storage convention every adapter shares (plans restore booleans
  from the static output schema).
* *The scan ordinal is explicit.* Instead of relying on a rowid
  pseudo-column, mirrors and fragments carry a materialized position
  column in heap/insertion order (fragments name theirs ``rowid``
  because the fallback SQL addresses fragment order by that name — the
  documented adapter contract).
* *UDF registration is typed.* DuckDB's Python scalar functions take
  declared signatures; the engine-exact ``repro_*`` helpers register
  with ANY-typed parameters where the host build supports them.

Like every pushdown backend, correctness is defined by the N-way
differential harness: on hosts with DuckDB installed the ``duckdb``
engine joins the registered-backend matrix and must be bit-identical
(or fall back) against the row engine; where it is absent all of its
tests skip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import duckdb

from ..datatypes import SQLType, Value
from ..errors import ExecutionError
from ..executor.expr_eval import Row
from ..scalars import SCALARS
from .dialects.base import quote_identifier_always as quote_identifier
from .dialects.duckdb import DuckDBDialect, INT64_MAX, INT64_MIN
from .runtime import IntegerRangeEscape, MirrorAdapter, adapt_row, adapt_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog
    from ..storage.table import HeapTable

#: Hidden mirror column carrying heap order (DuckDB exposes no stable
#: rowid contract for in-memory tables, so the ordinal is materialized).
POS_COLUMN = "#pos"

#: Mirror storage types: BOOL rides as BIGINT 0/1 (shared convention).
_STORAGE_TYPES = {
    SQLType.INT: "BIGINT",
    SQLType.FLOAT: "DOUBLE",
    SQLType.TEXT: "VARCHAR",
    SQLType.BOOL: "BIGINT",
    SQLType.NULL: "VARCHAR",
}


class DuckDBBackend(MirrorAdapter):
    """One in-memory DuckDB database mirroring one catalog."""

    dialect_class = DuckDBDialect
    supports_full_join = True  # native RIGHT/FULL OUTER JOIN
    native_float_agg = False  # DuckDB parallelizes/compensates sum()

    def __init__(self, catalog: "Catalog"):
        super().__init__(catalog)
        self.connection = duckdb.connect(":memory:")
        # table key -> (heap object, heap version, schema signature)
        self._mirror: dict[str, tuple] = {}
        self._register_udfs()

    # ------------------------------------------------------------------
    # User-defined functions: exact repro.scalars semantics inside DuckDB
    # ------------------------------------------------------------------
    def _register_udfs(self) -> None:
        try:
            any_type = duckdb.typing.DuckDBPyType("ANY")
        except Exception:  # pragma: no cover - host-version dependent
            any_type = None

        def create(name: str, impl) -> None:
            # parameters=None: DuckDB reads the signature off the
            # wrapper, whose ``*args`` makes a true varargs function —
            # one registration serves every arity the table allows.
            kwargs = {"null_handling": "special", "exception_handling": "default"}
            try:
                self.connection.create_function(
                    f"repro_{name}", self._wrap_udf(impl), None, any_type, **kwargs
                )
            except Exception as exc:  # pragma: no cover - host-dependent
                # A host build that cannot register this signature keeps
                # the engine usable: statements that reference the
                # function raise a binder error, surfaced as an
                # ExecutionError by run_statement.
                self._udf_failures[f"repro_{name}"] = str(exc)

        self._udf_failures: dict[str, str] = {}
        for name, entry in SCALARS.items():
            create(name, entry.kernel)
        create("slot", self._read_slot)
        # Naive left-to-right float aggregation is not expressible as a
        # DuckDB Python aggregate; the compiler's order-sensitivity
        # gates already fall back for float sum/avg (native_float_agg
        # is False and fsum/favg stay unregistered, so any statement
        # reaching for them delegates through the fallback machinery).

    def _wrap_udf(self, impl):
        def wrapped(*args):
            try:
                result = adapt_value(impl(list(args)))
                if type(result) is int and not (INT64_MIN <= result <= INT64_MAX):
                    raise IntegerRangeEscape(f"UDF result {result} exceeds int64")
                return result
            except Exception as exc:
                # DuckDB rewraps Python exceptions; stash the original so
                # run_statement re-raises it with type and message intact.
                self._pending_error = exc
                raise

        return wrapped

    # ------------------------------------------------------------------
    # Mirroring
    # ------------------------------------------------------------------
    def sync_table(self, name: str) -> None:
        entry = self.catalog.scan_entry(name)
        heap = entry.table
        key = name.lower()
        signature = (
            heap,
            heap.version,
            tuple((a.name, a.type) for a in heap.schema),
        )
        known = self._mirror.get(key)
        if known is not None and known[0] is heap and known[1:] == signature[1:]:
            return
        qname = f"main.{quote_identifier(key)}"
        columns = ", ".join(
            f"{quote_identifier(a.name)} {_STORAGE_TYPES[a.type]}"
            for a in heap.schema
        ) + f", {quote_identifier(POS_COLUMN)} BIGINT"
        self.connection.execute(f"DROP TABLE IF EXISTS {qname}")
        self.connection.execute(f"CREATE TABLE {qname} ({columns})")
        placeholders = ", ".join("?" for _ in range(len(heap.schema) + 1))
        insert = f"INSERT INTO {qname} VALUES ({placeholders})"
        rows = [adapt_row(r) + (pos,) for pos, r in enumerate(heap.rows)]
        for row in rows:
            for value in row:
                if type(value) is int and not (INT64_MIN <= value <= INT64_MAX):
                    self._mirror.pop(key, None)
                    raise IntegerRangeEscape(
                        f"table {name!r} holds an integer beyond int64"
                    )
        try:
            self.connection.executemany(insert, rows)
        except duckdb.Error as exc:
            self._mirror.pop(key, None)
            raise ExecutionError(
                f"cannot mirror table {name!r} into the duckdb backend: {exc}"
            ) from exc
        self._mirror[key] = signature
        self.tables_synced += 1

    def scan_source(self, table_key: str) -> str:
        return f"main.{quote_identifier(table_key)}"

    def scan_ordinal(self, columns: Sequence[str]) -> Optional[str]:
        if POS_COLUMN in {c.lower() for c in columns}:
            return None
        return POS_COLUMN

    def materialize_fragment(self, frag: str, rows: list[Row], width: int) -> None:
        # The fallback SQL addresses fragment order as ``rowid`` (the
        # adapter contract); DuckDB gets it as a real column.
        qname = f"temp.{quote_identifier(frag)}"
        self.connection.execute(f"DROP TABLE IF EXISTS {qname}")
        columns = ", ".join(
            [f"c{i} {_fragment_type(rows, i)}" for i in range(width)]
            + ["rowid BIGINT"]
        )
        self.connection.execute(f"CREATE TEMP TABLE {qname} ({columns})")
        placeholders = ", ".join("?" for _ in range(width + 1))
        adapted = [adapt_row(r) + (pos,) for pos, r in enumerate(rows)]
        for row in adapted:
            for value in row:
                if type(value) is int and not (INT64_MIN <= value <= INT64_MAX):
                    raise IntegerRangeEscape(
                        f"fragment {frag!r} holds an integer beyond int64"
                    )
        self.connection.executemany(
            f"INSERT INTO {qname} VALUES ({placeholders})", adapted
        )

    def fragment_source(self, frag: str) -> str:
        return f"temp.{quote_identifier(frag)}"

    def drop_fragment(self, frag: str) -> None:
        try:
            self.connection.execute(
                f"DROP TABLE IF EXISTS temp.{quote_identifier(frag)}"
            )
        except duckdb.Error:  # pragma: no cover - connection already closed
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_statement(self, sql: str, binds: dict[str, Value]) -> list[Row]:
        self._pending_error = None
        for value in binds.values():
            if type(value) is int and not (INT64_MIN <= value <= INT64_MAX):
                raise IntegerRangeEscape("bound value exceeds int64")
        try:
            rows = self.connection.execute(sql, binds).fetchall()
        except duckdb.Error as exc:
            pending, self._pending_error = self._pending_error, None
            if pending is not None:
                raise pending
            if "out of range" in str(exc).lower() or "overflow" in str(exc).lower():
                raise IntegerRangeEscape(str(exc)) from exc
            raise ExecutionError(f"duckdb backend: {exc}") from exc
        self.statements_executed += 1
        return rows

    def close(self) -> None:
        self.connection.close()


def _fragment_type(rows: list[Row], index: int) -> str:
    """Declared type of fragment column *index*, from the first non-NULL
    value (fragments carry row-engine output; a column's values share
    one static type)."""
    for row in rows:
        value = row[index]
        if value is None:
            continue
        if isinstance(value, bool) or isinstance(value, int):
            return "BIGINT"
        if isinstance(value, float):
            return "DOUBLE"
        return "VARCHAR"
    return "VARCHAR"
