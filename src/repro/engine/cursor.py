"""DB-API 2.0 cursors over a Perm connection.

A :class:`Cursor` executes statements through the connection's shared
pipeline + plan cache, materializes the result relation, and exposes the
standard PEP 249 surface: ``description`` (7-tuples), ``rowcount``,
``fetchone``/``fetchmany``/``fetchall``, iteration, ``arraysize``, and
context-manager support. Perm-specific extras: ``relation`` (the full
:class:`~repro.storage.table.Relation`, including formatting helpers) and
``provenance_attrs`` (which output columns carry provenance — the
Figure 2 split of original vs provenance attributes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..datatypes import SQLType, Value
from ..errors import ProgrammingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.table import Relation
    from .connection import Connection

Row = tuple[Value, ...]

# PEP 249 description entry:
# (name, type_code, display_size, internal_size, precision, scale, null_ok)
DescriptionRow = tuple[str, SQLType, None, None, None, None, None]


class Cursor:
    """A cursor bound to one :class:`~repro.engine.connection.Connection`."""

    def __init__(self, connection: "Connection"):
        self.connection = connection
        self.arraysize = 1
        self._closed = False
        self._relation: Optional["Relation"] = None
        self._rows: list[Row] = []
        self._pos = 0
        self._rowcount = -1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: object = None) -> "Cursor":
        """Execute *sql* (optionally parameterized) and make this cursor
        hold its result. Returns ``self`` so calls chain, sqlite3-style."""
        self._check_open()
        relation, rowcount = self.connection._execute_sql(sql, params)
        self._install(relation, rowcount)
        return self

    def executemany(self, sql: str, seq_of_params: Iterable[object]) -> "Cursor":
        """Execute one statement once per parameter set. The statement is
        parsed (and, for queries, planned) only once; ``rowcount``
        accumulates affected rows across all sets."""
        self._check_open()
        relation, rowcount = self.connection._execute_sql_many(sql, seq_of_params)
        self._install(relation, rowcount)
        return self

    def _install(self, relation: Optional["Relation"], rowcount: int) -> None:
        self._relation = relation
        self._rows = list(relation.rows) if relation is not None else []
        self._pos = 0
        self._rowcount = rowcount

    # ------------------------------------------------------------------
    # Result access
    # ------------------------------------------------------------------
    @property
    def description(self) -> Optional[list[DescriptionRow]]:
        if self._relation is None:
            return None
        return [
            (attribute.name, attribute.type, None, None, None, None, None)
            for attribute in self._relation.schema
        ]

    @property
    def rowcount(self) -> int:
        return self._rowcount

    @property
    def relation(self) -> Optional["Relation"]:
        """The full result relation of the last execute (Perm extra)."""
        return self._relation

    @property
    def provenance_attrs(self) -> tuple[str, ...]:
        """Output columns that carry provenance (Perm extra)."""
        return self._relation.provenance_attrs if self._relation is not None else ()

    def fetchone(self) -> Optional[Row]:
        self._check_result()
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[Row]:
        self._check_result()
        count = self.arraysize if size is None else size
        if count < 0:
            raise ProgrammingError("fetchmany() size must be >= 0")
        chunk = self._rows[self._pos : self._pos + count]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> list[Row]:
        self._check_result()
        chunk = self._rows[self._pos :]
        self._pos = len(self._rows)
        return chunk

    def __iter__(self) -> Iterator[Row]:
        return self

    def __next__(self) -> Row:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # ------------------------------------------------------------------
    # Lifecycle / PEP 249 no-ops
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True
        self._relation = None
        self._rows = []
        self._pos = 0

    def setinputsizes(self, sizes: Sequence[object]) -> None:  # pragma: no cover
        """PEP 249 compliance; sizes are irrelevant to this engine."""

    def setoutputsize(self, size: int, column: Optional[int] = None) -> None:  # pragma: no cover
        """PEP 249 compliance; sizes are irrelevant to this engine."""

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("cursor is closed")
        if self.connection.closed:
            raise ProgrammingError("connection is closed")

    def _check_result(self) -> None:
        """PEP 249: fetching before any execute is an error, so an
        accidentally skipped execute() never reads as an empty result."""
        self._check_open()
        if self._relation is None:
            raise ProgrammingError(
                "no result set available (execute a statement first)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._rows)} row(s)"
        return f"<repro.Cursor {state}>"
