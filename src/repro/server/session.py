"""Per-connection server sessions.

A :class:`Session` owns exactly one embedded
:class:`~repro.engine.Connection` plus the wire-visible state around it:
the engine choice and autocommit mode (set by HELLO), the open
transaction (BEGIN/COMMIT/ROLLBACK travel over the wire like any other
request), numbered prepared-statement handles, and per-session counters.

``handle()`` is synchronous and runs on a worker-pool thread; the
server serializes requests per connection (it never reads the next
request before responding to the current one), so a session is only
ever executing one request at a time — possibly on different pool
threads, which the engine tolerates because the MVCC activation is
scoped to each statement. ``handle()`` never raises: every failure
becomes a structured error response."""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..engine.connection import Connection, resolve_engine
from ..engine.database import Database
from ..errors import OperationalError, PermError, ProgrammingError, SerializationError
from . import protocol
from .stats import ServerStats, SessionStats


class Session:
    def __init__(
        self,
        database: Database,
        server_stats: ServerStats,
        session_id: int,
        default_engine: Optional[str] = None,
        server_snapshot: Optional[Callable[[], dict]] = None,
    ):
        self.database = database
        self.session_id = session_id
        self.stats = SessionStats()
        self._server_stats = server_stats
        self._server_snapshot = server_snapshot or (lambda: {})
        self._engine = resolve_engine(default_engine)
        self._autocommit = True
        self._conn: Optional[Connection] = None
        self._prepared: dict[int, object] = {}
        self._next_handle = 1
        self._retries_reported = 0

    # ------------------------------------------------------------------
    @property
    def connection(self) -> Connection:
        if self._conn is None:
            self._conn = Connection(
                database=self.database,
                engine=self._engine,
                autocommit=self._autocommit,
            )
        return self._conn

    def handle(self, message: dict) -> dict:
        """Execute one request; always returns a response payload."""
        started = time.perf_counter()
        try:
            response = self._dispatch(message)
        except SerializationError as exc:
            self.stats.conflicts += 1
            self._server_stats.bump("conflicts")
            self.stats.errors += 1
            self._server_stats.bump("errors")
            response = protocol.error_response(exc)
        except BaseException as exc:  # noqa: BLE001 - becomes a wire error
            self.stats.errors += 1
            self._server_stats.bump("errors")
            response = protocol.error_response(exc)
        finally:
            self._account_retries()
        elapsed = time.perf_counter() - started
        op = message.get("op")
        if op in ("query", "execute"):
            self.stats.latency.record(elapsed)
            self._server_stats.latency.record(elapsed)
        return response

    def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        if op == "hello":
            return self._op_hello(message)
        if op == "query":
            return self._op_query(message)
        if op == "prepare":
            return self._op_prepare(message)
        if op == "execute":
            return self._op_execute(message)
        if op in ("begin", "commit", "rollback"):
            return self._op_txn(op)
        if op == "stats":
            return self.stats_response()
        raise ProgrammingError(f"unknown protocol op {op!r}")

    # ------------------------------------------------------------------
    def _op_hello(self, message: dict) -> dict:
        if self._conn is not None:
            raise OperationalError("HELLO must precede the first statement")
        if "engine" in message and message["engine"] is not None:
            self._engine = resolve_engine(str(message["engine"]))
        if "autocommit" in message and message["autocommit"] is not None:
            self._autocommit = bool(message["autocommit"])
        return {
            "ok": True,
            "server": "repro",
            "protocol": protocol.PROTOCOL_VERSION,
            "session": self.session_id,
            "engine": self._engine,
            "autocommit": self._autocommit,
        }

    def _op_query(self, message: dict) -> dict:
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProgrammingError("query requires a non-empty 'sql' string")
        params = _params(message)
        cursor = self.connection.execute(sql, params)
        self.stats.queries += 1
        self._server_stats.bump("queries")
        return _result_response(cursor)

    def _op_prepare(self, message: dict) -> dict:
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProgrammingError("prepare requires a non-empty 'sql' string")
        statement = self.connection.prepare(sql)
        handle = self._next_handle
        self._next_handle += 1
        self._prepared[handle] = statement
        return {
            "ok": True,
            "handle": handle,
            "columns": statement.columns,
            "parameters": statement.parameter_count,
        }

    def _op_execute(self, message: dict) -> dict:
        handle = message.get("handle")
        statement = self._prepared.get(handle)  # type: ignore[arg-type]
        if statement is None:
            raise ProgrammingError(f"unknown prepared-statement handle {handle!r}")
        relation = statement.execute(_params(message))  # type: ignore[union-attr]
        self.stats.queries += 1
        self._server_stats.bump("queries")
        return {
            "ok": True,
            "columns": list(relation.columns),
            "rows": protocol.rows_to_wire(relation.rows),
            "rowcount": len(relation.rows),
            "provenance": list(relation.provenance_attrs),
        }

    def _op_txn(self, op: str) -> dict:
        conn = self.connection
        if op == "begin":
            conn.begin()
        elif op == "commit":
            conn.commit()
        else:
            conn.rollback()
        return {"ok": True, "in_transaction": conn.in_transaction}

    def stats_response(self) -> dict:
        retries = self._conn.serialization_retries if self._conn else 0
        return {
            "ok": True,
            "session": self.stats.snapshot(retries=retries),
            "server": self._server_snapshot(),
            "gc": self.database.gc_stats(),
            "wal": self.database.wal_stats(),
            "matviews": self.database.matview_stats(),
            "backend": self._conn.planner.backend_counters() if self._conn else {},
        }

    # ------------------------------------------------------------------
    def _account_retries(self) -> None:
        """Fold this connection's autocommit retry counter into the
        server-wide total (delta since last report)."""
        if self._conn is None:
            return
        current = self._conn.serialization_retries
        delta = current - self._retries_reported
        if delta > 0:
            self._server_stats.bump("retries", delta)
            self._retries_reported = current

    def teardown(self) -> None:
        """Session end (CLOSE or disconnect): roll back any open
        transaction and release the embedded connection. Safe to call
        more than once."""
        conn, self._conn = self._conn, None
        self._prepared.clear()
        if conn is not None:
            try:
                conn.close()  # close() rolls back an open transaction
            except PermError:  # pragma: no cover - teardown is best-effort
                pass


def _params(message: dict):
    params = message.get("params")
    if params is None or isinstance(params, (list, dict)):
        return protocol.params_from_wire(params)
    raise ProgrammingError("params must be a list (positional) or object (named)")


def _result_response(cursor) -> dict:
    description = cursor.description
    return {
        "ok": True,
        "columns": [entry[0] for entry in description] if description else [],
        "rows": protocol.rows_to_wire(cursor.fetchall()),
        "rowcount": cursor.rowcount,
        "provenance": list(cursor.provenance_attrs or ()),
    }
