"""A small blocking client for the wire protocol.

Used by the integration tests, the ``served_mixed`` workload of
``benchmarks/e2e`` and as the reference implementation of the protocol
from the consumer side. One socket, one session; requests are
synchronous (send a frame, read the response frame). Server-reported
errors re-raise as the PEP 249 exception class the embedded API would
have raised (:class:`~repro.errors.ServerBusy` and
:class:`~repro.errors.SerializationError` are the retryable ones).
"""

from __future__ import annotations

import socket
from typing import Optional

from ..errors import OperationalError
from . import protocol


class ServerError(OperationalError):
    """A response frame that was not understandable as success or a
    structured error (protocol violation, truncated stream)."""


class QueryResult:
    """One statement's result: columns, rows (as tuples), rowcount and
    which columns carry provenance."""

    __slots__ = ("columns", "rows", "rowcount", "provenance_attrs")

    def __init__(self, payload: dict):
        self.columns: list[str] = list(payload.get("columns") or [])
        self.rows: list[tuple] = protocol.rows_from_wire(payload.get("rows"))
        self.rowcount: int = int(payload.get("rowcount", -1))
        self.provenance_attrs: tuple[str, ...] = tuple(payload.get("provenance") or ())

    def fetchall(self) -> list[tuple]:
        return list(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class PreparedHandle:
    """A server-side prepared statement, executable by handle."""

    __slots__ = ("_client", "handle", "columns", "parameters")

    def __init__(self, client: "ServerClient", payload: dict):
        self._client = client
        self.handle: int = payload["handle"]
        self.columns: list[str] = list(payload.get("columns") or [])
        self.parameters: int = int(payload.get("parameters", 0))

    def execute(self, params: Optional[object] = None) -> QueryResult:
        return QueryResult(
            self._client.request(
                {
                    "op": "execute",
                    "handle": self.handle,
                    "params": protocol.params_to_wire(params),
                }
            )
        )


class ServerClient:
    """A blocking protocol client (context-manager friendly)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5433,
        engine: Optional[str] = None,
        autocommit: Optional[bool] = None,
        timeout: Optional[float] = 30.0,
        hello: bool = True,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._closed = False
        self.server_info: dict = {}
        if hello:
            self.server_info = self.request(
                {"op": "hello", "engine": engine, "autocommit": autocommit}
            )

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    def _recv_exactly(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ServerError("server closed the connection mid-frame")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def request(self, message: dict) -> dict:
        """Send one request frame, read one response frame; raises the
        server-reported exception on failure, returns the payload on
        success."""
        if self._closed:
            raise ServerError("client is closed")
        self._sock.sendall(protocol.encode_frame(message))
        header = self._recv_exactly(protocol.HEADER_SIZE)
        payload = protocol.decode_body(
            self._recv_exactly(protocol.frame_length(header))
        )
        if payload.get("ok"):
            return payload
        error = payload.get("error")
        if isinstance(error, dict):
            raise protocol.exception_from_payload(error)
        raise ServerError(f"malformed server response: {payload!r}")

    # ------------------------------------------------------------------
    # SQL surface
    # ------------------------------------------------------------------
    def query(self, sql: str, params: Optional[object] = None) -> QueryResult:
        return QueryResult(
            self.request(
                {"op": "query", "sql": sql, "params": protocol.params_to_wire(params)}
            )
        )

    execute = query  # DB-API-flavored alias

    def prepare(self, sql: str) -> PreparedHandle:
        return PreparedHandle(self, self.request({"op": "prepare", "sql": sql}))

    def begin(self) -> None:
        self.request({"op": "begin"})

    def commit(self) -> None:
        self.request({"op": "commit"})

    def rollback(self) -> None:
        self.request({"op": "rollback"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._sock.sendall(protocol.encode_frame({"op": "close"}))
            header = self._recv_exactly(protocol.HEADER_SIZE)
            self._recv_exactly(protocol.frame_length(header))
        except (OSError, ServerError):
            pass  # best-effort goodbye; the server tears down either way
        finally:
            self._closed = True
            self._sock.close()

    def disconnect(self) -> None:
        """Drop the socket without the CLOSE handshake (tests use this
        to exercise the server's abrupt-disconnect teardown)."""
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
