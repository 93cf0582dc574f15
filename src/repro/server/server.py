"""The asyncio socket server.

One event loop accepts connections and frames messages; all engine work
runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor` so a
long provenance query never stalls the loop. Requests on one connection
are strictly serialized (read -> execute -> respond), so each session is
single-threaded from the engine's point of view; different sessions run
genuinely concurrently, sharing one :class:`~repro.engine.Database`
under row-level MVCC.

Admission control, enforced before any engine work:

* ``max_sessions`` — connections beyond it are greeted with a
  structured :class:`~repro.errors.ServerBusy` error frame and closed;
* ``max_pending`` — a global bound on queued-plus-running requests
  across all sessions; requests beyond it get a ``ServerBusy`` response
  (the session survives; the client backs off and retries).

A client that disconnects mid-session (even mid-query) is torn down
defensively: its open transaction is rolled back and its session slot
freed, so abandoned clients can neither leak snapshots (which would pin
version GC) nor exhaust admission slots.

:class:`ServerThread` runs the whole thing on a background thread for
tests, benchmarks and embedding.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..engine.database import Database
from ..errors import OperationalError, PermError, ServerBusy
from . import protocol
from .session import Session
from .stats import ServerStats

DEFAULT_PORT = 5433  # one past PostgreSQL, in the paper's spirit


class PermServer:
    """A provenance SQL server over one shared :class:`Database`."""

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 256,
        max_workers: int = 8,
        max_pending: int = 128,
        default_engine: Optional[str] = None,
    ):
        self.database = database if database is not None else Database()
        self.host = host
        self.port = port  # 0 = ephemeral; replaced once listening
        self.max_sessions = max_sessions
        self.max_pending = max_pending
        self.default_engine = default_engine
        self.stats = ServerStats()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-worker"
        )
        self._session_ids = itertools.count(1)
        self._pending = 0
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise OperationalError("server is already running")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)

    def snapshot(self) -> dict:
        """Server-wide counters plus version-GC stats (the ``server``
        half of a STATS response)."""
        snap = self.stats.snapshot()
        snap["max_sessions"] = self.max_sessions
        snap["max_pending"] = self.max_pending
        return snap

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.stats.sessions_open >= self.max_sessions:
            self.stats.bump("sessions_rejected")
            await self._try_write(
                writer,
                protocol.error_response(
                    ServerBusy(
                        f"session limit reached ({self.max_sessions}); retry later"
                    )
                ),
            )
            writer.close()
            return
        self.stats.bump("sessions_open")
        self.stats.bump("sessions_total")
        session = Session(
            self.database,
            self.stats,
            session_id=next(self._session_ids),
            default_engine=self.default_engine,
            server_snapshot=self.snapshot,
        )
        loop = asyncio.get_running_loop()
        clean = False
        try:
            while True:
                message = await self._read_message(reader)
                if message is None:
                    break  # EOF: client went away
                if message.get("op") == "close":
                    await self._try_write(writer, {"ok": True, "bye": True})
                    clean = True
                    break
                response = await self._execute(loop, session, message)
                if not await self._try_write(writer, response):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # disconnect mid-frame: teardown below still runs
        finally:
            if not clean:
                self.stats.bump("disconnects")
            self.stats.bump("sessions_open", -1)
            # Teardown rolls back the session's open transaction and
            # frees its snapshot; run it on the pool like any other
            # engine work.
            await loop.run_in_executor(self._pool, session.teardown)
            writer.close()

    async def _execute(
        self, loop: asyncio.AbstractEventLoop, session: Session, message: dict
    ) -> dict:
        if self._pending >= self.max_pending:
            self.stats.bump("busy_rejections")
            return protocol.error_response(
                ServerBusy(
                    f"request queue is full ({self.max_pending} in flight); "
                    "retry later"
                )
            )
        self._pending += 1
        try:
            return await loop.run_in_executor(self._pool, session.handle, message)
        finally:
            self._pending -= 1

    async def _read_message(
        self, reader: asyncio.StreamReader
    ) -> Optional[dict]:
        try:
            header = await reader.readexactly(protocol.HEADER_SIZE)
            body = await reader.readexactly(protocol.frame_length(header))
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return protocol.decode_body(body)

    async def _try_write(self, writer: asyncio.StreamWriter, message: dict) -> bool:
        try:
            writer.write(protocol.encode_frame(message))
            await writer.drain()
            return True
        except (ConnectionError, PermError):
            return False


class ServerThread:
    """Run a :class:`PermServer` on a background thread (tests,
    benchmarks, and embedding a server next to application code).

    >>> with ServerThread(PermServer()) as handle:   # doctest: +SKIP
    ...     client = ServerClient("127.0.0.1", handle.port)
    """

    def __init__(self, server: PermServer):
        self.server = server
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise OperationalError(f"server failed to start: {self._error}")
        if not self._ready.is_set():
            raise OperationalError("server did not start within 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
