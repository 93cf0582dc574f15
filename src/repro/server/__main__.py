"""``python -m repro.server`` — start the SQL server from the shell.

Example::

    python -m repro.server --port 5433 --engine vectorized \
        --init schema.sql

``--init`` runs a SQL script (``;``-separated statements) against the
fresh database before accepting connections, which is how a served
instance gets its schema and seed data.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from ..backend.registry import engine_names
from ..engine.connection import Connection
from ..engine.database import Database
from .server import DEFAULT_PORT, PermServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.server",
        description="Serve a Perm provenance database over a socket.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--engine",
        default=None,
        help="default execution engine for sessions that do not choose one "
        f"({', '.join(engine_names())})",
    )
    parser.add_argument("--max-sessions", type=int, default=256)
    parser.add_argument("--max-workers", type=int, default=8)
    parser.add_argument("--max-pending", type=int, default=128)
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="open (or create) a durable database in this directory: "
        "committed transactions survive restarts via a checkpoint "
        "snapshot plus write-ahead log (default: in-memory)",
    )
    parser.add_argument(
        "--durability",
        default="fsync",
        choices=("fsync", "os", "off"),
        help="how hard COMMIT lands in the WAL (fsync: power-loss safe; "
        "os: crash safe; off: buffered). Only with --data-dir",
    )
    parser.add_argument(
        "--checkpoint-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rewrite the snapshot whenever the WAL exceeds N bytes "
        "(0 disables the automatic checkpointer)",
    )
    parser.add_argument(
        "--init",
        default=None,
        metavar="SCRIPT.sql",
        help="SQL script to run against the fresh database before serving",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    database = Database(
        path=args.data_dir,
        durability=args.durability,
        checkpoint_bytes=args.checkpoint_bytes,
    )
    if database.persistent:
        recovered = database.wal_stats()
        print(
            f"recovered {args.data_dir}: "
            f"{len(database.catalog.tables)} table(s), "
            f"{recovered['records_replayed']} WAL record(s) replayed, "
            f"{recovered['torn_bytes_truncated']} torn byte(s) truncated "
            f"in {recovered['recovery_ms']} ms",
            flush=True,
        )
    if args.init:
        with open(args.init, "r", encoding="utf-8") as handle:
            script = handle.read()
        conn = Connection(database=database)
        try:
            conn.run(script)
        finally:
            conn.close()
    server = PermServer(
        database=database,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_workers=args.max_workers,
        max_pending=args.max_pending,
        default_engine=args.engine,
    )

    async def serve() -> None:
        await server.start()
        print(f"repro server listening on {server.host}:{server.port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        database.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
